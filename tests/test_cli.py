import re

import numpy as np
import pytest

from freepoisson import read_pgrid
from freepoisson.cli import (
    StudySpec,
    build_parser,
    build_spec,
    fit_slope,
    main,
    run_convergence_study,
    run_domain_study,
    run_thread_benchmark,
)


def test_spec_defaults():
    spec = StudySpec(kind="convergence", h_list=(0.1,))
    assert spec.dim == 3
    assert spec.domain == (-1.0, 1.0, -1.0, 1.0, -1.0, 1.0)
    assert spec.center == pytest.approx((1 / np.sqrt(31), 0.2, 0.1))
    assert spec.p == 7 and spec.diff == 6
    assert spec.order == 6


def test_spec_diff_p_consistency():
    assert StudySpec(kind="solve", diff=4).p == 5
    assert StudySpec(kind="solve", p=3).diff == 2
    with pytest.raises(ValueError):
        StudySpec(kind="solve", diff=4, p=9)
    with pytest.raises(ValueError):
        StudySpec(kind="bogus")


def test_grid_for_h_validates_before_running():
    spec = StudySpec(kind="convergence", dim=2, h_list=(0.1, 0.03))
    with pytest.raises(ValueError, match="does not divide"):
        run_convergence_study(spec)


def test_fit_slope_windows():
    hs = [0.4, 0.2, 0.1, 0.05]
    errs = [h**3 for h in hs]
    assert fit_slope(hs, errs) == pytest.approx(3.0, abs=1e-12)
    assert fit_slope(hs, errs, fit_min_h=0.1, fit_max_h=0.4) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_slope(hs, errs, fit_min_h=0.3, fit_max_h=0.35)


def test_convergence_study_rows_and_reproducibility():
    spec = StudySpec(
        kind="convergence", dim=2, h_list=(0.125, 0.0625), diff=4, order=6,
        center=(0.1, 0.0),
    )
    rows1, slope1 = run_convergence_study(spec)
    rows2, slope2 = run_convergence_study(spec)
    assert len(rows1) == 2
    for r1, r2 in zip(rows1, rows2):
        assert r1[0] == r2[0]      # h
        assert r1[1] == r2[1]      # panels
        assert r1[4] == r2[4]      # error identical on rerun
    assert slope1 == slope2
    assert rows1[0][1] == 16 and rows1[1][1] == 32
    assert rows1[0][2] == 6 and rows1[0][3] == 4


def test_domain_study_rows():
    spec = StudySpec(
        kind="domain", dim=2, panels=(16,), d_list=(1.0, 1.25), diff=4,
        center=(0.1, 0.0), order=4,
    )
    rows = run_domain_study(spec)
    assert rows[0] == (1.0, 0.0)
    assert rows[1][1] < 1e-3


def test_thread_benchmark_rows():
    spec = StudySpec(
        kind="threads", dim=2, panels=(20,), thread_list=(1, 2), diff=2,
        center=(0.0, 0.0),
    )
    rows = run_thread_benchmark(spec)
    assert rows[0][0] == 1 and rows[0][5] == 1.0
    assert rows[1][0] == 2


def test_cli_convergence_writes_csv(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    rc = main([
        "convergence", "--dim", "2", "--h-list", "0.125", "0.0625",
        "--diff", "4", "--center", "0.1", "0.0", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "h,panels,order,diff,max_rel_err,t_phistar_s,t_boundary_s,t_harmonic_s"
    assert len(lines) == 3
    err = float(lines[1].split(",")[4])
    assert 0 < err < 1e-3
    assert "fitted slope" in capsys.readouterr().out


@pytest.mark.parametrize("study", [
    ["domain", "--d-list", "1.0", "1.25", "--order", "4"],
    ["threads", "--thread-list", "1", "2"],
])
def test_cli_study_csv_matches_printed_table(tmp_path, capsys, study):
    out = tmp_path / "study.csv"
    argv = study + ["--dim", "2", "--panels", "16", "--diff", "2",
                    "--center", "0.1", "0.0", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text() + f"wrote {out}\n"


def test_cli_solve_writes_pgrid(tmp_path):
    out = tmp_path / "phi.pgrid"
    rc = main([
        "solve", "--dim", "2", "--panels", "16", "--diff", "4",
        "--center", "0.1", "0.0", "--out", str(out), "--format", "pgrid",
    ])
    assert rc == 0
    phi = read_pgrid(out)
    assert phi.grid.panels == (16, 16)
    assert np.all(np.isfinite(phi.values))


def test_cli_solve_roundtrip_density_file(tmp_path):
    # solve from a PGRID density written by an earlier run
    from freepoisson import GridFunction, PolyBump, UniformGrid, write_pgrid

    g = UniformGrid([-1, -1], [1, 1], [16, 16])
    bump = PolyBump(2, 0.4, 5, (0.1, 0.0))
    rho_path = tmp_path / "rho.pgrid"
    write_pgrid(rho_path, GridFunction.from_callable(g, bump))
    out = tmp_path / "phi.pgrid"
    rc = main([
        "solve", "--rho-file", str(rho_path), "--out", str(out),
        "--format", "pgrid",
    ])
    assert rc == 0
    assert read_pgrid(out).grid == g


def test_cli_solve_reports_read_and_write(tmp_path, capsys):
    from freepoisson import GridFunction, PolyBump, UniformGrid, write_pgrid

    g = UniformGrid([-1, -1], [1, 1], [16, 16])
    rho_path = tmp_path / "rho.pgrid"
    write_pgrid(rho_path, GridFunction.from_callable(g, PolyBump(2, 0.4, 5, (0.1, 0.0))))
    out = tmp_path / "phi.pgrid"
    assert main(["solve", "--rho-file", str(rho_path), "--out", str(out), "--format", "pgrid"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for line, verb, path in ((lines[0], "read", rho_path), (lines[2], "wrote", out)):
        size = f"{path.stat().st_size / 2**20:.1f}"
        assert re.fullmatch(rf"{verb} {re.escape(str(path))} \({size} MiB, \d+\.\d{{3}} s\)", line)
    assert lines[1].startswith("solved 2D grid 16x16 (order 6); timings: phi* ")


@pytest.mark.parametrize("panels", [("8", "12"), ("7", "8", "9")])
def test_cli_solve_csv_cells_are_full_precision(tmp_path, panels):
    argv = ["solve", "--dim", str(len(panels)), "--panels", *panels, "--diff", "4"]
    assert main(argv + ["--out", str(tmp_path / "phi.pgrid"), "--format", "pgrid"]) == 0
    assert main(argv + ["--out", str(tmp_path / "phi.csv"), "--format", "csv"]) == 0
    phi = read_pgrid(tmp_path / "phi.pgrid")
    dim = phi.grid.dim
    coords = np.meshgrid(*(phi.grid.axis_coordinates(s) for s in range(dim)), indexing="ij")
    rows = zip(*(c.ravel().tolist() for c in coords), phi.values.ravel().tolist())
    expected = ",".join("xyz"[:dim]) + ",phi\n" + "".join(
        ",".join(f"{v:.16e}" for v in row) + "\n" for row in rows)
    assert (tmp_path / "phi.csv").read_text() == expected


def test_cli_error_is_reported(tmp_path, capsys):
    rc = main(["convergence", "--dim", "2", "--h-list", "0.3"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_config_file_merge(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# a study\n"
        "dim = 2\n"
        "h_list = 0.125, 0.0625\n"
        "diff = 4\n"
        "center = 0.1 0.0\n"
        "order = 4\n"
    )
    args = build_parser().parse_args(
        ["convergence", "--config", str(cfg), "--order", "6"]
    )
    spec = build_spec(args)
    assert spec.dim == 2
    assert spec.h_list == (0.125, 0.0625)
    assert spec.order == 6  # flag overrides the file
    assert spec.diff == 4


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble = 3\n")
    args = build_parser().parse_args(["convergence", "--config", str(cfg)])
    with pytest.raises(ValueError, match="unknown config key"):
        build_spec(args)


def test_csv_write_is_atomic(tmp_path):
    from freepoisson.cli import write_csv

    class Boom:
        def __iter__(self):
            raise RuntimeError("broken row source")

    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError):
        write_csv(target, "a,b", Boom())
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "line", ["order = 5", "order = x", "wibble = 3", "thread = 2", "center = 0 -x"],
    ids=["bad-choice", "bad-int", "unknown-key", "abbreviated-key", "bad-list-value"],
)
def test_bad_config_file_is_reported(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    rc = main(["convergence", "--config", str(cfg), "--h-list", "0.5"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_config_file_shared_by_every_study(tmp_path):
    # Keys of every subcommand in one file; each study takes the whole file.
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "dim = 2\n"
        "panels = 16\n"
        "h_list = 0.25, 0.125\n"
        "d-list = 1.0 1.5\n"
        "thread_list = 1, 2\n"
        "domain = -1 1 -2.5 2.5\n"
        "center = -1e-1, 0.05\n"
        "eps = 3e-1\n"
        "padding-panels = 1\n"
        "fft_friendly = true\n"
        "fit_min_h = 0.1\n"
        "rho_file = my density.pgrid\n"
        "format = pgrid\n"
    )
    for kind in ("convergence", "domain", "threads"):
        spec = build_spec(build_parser().parse_args([kind, "--config", str(cfg)]))
        assert spec == StudySpec(
            kind=kind, dim=2, panels=(16,), h_list=(0.25, 0.125), d_list=(1.0, 1.5),
            thread_list=(1, 2), domain=(-1.0, 1.0, -2.5, 2.5), center=(-0.1, 0.05),
            eps=0.3, padding_panels=1, fft_friendly=True, fit_min_h=0.1,
            rho_file="my density.pgrid", format="pgrid",
        )
    cfg.write_text("fft-friendly = no\nh_list =\n")
    spec = build_spec(build_parser().parse_args(["domain", "--config", str(cfg)]))
    assert spec == StudySpec(kind="domain")


def test_config_format_checked_like_the_flag(tmp_path, capsys):
    # A config value goes through the option's own definition, so a format
    # the flag rejects is an error instead of a silent fallback to CSV.
    cfg = tmp_path / "study.cfg"
    cfg.write_text("format = PGRID\n")
    rc = main(["solve", "--config", str(cfg), "--dim", "2", "--panels", "8"])
    assert rc == 1
    assert "invalid choice" in capsys.readouterr().err


def test_flags_take_every_number_a_config_file_takes(tmp_path):
    # argparse alone reads -1e-1 as an option and stops --center there.
    options = {
        "center": ["-1e-1", "0", "-2.5E-1"],
        "domain": ["-1e0", "1e0", "-2e0", "2E+0", "-1_5", "-inf"],
        "eps": ["-4e-1"],
        "fit-min-h": ["-1e-3"],
        "padding-panels": ["-1"],
    }
    argv = ["convergence"]
    for key, values in options.items():
        argv += ["--" + key] + values
    from_flags = build_spec(build_parser().parse_args(argv))
    cfg = tmp_path / "study.cfg"
    cfg.write_text("".join(f"{k} = {' '.join(v)}\n" for k, v in options.items()))
    from_file = build_spec(build_parser().parse_args(["convergence", "--config", str(cfg)]))
    assert from_flags == from_file == StudySpec(
        kind="convergence", center=(-0.1, 0.0, -0.25),
        domain=(-1.0, 1.0, -2.0, 2.0, -15.0, -np.inf), eps=-0.4,
        fit_min_h=-1e-3, padding_panels=-1,
    )


def test_help_after_a_negative_scientific_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--center", "-1e-1", "0", "0", "--help"])
    assert exc.value.code == 0
    assert "--center" in capsys.readouterr().out
