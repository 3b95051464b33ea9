import contextlib
import io
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from freepoisson import (
    AlignmentError,
    GridFunction,
    SolverConfig,
    UniformGrid,
    read_pgrid,
    solve_free_space,
)
from freepoisson import cli
from freepoisson.cli import (
    StudySpec,
    build_parser,
    build_spec,
    domain_invariance_study,
    fit_slope,
    load_config_file,
    main,
    run_convergence_study,
    run_domain_study,
    run_thread_benchmark,
)
from oracles import bump_from_differentiability


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
    with pytest.raises(ValueError, match="order"):
        StudySpec(kind="solve", order=5).solver_config()


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


def test_domain_invariance_study_basics():
    bump = bump_from_differentiability(2, 6, 0.4, (0.1, 0.0))
    base = UniformGrid([-1, -1], [1, 1], [20, 20])
    cfg = SolverConfig(order=6)
    rows = domain_invariance_study(bump, base, [1.0, 1.2, 1.5], cfg)
    assert rows[0] == (1.0, 0.0)
    exact = GridFunction.from_callable(base, bump.potential)
    phi, _ = solve_free_space(bump, base, cfg)
    base_err = np.max(np.abs(phi.values - exact.values)) / np.max(np.abs(exact.values))
    for D, diff in rows[1:]:
        assert diff <= base_err


def test_domain_invariance_zero_density():
    base = UniformGrid([-1, -1], [1, 1], [10, 10])
    rows = domain_invariance_study(
        lambda x, y: 0.0 * x * y, base, [1.0, 1.2], SolverConfig(order=4)
    )
    assert all(diff == 0.0 for _, diff in rows)


def test_domain_invariance_alignment_error():
    bump = bump_from_differentiability(2, 4, 0.4, (0.0, 0.0))
    base = UniformGrid([-1, -1], [1, 1], [10, 10])
    with pytest.raises(AlignmentError):
        domain_invariance_study(bump, base, [1.05], SolverConfig())
    off_base = UniformGrid([-1, -2], [1, 2], [10, 20])
    with pytest.raises(AlignmentError):
        domain_invariance_study(bump, off_base, [1.2], SolverConfig())


def _on_base_by_coordinates(phi_ext: GridFunction, base: UniformGrid) -> np.ndarray:
    """``phi_ext``'s values at the nodes of ``base``, each matched by its coordinates."""
    index = []
    for s in range(base.dim):
        hits = np.isclose(phi_ext.grid.axis_coordinates(s)[:, None], base.axis_coordinates(s),
                          rtol=0.0, atol=1e-9 * base.mesh[s])
        assert np.all(hits.sum(axis=0) == 1)
        index.append(np.argmax(hits, axis=0))
    return phi_ext.values[np.ix_(*index)]


@pytest.mark.parametrize("panels, d_values", [
    ((20, 40), (1.0, 1.2, 1.5)),
    ((10,), (1.0, 1.2, 2.0)),
])
def test_domain_study_rows_match_a_restriction_by_coordinates(panels, d_values):
    dim = len(panels)
    bump = bump_from_differentiability(dim, 4, 0.4, (0.1, 0.0)[:dim])
    base = UniformGrid([-1.0] * dim, [1.0] * dim, panels)
    cfg = SolverConfig(order=6)
    rows = domain_invariance_study(bump, base, d_values, cfg)
    phi_base, _ = solve_free_space(bump, base, cfg)
    norm = np.max(np.abs(phi_base.values))
    expected = []
    for D in d_values:
        ext = UniformGrid([-D] * dim, [D] * dim, [round(m * D) for m in panels])
        on_base = _on_base_by_coordinates(solve_free_space(bump, ext, cfg)[0], base)
        expected.append((D, float(np.max(np.abs(on_base - phi_base.values)) / norm)))
    assert rows == expected
    assert rows[0] == (1.0, 0.0) and all(0.0 < diff < 1e-3 for _, diff in rows[1:])


@pytest.mark.parametrize("d_list", [(1.0, 1.25, 1.05), (1.25, 0.5)])
def test_domain_study_checks_every_d_before_the_first_solve(d_list):
    spec = StudySpec(kind="domain", dim=2, panels=(16,), d_list=d_list, order=4)
    with mock.patch.object(cli, "solve_free_space", wraps=cli.solve_free_space) as solve:
        with pytest.raises(AlignmentError, match=f"D={d_list[-1]}"):
            run_domain_study(spec)
    assert solve.call_count == 0


def test_domain_study_reuses_the_base_solve_for_d_1(tmp_path):
    # D = 1 adds no collar: its row compares the base solve with itself.
    out = tmp_path / "domain.csv"
    argv = ["domain", "--dim", "2", "--panels", "16", "--d-list", "1.0", "1.25", "1.5",
            "--order", "4", "--out", str(out)]
    with mock.patch.object(cli, "solve_free_space", wraps=cli.solve_free_space) as solve:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    assert solve.call_count == 3  # the base grid, D = 1.25 and D = 1.5
    lines = out.read_text().splitlines()
    assert lines[:2] == ["D,max_rel_diff", "1.0000000000000000e+00,0.0000000000000000e+00"]
    assert len(lines) == 4


def test_thread_study_checks_every_count_before_the_first_solve():
    spec = StudySpec(kind="threads", dim=2, panels=(16,), thread_list=(1, 0), order=4)
    with mock.patch.object(cli, "solve_free_space", wraps=cli.solve_free_space) as solve:
        with pytest.raises(ValueError, match="thread_count must be at least 1"):
            run_thread_benchmark(spec)
    assert solve.call_count == 0


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


def test_cli_solve_holds_one_node_array_from_file_to_file(tmp_path):
    # The density is read into the array the solve works in, and the
    # potential is written from it: the read, the solve and the write each
    # add only chunks, blocks and O(face) arrays to that one node array
    # (about 1.2 node arrays, in the harmonic sweeps).  The grid is the
    # benchmark's CLI grid, large enough that the writer's fixed scratch
    # (about 1.35 MiB) and the harmonic phase's blocks are small beside a
    # node array.
    from freepoisson import GridFunction, PolyBump, UniformGrid, solve_free_space, write_pgrid

    g = UniformGrid([-1.0, -3.0], [1.0, 3.0], [1024, 1024])
    coords = g.coordinate_arrays()
    rho = GridFunction(g, sum(
        PolyBump(2, 0.15, 7, c).density(*coords) for c in ((0.5, 1.0), (-0.4, -1.5), (0.1, 0.2))
    ))
    del coords
    rho_path, out = tmp_path / "rho.pgrid", tmp_path / "phi.pgrid"
    write_pgrid(rho_path, rho)
    argv = ["solve", "--rho-file", str(rho_path), "--out", str(out), "--format", "pgrid"]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] / rho.values.nbytes
    finally:
        tracemalloc.stop()
    assert peak <= 1.25
    # The command's output is bitwise that of the in-process solve.
    assert np.array_equal(read_pgrid(out).values, solve_free_space(rho)[0].values)


@pytest.mark.parametrize("padding", ["0", "2"])
def test_cli_solve_from_file_matches_the_in_process_solve(tmp_path, padding):
    # Unpadded, the solve works in the array it read; padded, in the
    # embedding, and the read array is released.
    from freepoisson import GridFunction, PolyBump, SolverConfig, UniformGrid, solve_free_space
    from freepoisson import write_pgrid

    g = UniformGrid([-1, -1], [1, 1.5], [24, 30])
    rho = GridFunction.from_callable(g, PolyBump(2, 0.4, 5, (0.1, 0.2)))
    rho_path, out = tmp_path / "rho.pgrid", tmp_path / "phi.pgrid"
    write_pgrid(rho_path, rho)
    argv = ["solve", "--rho-file", str(rho_path), "--out", str(out), "--format", "pgrid",
            "--padding-panels", padding]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    expected, _ = solve_free_space(rho, config=SolverConfig(padding_panels=int(padding)))
    phi = read_pgrid(out)
    assert phi.grid == g
    assert np.array_equal(phi.values, expected.values)


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


@pytest.mark.parametrize("flags, name", [
    (["--eps", "inf"], "epsilon"),
    (["--eps", "nan"], "epsilon"),
    (["--center", "0", "inf"], "center"),
    (["--domain", "-1", "1", "-1", "inf"], "bounds"),
    (["--domain", "-1e308", "1e308", "-1", "1"], "mesh widths"),
], ids=["eps-inf", "eps-nan", "center-inf", "bound-inf", "extent-overflow"])
def test_cli_non_finite_bump_and_grid_parameters_fail_early(tmp_path, capsys, flags, name):
    # The error names the parameter, and no potential is written.
    out = tmp_path / "phi.pgrid"
    rc = main(["solve", "--dim", "2", "--panels", "16", *flags, "--out", str(out)])
    assert rc == 1
    assert name in capsys.readouterr().err
    assert not out.exists()


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
    "line",
    ["order = 5", "order = x", "wibble = 3", "thread = 2", "center = 0 -x", "fft_friendly = banana"],
    ids=["bad-choice", "bad-int", "unknown-key", "abbreviated-key", "bad-list-value", "bad-flag"],
)
def test_bad_config_file_is_reported(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    rc = main(["convergence", "--config", str(cfg), "--h-list", "0.5"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "config" in err  # the file's error, not a later solve's


@pytest.mark.parametrize("value, given", [
    ("true", True), ("Yes", True), ("ON", True), ("1", True),
    ("false", False), ("No", False), ("off", False), ("0", False),
])
def test_config_flag_takes_true_or_false(tmp_path, value, given):
    cfg = tmp_path / "flag.cfg"
    cfg.write_text(f"fft_friendly = {value}\n")
    assert load_config_file(cfg).get("fft_friendly", False) is given


def test_config_flag_error_names_the_key(tmp_path):
    cfg = tmp_path / "flag.cfg"
    cfg.write_text("fft_friendly = banana\n")
    with pytest.raises(ValueError, match="fft-friendly.*'banana'"):
        load_config_file(cfg)


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
