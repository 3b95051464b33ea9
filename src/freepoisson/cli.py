"""Command-line front end: single solves, convergence / domain / thread studies.

Studies emit CSV (written atomically: temp file, then rename) and print a
summary table; single solves write PGRID files.  A study can also be driven
by a plain key=value config file, with command-line flags taking precedence.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .bumps import PolyBump
from .errors import AlignmentError
from .grid import GridFunction, UniformGrid, max_norm_difference
from .pgrid import _is_number, atomic_open, read_pgrid, write_nodes_csv, write_pgrid
from .solver import SolverConfig, _solve, solve_free_space

__all__ = [
    "StudySpec",
    "domain_invariance_study",
    "run_convergence_study",
    "run_domain_study",
    "run_thread_benchmark",
    "main",
]

KINDS = ("solve", "convergence", "domain", "threads")
DEFAULT_CENTER = (1.0 / math.sqrt(31.0), 0.2, 0.1)
CONVERGENCE_HEADER = (
    "h,panels,order,diff,max_rel_err,t_phistar_s,t_boundary_s,t_harmonic_s"
)
DOMAIN_HEADER = "D,max_rel_diff"
THREADS_HEADER = "threads,t_phistar_s,t_boundary_s,t_harmonic_s,t_total_s,speedup"


@dataclass
class StudySpec:
    """Fully resolved parameters of one CLI run."""

    kind: str
    dim: int = 3
    domain: tuple[float, ...] = ()
    panels: tuple[int, ...] = ()
    h_list: tuple[float, ...] = ()
    d_list: tuple[float, ...] = ()
    thread_list: tuple[int, ...] = ()
    order: int = 6
    diff: int | None = None
    p: int | None = None
    eps: float = 0.4
    center: tuple[float, ...] = ()
    padding_panels: int = 0
    fft_friendly: bool = False
    threads: int = 1
    fit_min_h: float | None = None
    fit_max_h: float | None = None
    out: str | None = None
    format: str = "csv"
    rho_file: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown study kind {self.kind!r}")
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        if not self.domain:
            self.domain = tuple(v for _ in range(self.dim) for v in (-1.0, 1.0))
        if len(self.domain) != 2 * self.dim:
            raise ValueError("domain needs a lower and upper bound per axis")
        if not self.center:
            self.center = DEFAULT_CENTER[: self.dim]
        if len(self.center) != self.dim:
            raise ValueError("center needs one coordinate per axis")
        if self.p is None:
            self.p = (6 if self.diff is None else self.diff) + 1
        elif self.diff is not None and self.p != self.diff + 1:
            raise ValueError("give either --p or --diff, not conflicting values")
        self.diff = self.p - 1
        if any(h <= 0 for h in self.h_list):
            raise ValueError("h values must be positive")

    @property
    def lower(self) -> tuple[float, ...]:
        return self.domain[0::2]

    @property
    def upper(self) -> tuple[float, ...]:
        return self.domain[1::2]

    def bump(self) -> PolyBump:
        return PolyBump(self.dim, self.eps, self.p, self.center)

    def solver_config(self, threads: int | None = None) -> SolverConfig:
        return SolverConfig(
            order=self.order,
            padding_panels=self.padding_panels,
            fft_friendly_expansion=self.fft_friendly,
            thread_count=threads if threads is not None else self.threads,
        )

    def grid_for_h(self, h: float) -> UniformGrid:
        panels = []
        for a, b in zip(self.lower, self.upper):
            m = (b - a) / h
            if abs(m - round(m)) > 1e-9 * m or round(m) < 2:
                raise ValueError(
                    f"mesh width {h} does not divide the domain extent {b - a}"
                )
            panels.append(int(round(m)))
        return UniformGrid(self.lower, self.upper, panels)

    def base_grid(self) -> UniformGrid:
        if not self.panels:
            raise ValueError("this study needs --panels")
        panels = self.panels if len(self.panels) > 1 else self.panels * self.dim
        return UniformGrid(self.lower, self.upper, panels)


def fit_slope(hs, errs, fit_min_h=None, fit_max_h=None) -> float:
    """Least-squares slope of log(err) against log(h) over an h window."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = np.ones(hs.size, dtype=bool)
    if fit_min_h is not None:
        keep &= hs >= fit_min_h * (1 - 1e-12)
    if fit_max_h is not None:
        keep &= hs <= fit_max_h * (1 + 1e-12)
    if keep.sum() < 2:
        raise ValueError("need at least two h values inside the fit window")
    if np.any(errs[keep] <= 0):
        raise ValueError("cannot fit a rate through zero error values")
    return float(np.polyfit(np.log(hs[keep]), np.log(errs[keep]), 1)[0])


def run_convergence_study(spec: StudySpec):
    """Solve over the h sequence against the bump's analytic potential.

    Returns (rows, slope); each row matches the CSV header.
    """
    if not spec.h_list:
        raise ValueError("convergence study needs --h-list")
    grids = [spec.grid_for_h(h) for h in spec.h_list]  # validate all up front
    bump = spec.bump()
    config = spec.solver_config()
    rows = []
    for h, grid in zip(spec.h_list, grids):
        phi, report = solve_free_space(bump, grid, config)
        exact = GridFunction.from_callable(grid, bump.potential)
        err = float(
            np.max(np.abs(phi.values - exact.values))
            / np.max(np.abs(exact.values))
        )
        rows.append(
            (
                h,
                grid.panels[0] if len(set(grid.panels)) == 1 else
                "x".join(str(m) for m in grid.panels),
                spec.order,
                spec.diff,
                err,
                report.t_phistar_s,
                report.t_boundary_s,
                report.t_harmonic_s,
            )
        )
    slope = fit_slope(
        spec.h_list, [r[4] for r in rows], spec.fit_min_h, spec.fit_max_h
    )
    return rows, slope


def domain_invariance_study(
    rho_callable,
    base_grid: UniformGrid,
    D_values,
    config: SolverConfig = SolverConfig(),
) -> list[tuple[float, float]]:
    """Solve on [-D, D]^d for each D and compare on the base domain.

    The base grid must cover [-1, 1]^d; every D must be a whole number of
    mesh widths beyond 1 so the extended nodes align with the base nodes.
    Every D is checked before the first solve.  Returns (D, max difference
    on the base domain / max |base solution|) rows.
    """
    dim = base_grid.dim
    for s in range(dim):
        if abs(base_grid.lower[s] + 1.0) > 1e-12 or abs(base_grid.upper[s] - 1.0) > 1e-12:
            raise AlignmentError("domain study requires the base domain [-1, 1]^d")
    collars = []  # (D, whole panels beyond the base domain per axis), all checked up front
    for D in map(float, D_values):
        collar = []
        for h in base_grid.mesh:
            extra = (D - 1.0) / h
            if abs(extra - round(extra)) > 1e-9 or D < 1.0:
                raise AlignmentError(
                    f"domain size D={D} is not a whole number of mesh widths "
                    f"beyond the base domain (h={h})"
                )
            collar.append(int(round(extra)))
        collars.append((D, collar))
    phi_base, _ = solve_free_space(rho_callable, base_grid, config)
    norm = float(np.max(np.abs(phi_base.values)))
    rows = []
    for D, collar in collars:
        if not any(collar):  # D = 1: the base grid itself
            rows.append((D, 0.0))
            continue
        panels = [m + 2 * e for m, e in zip(base_grid.panels, collar)]
        ext_grid = UniformGrid([-D] * dim, [D] * dim, panels)
        phi_ext, _ = solve_free_space(rho_callable, ext_grid, config)
        box = tuple(slice(e, e + m + 1) for e, m in zip(collar, base_grid.panels))
        diff = max_norm_difference(GridFunction(base_grid, phi_ext.values[box]), phi_base)
        rows.append((D, diff / norm if norm > 0.0 else 0.0))
    return rows


def run_domain_study(spec: StudySpec):
    """Domain-expansion study: rows of (D, max relative difference)."""
    if not spec.d_list:
        raise ValueError("domain study needs --d-list")
    return domain_invariance_study(
        spec.bump(), spec.base_grid(), spec.d_list, spec.solver_config()
    )


def run_thread_benchmark(spec: StudySpec):
    """Fixed problem, varying thread counts; asserts identical output."""
    if not spec.thread_list:
        raise ValueError("thread benchmark needs --thread-list")
    grid = spec.base_grid()
    configs = [spec.solver_config(t) for t in spec.thread_list]  # validate all up front
    bump = spec.bump()
    rows = []
    reference = None
    base_time = None
    for threads, config in zip(spec.thread_list, configs):
        phi, report = solve_free_space(bump, grid, config)
        if reference is None:
            reference = phi
            base_time = report.t_total_s
        elif not np.array_equal(phi.values, reference.values):
            raise AssertionError(
                f"solution with {threads} threads differs from the first run"
            )
        rows.append(
            (
                threads,
                report.t_phistar_s,
                report.t_boundary_s,
                report.t_harmonic_s,
                report.t_total_s,
                base_time / report.t_total_s if report.t_total_s > 0 else 1.0,
            )
        )
    return rows


def _format_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.16e}"
    return str(v)


def _table(header: str, rows) -> str:
    """A study's CSV text: the header line, then one line per row."""
    return "".join(line + "\n" for line in [
        header, *(",".join(_format_cell(v) for v in row) for row in rows)])


def write_csv(path, header: str, rows) -> None:
    """Write CSV atomically so failed runs never leave partial files."""
    text = _table(header, rows)
    with atomic_open(path, ".csv-") as fh:
        fh.write(text.encode())


def _run_study(spec: StudySpec) -> None:
    """Print a study's table, and write it as CSV when ``spec.out`` is set."""
    if spec.kind == "convergence":
        rows, slope = run_convergence_study(spec)
        header, footer = CONVERGENCE_HEADER, f"fitted slope: {slope:.3f}\n"
    elif spec.kind == "domain":
        header, rows, footer = DOMAIN_HEADER, run_domain_study(spec), ""
    else:
        header, rows, footer = THREADS_HEADER, run_thread_benchmark(spec), ""
    print(_table(header, rows) + footer, end="")
    if spec.out:
        write_csv(spec.out, header, rows)
        print(f"wrote {spec.out}")


def _read_density(path) -> GridFunction:
    start = time.perf_counter()
    rho = read_pgrid(path)
    print(f"read {_file_note(path, start)}")
    return rho


def _run_solve(spec: StudySpec) -> None:
    config = spec.solver_config()
    if spec.rho_file:
        # Nothing here keeps the density: the solve takes its array over.
        phi, report = _solve(_read_density(spec.rho_file), None, config, owned=True)
    else:
        phi, report = solve_free_space(spec.bump(), spec.base_grid(), config)
    grid = phi.grid
    print(
        f"solved {grid.dim}D grid {'x'.join(str(m) for m in grid.panels)} "
        f"(order {spec.order}); timings: phi* {report.t_phistar_s:.3f}s, "
        f"boundary {report.t_boundary_s:.3f}s, harmonic {report.t_harmonic_s:.3f}s"
    )
    if spec.out:
        start = time.perf_counter()
        if spec.format == "pgrid":
            write_pgrid(spec.out, phi)
        else:
            write_nodes_csv(spec.out, phi)
        print(f"wrote {_file_note(spec.out, start)}")


def _file_note(path, start: float) -> str:
    """``path (size MiB, seconds since start s)`` for the solve command's I/O lines."""
    size = os.path.getsize(path) / 2**20
    return f"{path} ({size:.1f} MiB, {time.perf_counter() - start:.3f} s)"


class _Parser(argparse.ArgumentParser):
    """The class of every parser here, so flags and config lines take the
    same numbers: every token ``float`` accepts (``-1e-1``, ``-inf``), not
    only argparse's ``-<digits>[.<digits>]``, is a value, never an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = SimpleNamespace(match=_is_number)


# The one definition of every option: (subcommands, flag, add_argument
# keywords).  The subcommand parsers and the config-file parser read it.
_OPTIONS = (
    (KINDS, "--dim", dict(type=int)),
    (KINDS, "--domain", dict(type=float, nargs="+", metavar="BOUND",
                             help="a b [c d [e f]] per axis")),
    (KINDS, "--panels", dict(type=int, nargs="+")),
    (KINDS, "--order", dict(type=int, choices=(4, 6))),
    (KINDS, "--diff", dict(type=int, help="bump differentiability (p-1)")),
    (KINDS, "--p", dict(type=int, help="bump exponent")),
    (KINDS, "--eps", dict(type=float, help="bump support radius")),
    (KINDS, "--center", dict(type=float, nargs="+")),
    (KINDS, "--padding-panels", dict(type=int)),
    (KINDS, "--fft-friendly", dict(action="store_const", const=True, default=None)),
    (KINDS, "--threads", dict(type=int)),
    (KINDS, "--out", {}),
    (KINDS, "--format", dict(choices=("csv", "pgrid"))),
    (("solve",), "--rho-file", dict(help="PGRID file with the density")),
    (("convergence",), "--h-list", dict(type=float, nargs="+")),
    (("convergence",), "--fit-min-h", dict(type=float)),
    (("convergence",), "--fit-max-h", dict(type=float)),
    (("domain",), "--d-list", dict(type=float, nargs="+")),
    (("threads",), "--thread-list", dict(type=int, nargs="+")),
)


def load_config_file(path) -> dict:
    """Parse a plain key=value file ('#' starts a comment) with the options' parser.

    Keys are long option names of any subcommand (``-`` or ``_``); list
    values are split at commas or spaces; ``fft_friendly`` takes true/false,
    1/0, yes/no or on/off.
    """
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {raw!r} is not key=value")
            key, val = (part.strip() for part in line.split("=", 1))
            values["--" + key.replace("_", "-")] = val  # a later line wins
    parser = _Parser(add_help=False, allow_abbrev=False, exit_on_error=False)
    argv = []
    for _, flag, kw in _OPTIONS:
        parser.add_argument(flag, **kw)
        val = values.pop(flag, None)
        if val is None:
            continue
        if "nargs" in kw:
            tokens = val.replace(",", " ").split()
            argv += [flag] + tokens if tokens else []  # an empty list is the default
        elif "const" in kw:
            given = val.lower() in ("1", "true", "yes", "on")
            if not given and val.lower() not in ("0", "false", "no", "off"):
                raise ValueError(f"config file {path}: {flag[2:]} must be true or false, "
                                 f"not {val!r}")
            argv += [flag] if given else []
        else:
            argv.append(f"{flag}={val}")
    if values:
        raise ValueError(f"unknown config key {next(iter(values))[2:]!r}")
    try:
        parsed, extra = parser.parse_known_args(argv)
    except argparse.ArgumentError as exc:
        raise ValueError(f"config file {path}: {exc}") from None
    if extra:
        raise ValueError(f"config file {path}: cannot read {' '.join(extra)!r}")
    return {
        key: tuple(val) if isinstance(val, list) else val
        for key, val in vars(parsed).items()
        if val is not None
    }


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="freepoisson",
        description="Free-space Poisson solves and benchmark studies on "
        "uniform rectangular grids.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, help_text in zip(KINDS, (
        "one solve, optionally written as PGRID/CSV",
        "error vs mesh width against the analytic potential",
        "solution variation under domain expansion",
        "wall time vs thread count on a fixed problem",
    )):
        p = sub.add_parser(kind, help=help_text)
        p.add_argument("--config", help="key=value file; flags override it")
        for kinds, flag, kw in _OPTIONS:
            if kind in kinds:
                p.add_argument(flag, **kw)
    return parser


def build_spec(args: argparse.Namespace) -> StudySpec:
    merged = {}
    if getattr(args, "config", None):
        merged.update(load_config_file(args.config))
    for key, val in vars(args).items():
        if key in ("config", "kind") or val is None:
            continue
        merged[key] = tuple(val) if isinstance(val, list) else val
    return StudySpec(kind=args.kind, **merged)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = build_spec(args)
        if spec.kind == "solve":
            _run_solve(spec)
        else:
            _run_study(spec)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
