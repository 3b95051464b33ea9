"""End-to-end free-space Poisson solve on a uniform rectangular grid.

The infinite-domain solution restricted to the box is assembled from two
finite-domain solves: the homogeneous-Dirichlet spectral solve of the density
plus a discrete-harmonic extension of the Green's-function boundary values.
Both are diagonal in the same discrete sine basis, so in 2D and 3D their
coefficients are added and evaluated by one inverse DST into the array that
already carries the boundary values.  The density must keep a zero collar
near the boundary; the collar is realized by padding the user grid outward
by whole panels (preserving the mesh), with optional rounding of panel
counts up to 7-smooth integers for fast FFTs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .boundary import boundary_values_fast
from .dirichlet import phi_star_modes
from .errors import AlignmentError, ShapeError, check_count
from .grid import GridFunction, UniformGrid, max_norm_difference, restrict_to_subgrid
from .harmonic import check_panels, harmonic_modes, solve_harmonic_1d
from .transforms import inverse_dst, next_smooth_length

__all__ = [
    "SolverConfig",
    "SolveReport",
    "pad_domain",
    "solve_free_space",
    "domain_invariance_study",
]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the free-space solve.

    order: accuracy of the harmonic correction, 4 or 6 (ignored in 1D where
        the harmonic part is exact).
    padding_panels: zero-collar width added on every side of the user domain,
        in whole panels, so the mesh is preserved exactly.
    fft_friendly_expansion: round padded panel counts up to 7-smooth integers,
        splitting the extra panels as evenly as possible between the sides.
    thread_count: ``workers`` count of the boundary phase's ``scipy.fft``
        calls; the result is bitwise identical for any value.
    """

    order: int = 6
    padding_panels: int = 0
    fft_friendly_expansion: bool = False
    thread_count: int = 1

    def __post_init__(self):
        check_count("order", self.order)
        check_count("padding_panels", self.padding_panels)
        check_count("thread_count", self.thread_count, 1)
        if self.order not in (4, 6):
            raise ValueError(f"order must be 4 or 6, got {self.order}")
        if not isinstance(self.fft_friendly_expansion, bool):
            raise ValueError(
                f"fft_friendly_expansion must be a bool, got {self.fft_friendly_expansion!r}"
            )


@dataclass
class SolveReport:
    """What a solve did and how long each phase took (never asserted).

    boundary_rho_max: max |rho| on the padded grid's boundary nodes.
    t_sample_s: sampling or embedding the density, the final restriction
        and the rest of the bookkeeping.
    t_phistar_s: the spectral component's sine coefficients.
    t_boundary_s: the density's support check and the Green's-function
        boundary values.
    t_harmonic_s: the harmonic extension's sine coefficients plus the one
        inverse DST shared with the spectral component (in 1D: the linear
        interpolant plus the spectral component's inverse DST).
    """

    user_grid: UniformGrid
    padded_grid: UniformGrid
    order: int
    thread_count: int
    boundary_rho_max: float = 0.0
    t_sample_s: float = 0.0
    t_phistar_s: float = 0.0
    t_boundary_s: float = 0.0
    t_harmonic_s: float = 0.0

    @property
    def t_total_s(self) -> float:
        """Wall time of the whole solve: the sum of the four phases."""
        return self.t_sample_s + self.t_phistar_s + self.t_boundary_s + self.t_harmonic_s


def _pad_counts(grid: UniformGrid, config: SolverConfig) -> list[tuple[int, int]]:
    counts = []
    for m in grid.panels:
        low = high = config.padding_panels
        if config.fft_friendly_expansion:
            target = next_smooth_length(m + low + high)
            extra = target - (m + low + high)
            low += extra // 2
            high += extra - extra // 2
        counts.append((low, high))
    return counts


def pad_domain(grid: UniformGrid, config: SolverConfig) -> UniformGrid:
    """Extend the grid outward by the configured zero collar, same mesh."""
    counts = _pad_counts(grid, config)
    lower, upper, panels = [], [], []
    for s, (low, high) in enumerate(counts):
        h = grid.mesh[s]
        lower.append(grid.lower[s] - low * h)
        upper.append(grid.upper[s] + high * h)
        panels.append(grid.panels[s] + low + high)
    return UniformGrid(lower, upper, panels)


def _embed_samples(
    rho: GridFunction, padded: UniformGrid, counts
) -> GridFunction:
    values = np.zeros(padded.shape)
    sl = tuple(
        slice(low, low + m + 1)
        for (low, _), m in zip(counts, rho.grid.panels)
    )
    values[sl] = rho.values
    return GridFunction(padded, values)


def solve_free_space(
    rho,
    user_grid: UniformGrid | None = None,
    config: SolverConfig = SolverConfig(),
) -> tuple[GridFunction, SolveReport]:
    """Solve Poisson's equation in free space at all nodes of the user grid.

    ``rho`` is either a GridFunction on the user grid or a callable
    ``rho(x[, y[, z]])`` (broadcasting) sampled on the padded grid directly.
    Returns the potential restricted to the user grid plus a phase report.
    The density's support must stay inside the padded domain's zero collar.
    """
    t0 = time.perf_counter()
    if isinstance(rho, GridFunction):
        if user_grid is not None and rho.grid != user_grid:
            raise ShapeError("sampled density must live on the user grid")
        user_grid = rho.grid
    elif user_grid is None:
        raise ShapeError("a user grid is required when rho is a callable")

    counts = _pad_counts(user_grid, config)
    padded = pad_domain(user_grid, config)
    check_panels(padded, config.order)
    if isinstance(rho, GridFunction):
        rho_padded = _embed_samples(rho, padded, counts)
    else:
        rho_padded = GridFunction.from_callable(padded, rho)

    t1 = time.perf_counter()
    g = boundary_values_fast(rho_padded, config.thread_count)  # checks the density first
    t2 = time.perf_counter()
    if padded.dim == 1:
        phi_padded = solve_harmonic_1d(
            float(g.faces[(0, 0)]), float(g.faces[(0, 1)]), padded
        )
        t3 = time.perf_counter()
        modes = phi_star_modes(rho_padded)
        t4 = time.perf_counter()
        phi_padded.values += inverse_dst(modes, padded).values
    else:
        # The harmonic coefficients come first: their working set is the
        # largest, and the spectral coefficients are not alive during it.
        modes = harmonic_modes(g, config.order)
        t3 = time.perf_counter()
        modes += phi_star_modes(rho_padded)
        t4 = time.perf_counter()
        phi_padded = inverse_dst(modes, padded, g.as_full_array())
    phi_padded.assert_finite()
    t5 = time.perf_counter()

    if padded != user_grid:
        phi_padded = restrict_to_subgrid(phi_padded, user_grid)
    report = SolveReport(
        user_grid=user_grid,
        padded_grid=padded,
        order=config.order,
        thread_count=config.thread_count,
        boundary_rho_max=rho_padded.boundary_abs_max(),
        t_phistar_s=t4 - t3,
        t_boundary_s=t2 - t1,
        t_harmonic_s=(t3 - t2) + (t5 - t4),
    )
    report.t_sample_s = (t1 - t0) + (time.perf_counter() - t5)
    return phi_padded, report


def domain_invariance_study(
    rho_callable,
    base_grid: UniformGrid,
    D_values,
    config: SolverConfig = SolverConfig(),
) -> list[tuple[float, float]]:
    """Solve on [-D, D]^d for each D and compare on the base domain.

    The base grid must cover [-1, 1]^d; every D must be a whole number of
    mesh widths beyond 1 so the extended nodes align with the base nodes.
    Returns (D, max difference on the base domain / max |base solution|)
    rows.
    """
    dim = base_grid.dim
    for s in range(dim):
        if abs(base_grid.lower[s] + 1.0) > 1e-12 or abs(base_grid.upper[s] - 1.0) > 1e-12:
            raise AlignmentError("domain study requires the base domain [-1, 1]^d")
    phi_base, _ = solve_free_space(rho_callable, base_grid, config)
    norm = float(np.max(np.abs(phi_base.values)))
    rows = []
    for D in D_values:
        D = float(D)
        panels = []
        for s in range(dim):
            h = base_grid.mesh[s]
            extra = (D - 1.0) / h
            if abs(extra - round(extra)) > 1e-9 or D < 1.0:
                raise AlignmentError(
                    f"domain size D={D} is not a whole number of mesh widths "
                    f"beyond the base domain (h={h})"
                )
            panels.append(base_grid.panels[s] + 2 * int(round(extra)))
        ext_grid = UniformGrid([-D] * dim, [D] * dim, panels)
        phi_ext, _ = solve_free_space(rho_callable, ext_grid, config)
        on_base = restrict_to_subgrid(phi_ext, base_grid)
        diff = max_norm_difference(on_base, phi_base)
        rows.append((D, diff / norm if norm > 0.0 else 0.0))
    return rows
