"""End-to-end free-space Poisson solve on a uniform rectangular grid.

The infinite-domain solution restricted to the box is assembled from two
finite-domain solves: the homogeneous-Dirichlet spectral solve of the density
plus a discrete-harmonic extension of the Green's-function boundary values.
Both are diagonal in the same discrete sine basis, in 1D, 2D and 3D alike,
so the whole solve runs in one node array: the density's interior becomes
their shared coefficients, which one inverse DST evaluates in place, and
its boundary nodes take the boundary values.  The density
must keep a zero collar near the boundary; the collar is realized by
padding the user grid outward by whole panels (preserving the mesh), with
optional rounding of panel counts up to 7-smooth integers for fast FFTs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .boundary import boundary_values_fast
from .dirichlet import _phi_star_in_place, check_support
from .errors import ShapeError, check_count
from .grid import GridFunction, UniformGrid, restrict_to_subgrid
from .harmonic import check_panels, harmonic_modes
from .transforms import _series_in_place, next_smooth_length

__all__ = ["SolverConfig", "SolveReport", "pad_domain", "solve_free_space"]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the free-space solve.

    order: accuracy of the harmonic correction, 4 or 6 (moot in 1D, where
        both give the exact, linear harmonic part: the 6th order correction
        is identically zero there).
    padding_panels: zero-collar width added on every side of the user domain,
        in whole panels, so the mesh is preserved exactly.
    fft_friendly_expansion: round padded panel counts up to 7-smooth integers,
        splitting the extra panels as evenly as possible between the sides.
    thread_count: ``workers`` count of the boundary phase's FFT calls
        (``transforms.sfft``); the result is bitwise identical for any value.
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

    boundary_rho_max: max |rho| on the padded grid's boundary nodes, from
        the density's one support check.
    t_sample_s: sampling or embedding the density, the final restriction
        and the rest of the bookkeeping.
    t_phistar_s: the spectral component's sine coefficients.
    t_boundary_s: the density's one support check and the Green's-function
        boundary values.
    t_harmonic_s: the harmonic extension's sine coefficients plus the one
        inverse DST shared with the spectral component.
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
    ``rho(x[, y[, z]])`` (pointwise and broadcasting; it may be called once
    per block of node rows) sampled on the padded grid directly.
    Returns the potential restricted to the user grid plus a phase report.
    The density's support must stay inside the padded domain's zero collar.

    The solve owns one node array and carries it to the result: the
    sampled density, the padded embedding, or a copy of an unpadded
    GridFunction's values, made after the boundary phase has read them
    (the caller's array is never written).  The density's one support
    check (``dirichlet.check_support``) scans it for the lines that hold
    its nonzero values; its record of those lines, their bounding box and
    the boundary maximum is all that later phases read of the support.
    The boundary phase reads the density and those lines, and the forward
    DST, on their box, turns the array's interior, in place, into the
    spectral coefficients, to which the harmonic extension's are added in
    blocked sweeps; the inverse DST turns them, in place, into the
    potential, and the boundary values are written into its boundary
    nodes.  A padded grid's result is then restricted by copy.  Besides
    that array, what is alive is one-byte masks, blocks of axis-0 rows
    (``grid._row_blocks``) and O(face) arrays: blocks of a callable's
    samples, then the scan's mask; in the boundary phase, one group of
    kernel spectra, the face accumulators of one class of axes, one
    slice's spectrum and the finished faces; one block of the eigenvalues
    in the forward DST; the sweeps' blocks and the face arrays in the
    harmonic phase; and the finiteness check's mask after the inverse DST
    (the boundary values are released once written).  The ``solve`` command
    keeps one node array from file to file: it reads the density into an
    array that an unpadded solve takes over (a padded one releases it once
    embedded), and writes the potential from the solve's array.
    """
    return _solve(rho, user_grid, config, owned=False)


def _solve(rho, user_grid: UniformGrid | None, config: SolverConfig, owned: bool):
    """``solve_free_space``, which with ``owned`` takes an unpadded
    GridFunction's values as its node array and writes them in place."""
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
    if not isinstance(rho, GridFunction):
        rho_padded = GridFunction.from_callable(padded, rho)
    elif padded != user_grid:
        rho_padded = _embed_samples(rho, padded, counts)
    else:
        rho_padded = rho  # read by the boundary phase, then copied unless owned
    copy = rho_padded is rho and not owned
    del rho  # an owned density that was embedded is released here

    t1 = time.perf_counter()
    support = check_support(rho_padded)  # the one check and scan of the density
    g = boundary_values_fast(rho_padded, config.thread_count, support=support)
    t2 = time.perf_counter()
    # From here on the solve's node array turns into the potential.
    values = rho_padded.values.copy() if copy else rho_padded.values
    modes = _phi_star_in_place(values[(slice(1, -1),) * padded.dim], padded, support.box)
    t3 = time.perf_counter()
    harmonic_modes(g, config.order, modes)
    g.write_into(values)
    del g  # the node array holds the boundary values now
    phi_padded = _series_in_place(values, padded)
    phi_padded.assert_finite()
    t4 = time.perf_counter()

    if padded != user_grid:
        phi_padded = restrict_to_subgrid(phi_padded, user_grid)
    report = SolveReport(
        user_grid=user_grid,
        padded_grid=padded,
        order=config.order,
        thread_count=config.thread_count,
        boundary_rho_max=support.boundary_max,
        t_phistar_s=t3 - t2,
        t_boundary_s=t2 - t1,
        t_harmonic_s=t4 - t3,
    )
    report.t_sample_s = (t1 - t0) + (time.perf_counter() - t4)
    return phi_padded, report

