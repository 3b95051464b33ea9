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

import math
import time
from dataclasses import dataclass

import numpy as np

from .boundary import boundary_values_fast
from .dirichlet import _phi_star_in_place, check_support
from .errors import ShapeError, check_count
from .grid import GridFunction, UniformGrid
from .harmonic import _harmonic_scatters, _harmonic_sweeps, check_panels
from .transforms import _dst_support_in_place, next_smooth_length

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
    face_mismatch: the boundary values' worst relative disagreement on the
        nodes that faces share (``BoundaryValues.check_consistency``);
        roundoff, 0.0 in 1D and for a zero density.
    t_sample_s: sampling or embedding the density, the final compaction
        and the rest of the bookkeeping.
    t_phistar_s: the spectral component's sine coefficients.
    t_boundary_s: the density's one support check, the Green's-function
        boundary values and their face check.
    t_harmonic_s: the harmonic extension's sine coefficients plus the one
        inverse DST shared with the spectral component.
    """

    user_grid: UniformGrid
    padded_grid: UniformGrid
    order: int
    thread_count: int
    boundary_rho_max: float = 0.0
    face_mismatch: float = 0.0
    t_sample_s: float = 0.0
    t_phistar_s: float = 0.0
    t_boundary_s: float = 0.0
    t_harmonic_s: float = 0.0

    @property
    def t_total_s(self) -> float:
        """Wall time of the whole solve: the sum of the four phases."""
        return self.t_sample_s + self.t_phistar_s + self.t_boundary_s + self.t_harmonic_s


def _padded(grid: UniformGrid, config: SolverConfig) -> tuple[UniformGrid, tuple]:
    """The grid extended by the configured zero collar, same mesh, and the
    slices of its nodes that are ``grid``'s nodes."""
    lower, upper, panels, box = [], [], [], []
    for a, b, m, h in zip(grid.lower, grid.upper, grid.panels, grid.mesh):
        low = high = config.padding_panels
        if config.fft_friendly_expansion:
            extra = next_smooth_length(m + low + high) - (m + low + high)
            low += extra // 2
            high += extra - extra // 2
        lower.append(a - low * h)
        upper.append(b + high * h)
        panels.append(m + low + high)
        box.append(slice(low, low + m + 1))
    return UniformGrid(lower, upper, panels), tuple(box)


def pad_domain(grid: UniformGrid, config: SolverConfig) -> UniformGrid:
    """Extend the grid outward by the configured zero collar, same mesh."""
    return _padded(grid, config)[0]


def _embed_samples(rho: GridFunction, padded: UniformGrid, box: tuple) -> GridFunction:
    values = np.zeros(padded.shape)
    values[box] = rho.values
    return GridFunction(padded, values)


def _compact_in_place(values: np.ndarray, box: tuple) -> np.ndarray:
    """Move ``values[box]`` to the front of the C-ordered ``values``' buffer; returns that front.

    The result is a contiguous array of the box's shape that views the
    buffer.  In 2D and 3D the nodes move one axis-0 plane at a time, in
    order: a destination plane ends before the next source plane begins,
    and numpy buffers a plane that overlaps its own source.  A 1D box moves
    in one assignment, which numpy buffers likewise.
    """
    shape = tuple(s.stop - s.start for s in box)
    front = values.reshape(-1)[:math.prod(shape)].reshape(shape)
    if values.ndim == 1:
        front[:] = values[box]
        return front
    for i, plane in enumerate(range(box[0].start, box[0].stop)):
        front[i] = values[(plane,) + box[1:]]
    return front


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
    spectral coefficients.  The harmonic phase builds its face scatters
    from the boundary values, which are then written into the array's
    boundary nodes and released, and adds the harmonic extension's
    coefficients in blocked sweeps; the inverse DST, the forward one's
    DST-I on the whole interior (``transforms``), turns them, in place,
    into the potential.  A padded grid's user nodes are then moved, one
    axis-0 plane at a time (a 1D box in one move), to the front of the
    array, and the result views that front: it keeps the padded buffer
    alive, 1.41 times the user array at 55^3 padded nodes for 49^3 user
    nodes and 1.21 times at 129^3 for 121^3.  Besides that array, what is
    alive is one-byte masks, blocks of axis-0 rows (``grid._row_blocks``)
    and O(face) arrays: blocks of a callable's samples, then the scan's
    mask; in the boundary phase, one group of kernel spectra (at most a
    twelfth of the node array, or one pair of distances), the face
    accumulators of one class of axes, one slice's spectrum and the
    finished faces; one block of the eigenvalues in the forward DST; the
    faces and their scatters, then in the sweeps one block at a time with
    the scatters and the contractions, then the depth-1 change's face
    arrays and scatters; the finiteness check's mask, one block at a time,
    after the inverse DST; and one plane of the compaction (in 1D, a copy
    of the user nodes).  The ``solve`` command keeps one node
    array from file to file: it reads the density into an array that an
    unpadded solve takes over (a padded one releases it once embedded, so
    the embedding holds two), and writes the potential from the solve's
    array.
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

    padded, box = _padded(user_grid, config)
    check_panels(padded, config.order)
    if not isinstance(rho, GridFunction):
        rho_padded = GridFunction.from_callable(padded, rho)
    elif padded != user_grid:
        rho_padded = _embed_samples(rho, padded, box)
    else:
        rho_padded = rho  # read by the boundary phase, then copied unless owned
    copy = rho_padded is rho and not owned
    del rho  # an owned density that was embedded is released here

    t1 = time.perf_counter()
    support = check_support(rho_padded)  # the one check and scan of the density
    g = boundary_values_fast(rho_padded, config.thread_count, support=support)
    face_mismatch = g.check_consistency(rtol=math.inf)
    t2 = time.perf_counter()
    # From here on the solve's node array turns into the potential.
    values = rho_padded.values.copy() if copy else rho_padded.values
    modes = _phi_star_in_place(values[(slice(1, -1),) * padded.dim], padded, support.box)
    t3 = time.perf_counter()
    scatters = _harmonic_scatters(g, config.order)
    g.write_into(values)  # the boundary nodes, which ``modes`` does not overlap
    del g  # the node array holds the boundary values now
    _harmonic_sweeps(padded, scatters, modes)  # empties ``scatters``
    _dst_support_in_place(modes, (slice(None),) * padded.dim)  # the inverse DST
    phi = GridFunction(padded, values).assert_finite()
    t4 = time.perf_counter()

    if padded != user_grid:
        phi = GridFunction(user_grid, _compact_in_place(values, box))
    report = SolveReport(
        user_grid=user_grid,
        padded_grid=padded,
        order=config.order,
        thread_count=config.thread_count,
        boundary_rho_max=support.boundary_max,
        face_mismatch=face_mismatch,
        t_phistar_s=t3 - t2,
        t_boundary_s=t2 - t1,
        t_harmonic_s=t4 - t3,
    )
    report.t_sample_s = (t1 - t0) + (time.perf_counter() - t4)
    return phi, report
