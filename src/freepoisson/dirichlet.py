"""Spectrally accurate Poisson solve with homogeneous Dirichlet data on the box.

The density is expanded in the discrete sine basis and each mode is divided by
the continuous Laplacian eigenvalue

    lambda(k) = -sum_s k_s^2 pi^2 / (upper_s - lower_s)^2 .

Using the continuous eigenvalues (not the difference-stencil ones, which
belong to the harmonic solver) is what makes this component spectrally
accurate: the result solves Poisson's equation exactly for the sine
interpolant of the density.  :func:`_phi_star_in_place` returns the result
as sine coefficients, which the free-space solver adds to the harmonic
extension's before one shared inverse DST.

:func:`check_support` is the one place that decides the density's
support; ``solver.solve_free_space`` states which phases read its record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SupportViolationError
from .grid import GridFunction, UniformGrid, _row_blocks
from .transforms import _dst_support_in_place

__all__ = ["continuous_eigenvalues"]

SUPPORT_RTOL = 1e-14


def continuous_eigenvalues(grid: UniformGrid):
    """Continuous Laplacian eigenvalue per interior sine mode (all negative), block by block.

    Returns ``table(rows)``, the eigenvalues on the modes ``rows`` of axis
    0: one outer difference of axis 0's table and the trailing axes' sum,
    built once, so each block is one pass along whole trailing planes and
    the full table is never built.
    """
    squares = [
        (np.arange(1, m) * math.pi / (grid.upper[s] - grid.lower[s])) ** 2
        for s, m in enumerate(grid.panels)
    ]
    trail = sum(np.ix_(*squares[1:]), 0.0)
    return lambda rows: np.subtract.outer(-squares[0][rows], trail)


@dataclass(frozen=True)
class _Support:
    """Where a checked density is nonzero, from :func:`check_support`.

    boundary_max: max |rho| over the boundary nodes.
    lines: per axis, the indices into the interior of the lines that hold
        a nonzero value (:func:`_support_lines`).
    box: their bounding box in the interior (:func:`_support_box`).
    """

    boundary_max: float
    lines: tuple[np.ndarray, ...]
    box: tuple[slice, ...]


def check_support(rho: GridFunction) -> _Support:
    """Verify the density is finite and vanishes on the grid boundary; return its support.

    One scan of the interior finds its nonzero lines and their box.  Every
    nonzero interior value, NaN and inf included, lies in the box, so the
    extremes over the box and the boundary maximum are those of the whole
    array.  Raises ShapeError when any value is NaN or infinite, and
    SupportViolationError when the boundary maximum exceeds
    ``SUPPORT_RTOL * max |rho|``.
    """
    interior = rho.interior()
    lines = _support_lines(interior)
    box = _support_box(lines)
    inside = interior[box]
    lo, hi = (float(np.min(inside)), float(np.max(inside))) if inside.size else (0.0, 0.0)
    boundary_max = rho.boundary_abs_max()
    if not all(map(math.isfinite, (lo, hi, boundary_max))):
        bad = np.argwhere(~np.isfinite(rho.values))
        raise ShapeError(
            f"density contains {len(bad)} non-finite value(s) (NaN or inf), "
            f"the first at node {tuple(int(i) for i in bad[0])}; "
            f"the solver needs finite samples"
        )
    scale = max(hi, -lo, boundary_max)
    if boundary_max > SUPPORT_RTOL * scale:
        raise SupportViolationError(
            f"density is nonzero on the boundary (max {boundary_max:.3e}, "
            f"max |rho| {scale:.3e}); enlarge the domain or add padding"
        )
    return _Support(boundary_max, tuple(lines), box)


def _support_lines(x: np.ndarray) -> list[np.ndarray]:
    """Indices, along each axis of ``x``, of the lines that hold a nonzero value.

    Line i of axis a is ``x[(slice(None),) * a + (i,)]``; NaN and inf count
    as nonzero.  One scan of ``x``: each axis's reduction runs inside the
    bounding box of the axes before it, which holds every nonzero value.
    Every axis's indices are empty when ``x`` is all zeros.
    """
    nonzero = x != 0
    box, lines = [slice(None)] * x.ndim, []
    for a in range(x.ndim):
        line = np.flatnonzero(nonzero[tuple(box)].any(
            axis=tuple(t for t in range(x.ndim) if t != a)))
        if not line.size:
            return [line] * x.ndim
        lines.append(line)
        box[a] = slice(line[0], line[-1] + 1)
    return lines


def _support_box(lines) -> tuple[slice, ...]:
    """Bounding box of the nonzero values from their :func:`_support_lines`; empty slices if none."""
    return tuple(slice(line[0], line[-1] + 1) if line.size else slice(0) for line in lines)


def _phi_star_in_place(x: np.ndarray, grid: UniformGrid, box: tuple[slice, ...]) -> np.ndarray:
    """Sine coefficients of phi* from the density's interior values ``x``, in place.

    The density's, divided by the eigenvalues.  ``x`` may be the interior
    view of the density's node array, and ``box`` is its support box
    (:class:`_Support`).  The forward DST runs in place; its scaling and the
    division by the eigenvalues run in blocks of axis-0 rows, so no other
    full-volume array is built.  Returns ``x``.
    """
    _dst_support_in_place(x, box)
    scale = 1.0 / np.prod([float(m) for m in grid.panels])
    eigenvalues = continuous_eigenvalues(grid)
    for rows in _row_blocks(x.shape):
        block = x[rows]
        block *= scale
        block /= eigenvalues(rows)
    return x
