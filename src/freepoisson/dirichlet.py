"""Spectrally accurate Poisson solve with homogeneous Dirichlet data on the box.

The density is expanded in the discrete sine basis and each mode is divided by
the continuous Laplacian eigenvalue

    lambda(k) = -sum_s k_s^2 pi^2 / (upper_s - lower_s)^2 .

Using the continuous eigenvalues (not the difference-stencil ones, which
belong to the harmonic solver) is what makes this component spectrally
accurate: the result solves Poisson's equation exactly for the sine
interpolant of the density.  :func:`phi_star_modes` returns the result as
sine coefficients, which the free-space solver adds to the harmonic
extension's before one shared inverse DST.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError, SupportViolationError
from .grid import GridFunction, UniformGrid
from .harmonic import _row_blocks
from .transforms import _dst_support_in_place, _support_box, _support_lines

__all__ = ["continuous_eigenvalues", "phi_star_modes"]

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


def check_support(rho: GridFunction) -> float:
    """Verify the density is finite and vanishes on the grid boundary.

    Returns max boundary |rho|.  Raises ShapeError when any value is NaN or
    infinite, and SupportViolationError when the boundary maximum exceeds
    ``SUPPORT_RTOL * max |rho|``.
    """
    lo, hi = float(np.min(rho.values)), float(np.max(rho.values))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        bad = np.argwhere(~np.isfinite(rho.values))
        raise ShapeError(
            f"density contains {len(bad)} non-finite value(s) (NaN or inf), "
            f"the first at node {tuple(int(i) for i in bad[0])}; "
            f"the solver needs finite samples"
        )
    boundary_max = rho.boundary_abs_max()
    scale = max(hi, -lo)
    if boundary_max > SUPPORT_RTOL * scale:
        raise SupportViolationError(
            f"density is nonzero on the boundary (max {boundary_max:.3e}, "
            f"max |rho| {scale:.3e}); enlarge the domain or add padding"
        )
    return boundary_max


def phi_star_modes(rho: GridFunction) -> np.ndarray:
    """Sine coefficients of phi*: the density's, divided by the eigenvalues.

    The density is not checked here; callers run :func:`check_support`.
    ``rho`` is left unchanged.
    """
    x = np.array(rho.interior())
    return _phi_star_in_place(x, rho.grid, _support_box(_support_lines(x)))


def _phi_star_in_place(x: np.ndarray, grid: UniformGrid, box: tuple[slice, ...]) -> np.ndarray:
    """:func:`phi_star_modes` of the density's interior values ``x``, in place.

    ``x`` may be the interior view of the density's node array, and ``box``
    is its support box (``transforms._support_box``).  The forward DST runs
    in place; its scaling and the division by the eigenvalues run in blocks
    of axis-0 rows, so no other full-volume array is built.  Returns ``x``.
    """
    _dst_support_in_place(x, box)
    scale = 1.0 / np.prod([float(m) for m in grid.panels])
    eigenvalues = continuous_eigenvalues(grid)
    for rows in _row_blocks(x.shape):
        block = x[rows]
        block *= scale
        block /= eigenvalues(rows)
    return x
