"""Discrete sine transforms over interior nodes.

The forward transform produces sine-series coefficients normalized so that

    coeff[k-1] = (2 / L_s) * h_s * sum_i f_i sin(k pi i / M_s)

per axis, which makes the inverse a plain series summation at the nodes.  Both
directions are realized with scipy's FFT-backed DST-I; the contract is the
mathematical definition above, not the backend.

The forward transform skips the lines that hold only zeros.  ``dstn``
transforms axis 0, then 1, ..., d-1, one 1D DST-I per line; ``forward_dst``
keeps that order.  Before axis a is transformed, every later axis is
restricted to the support box (the bounding box of the nonzero values),
while the earlier axes, already transformed, stay full; axis a itself is
widened to full length with zeros.  A line that leaves the box holds only
zeros in ``dstn``'s intermediate arrays too, and its transform is exactly
zero; every other line is the same data through the same 1D transform.  So
the coefficients are bitwise equal to ``dstn``'s, which
``tests/test_transforms.py`` checks, and a NaN or inf, being nonzero, is
never skipped.  The inverse transform is dense.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.fft as sfft

from .errors import ShapeError
from .grid import GridFunction, UniformGrid

__all__ = ["forward_dst", "inverse_dst", "next_smooth_length"]


def forward_dst(f: GridFunction) -> np.ndarray:
    """Sine-series coefficients of a grid function (interior values only).

    An array of shape ``f.grid.interior_shape`` over the interior modes
    k_s = 1 .. panels[s]-1.  Only lines that cross the support box of the
    values are transformed (see the module docstring); the result is
    bitwise equal to ``dstn(f.interior(), type=1)`` scaled.
    """
    values = f.interior()
    nonzero = values != 0  # NaN and inf count as nonzero
    box = [slice(None)] * values.ndim
    for a in range(values.ndim):  # each reduction runs inside the box found so far
        line = np.flatnonzero(nonzero[tuple(box)].any(
            axis=tuple(t for t in range(values.ndim) if t != a)))
        box[a] = slice(line[0], line[-1] + 1) if line.size else slice(0, 0)
    coeff = values[tuple(box)]
    for a, n in enumerate(values.shape):  # dstn's axis order
        full = np.zeros(coeff.shape[:a] + (n,) + coeff.shape[a + 1:])
        full[(slice(None),) * a + (box[a],)] = coeff
        coeff = sfft.dst(full, type=1, axis=a, overwrite_x=True)
    coeff *= 1.0 / np.prod([float(m) for m in f.grid.panels])
    return coeff


def inverse_dst(
    coeff: np.ndarray, grid: UniformGrid, out: np.ndarray | None = None
) -> GridFunction:
    """Evaluate the sine series with coefficients ``coeff`` at all grid nodes.

    Boundary nodes are exactly 0, unless a node array ``out`` is given: the
    series is then written into its interior and its boundary nodes keep
    their values, so the result carries Dirichlet data without another full
    array.  ``coeff`` is left unchanged.
    """
    if coeff.shape != grid.interior_shape:
        raise ShapeError(
            f"coefficient shape {coeff.shape} does not match interior "
            f"extents {grid.interior_shape}"
        )
    return _series_into(coeff.copy(), grid, np.zeros(grid.shape) if out is None else out)


def _series_into(coeff: np.ndarray, grid: UniformGrid, out: np.ndarray) -> GridFunction:
    """:func:`inverse_dst` that transforms ``coeff`` in place, which destroys it.

    Only the interior nodes of ``out`` are written, so its interior need
    not be initialized.
    """
    series = sfft.dstn(coeff, type=1, overwrite_x=True)
    np.divide(series, 2.0**grid.dim, out=out[(slice(1, -1),) * grid.dim])
    return GridFunction(grid, out)


@lru_cache(maxsize=None)
def next_smooth_length(n: int) -> int:
    """Smallest integer >= n whose prime factors are all <= 7."""
    if n <= 1:
        return 1
    m = n
    while True:
        k = m
        for p in (2, 3, 5, 7):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1
