"""Discrete sine transforms over interior nodes.

Sine-series coefficients are normalized so that

    coeff[k-1] = (2 / L_s) * h_s * sum_i f_i sin(k pi i / M_s)

per axis, which makes the inverse a plain series summation at the nodes.  Both
directions are realized with scipy's FFT-backed DST-I; the contract is the
mathematical definition above, not the backend.  The forward transform is
the unscaled DST-I, whose factor 1 / prod_s M_s the spectral solve applies
per block (``dirichlet._phi_star_in_place``).

The forward transform skips the lines that hold only zeros, and works in
place in one array.  ``dstn`` transforms axis 0, then 1, ..., d-1, one 1D
DST-I per line; :func:`_dst_support_in_place` keeps that order.  Before
axis a is transformed, every later axis is restricted to the support box
(the bounding box of the nonzero values), while the earlier axes, already
transformed, stay full; along axis a itself the lines hold zeros outside
the box.  A line that leaves the box holds only zeros in ``dstn``'s
intermediate arrays too, and its transform is exactly zero; every other
line is the same data through the same 1D transform.  So the coefficients
are bitwise equal to ``dstn``'s, which ``tests/test_transforms.py``
checks, and a NaN or inf, being nonzero, is never skipped.  The box comes
from the density's support record (``dirichlet.check_support``).  The
inverse transform is dense and also runs in place.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.fft as sfft

from .grid import GridFunction, UniformGrid

__all__ = ["next_smooth_length"]


def _dst_in_place(x: np.ndarray, axis: int) -> None:
    """DST-I of ``x`` along ``axis``, written into ``x``, which may be a strided view.

    ``scipy.fft`` transforms aligned float64 data in place when it may
    overwrite it; the check makes sure ``x`` really holds the result.
    """
    if sfft.dst(x, type=1, axis=axis, overwrite_x=True).ctypes.data != x.ctypes.data:
        raise RuntimeError("scipy.fft.dst did not transform its input in place")


def _dst_support_in_place(x: np.ndarray, box: tuple[slice, ...]) -> np.ndarray:
    """Unscaled DST-I of ``x`` along every axis, in place, on the support box's lines.

    The forward transform of the module docstring: bitwise ``dstn(x,
    type=1)``, without another array of ``x``'s size.  ``box`` is the
    bounding box of ``x``'s nonzero values (``dirichlet._support_box``).
    Returns ``x``.
    """
    if not x[box].size:
        return x  # all zeros, as is their transform
    for a in range(x.ndim):  # dstn's axis order; the rest of axis a holds zeros
        _dst_in_place(x[(slice(None),) * (a + 1) + box[a + 1:]], a)
    return x


def _series_in_place(values: np.ndarray, grid: UniformGrid) -> GridFunction:
    """Evaluate the sine series whose coefficients the node array's interior holds, in place.

    The interior of ``values`` becomes the series at the interior nodes;
    its boundary nodes are not touched, so they may carry Dirichlet data.
    """
    interior = values[(slice(1, -1),) * grid.dim]
    for a in range(grid.dim):
        _dst_in_place(interior, a)
    interior /= 2.0**grid.dim
    return GridFunction(grid, values)


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
