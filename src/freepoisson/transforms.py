"""Discrete sine transforms over interior nodes.

The forward transform produces sine-series coefficients normalized so that

    coeff[k-1] = (2 / L_s) * h_s * sum_i f_i sin(k pi i / M_s)

per axis, which makes the inverse a plain series summation at the nodes.  Both
directions are realized with scipy's FFT-backed DST-I; the contract is the
mathematical definition above, not the backend.

The forward transform skips the lines that hold only zeros, and works in
place in one array.  ``dstn`` transforms axis 0, then 1, ..., d-1, one 1D
DST-I per line; ``forward_dst`` keeps that order.  Before axis a is
transformed, every later axis is restricted to the support box (the
bounding box of the nonzero values), while the earlier axes, already
transformed, stay full; along axis a itself the lines hold zeros outside
the box.  A line that leaves the box holds only zeros in ``dstn``'s
intermediate arrays too, and its transform is exactly zero; every other
line is the same data through the same 1D transform.  So the coefficients
are bitwise equal to ``dstn``'s, which ``tests/test_transforms.py``
checks, and a NaN or inf, being nonzero, is never skipped.  The box comes
from one scan of the nonzero lines (``_support_lines``), which the
free-space solver also hands to the boundary phase.  The inverse
transform is dense and also runs in place.
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
    bitwise equal to ``dstn(f.interior(), type=1)`` scaled.  ``f`` is left
    unchanged.
    """
    coeff = np.array(f.interior())
    _dst_support_in_place(coeff, _support_box(_support_lines(coeff)))
    coeff *= 1.0 / np.prod([float(m) for m in f.grid.panels])
    return coeff


def _dst_in_place(x: np.ndarray, axis: int) -> None:
    """DST-I of ``x`` along ``axis``, written into ``x``, which may be a strided view.

    ``scipy.fft`` transforms aligned float64 data in place when it may
    overwrite it; the check makes sure ``x`` really holds the result.
    """
    if sfft.dst(x, type=1, axis=axis, overwrite_x=True).ctypes.data != x.ctypes.data:
        raise RuntimeError("scipy.fft.dst did not transform its input in place")


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


def _dst_support_in_place(x: np.ndarray, box: tuple[slice, ...]) -> np.ndarray:
    """Unscaled DST-I of ``x`` along every axis, in place, on the support box's lines.

    The forward transform of the module docstring: bitwise ``dstn(x,
    type=1)``, without another array of ``x``'s size.  ``box`` is
    :func:`_support_box` of ``x``.  Returns ``x``.
    """
    if not x[box].size:
        return x  # all zeros, as is their transform
    for a in range(x.ndim):  # dstn's axis order; the rest of axis a holds zeros
        _dst_in_place(x[(slice(None),) * (a + 1) + box[a + 1:]], a)
    return x


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
    out = np.zeros(grid.shape) if out is None else out
    out[(slice(1, -1),) * grid.dim] = coeff
    return _series_in_place(out, grid)


def _series_in_place(values: np.ndarray, grid: UniformGrid) -> GridFunction:
    """:func:`inverse_dst` of the coefficients held in the node array's interior, in place.

    The interior of ``values`` becomes the series at the interior nodes;
    its boundary nodes are not touched.
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
