"""Discrete sine transforms over interior nodes and fast zero-padded convolution.

The forward transform produces sine-series coefficients normalized so that

    coeff[k-1] = (2 / L_s) * h_s * sum_i f_i sin(k pi i / M_s)

per axis, which makes the inverse a plain series summation at the nodes.  Both
directions are realized with scipy's FFT-backed DST-I; the contract is the
mathematical definition above, not the backend.

Convolutions are linear (zero padded, never circularly aliased) and padded to
7-smooth lengths so the FFTs stay fast for any requested size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as sfft

from .errors import ShapeError
from .grid import GridFunction, UniformGrid

__all__ = [
    "InteriorModeArray",
    "forward_dst",
    "inverse_dst",
    "fast_linear_convolution",
    "fast_linear_convolution_2d",
    "next_smooth_length",
]


@dataclass
class InteriorModeArray:
    """Sine-series coefficients over interior modes k_s = 1 .. panels[s]-1."""

    grid: UniformGrid
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.ascontiguousarray(self.coefficients, dtype=np.float64)
        if self.coefficients.shape != self.grid.interior_shape:
            raise ShapeError(
                f"coefficient shape {self.coefficients.shape} does not match "
                f"interior extents {self.grid.interior_shape}"
            )


def forward_dst(f: GridFunction) -> InteriorModeArray:
    """Sine-series coefficients of a grid function (interior values only)."""
    grid = f.grid
    interior = f.interior()
    coeff = sfft.dstn(interior, type=1)
    coeff *= 1.0 / np.prod([float(m) for m in grid.panels])
    return InteriorModeArray(grid, coeff)


def inverse_dst(c: InteriorModeArray, out: np.ndarray | None = None) -> GridFunction:
    """Evaluate a sine series at all grid nodes.

    Boundary nodes are exactly 0, unless a node array ``out`` is given: the
    series is then written into its interior and its boundary nodes keep
    their values, so the result carries Dirichlet data without another full
    array.
    """
    grid = c.grid
    values = np.zeros(grid.shape) if out is None else out
    series = sfft.dstn(c.coefficients, type=1)
    series /= 2.0**grid.dim
    values[(slice(1, -1),) * grid.dim] = series
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


def _check_window(start: int, stop: int, full: int) -> None:
    if not (0 <= start <= stop <= full):
        raise ShapeError(
            f"wanted offsets [{start}, {stop}) outside full convolution "
            f"range [0, {full})"
        )


def fast_linear_convolution(
    kernel: np.ndarray, data: np.ndarray, wanted_offsets
) -> np.ndarray:
    """Zero-padded FFT convolution of a 1D kernel with 1D data.

    Returns ``full[n] = sum_q kernel[n - q] * data[q]`` for n in the half-open
    window ``wanted_offsets = (start, stop)`` of the full convolution range
    ``[0, len(kernel) + len(data) - 1)``.  The kernel must be at least as long
    as the data.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    data = np.asarray(data, dtype=np.float64)
    if kernel.ndim != 1 or data.ndim != 1:
        raise ShapeError("kernel and data must be one-dimensional")
    if kernel.size < data.size:
        raise ShapeError(
            f"kernel length {kernel.size} shorter than data length {data.size}"
        )
    start, stop = (int(v) for v in wanted_offsets)
    full = kernel.size + data.size - 1
    _check_window(start, stop, full)
    pad = next_smooth_length(full)
    out = sfft.irfft(sfft.rfft(kernel, pad) * sfft.rfft(data, pad), pad)
    return out[start:stop].copy()


def fast_linear_convolution_2d(
    kernel: np.ndarray, data: np.ndarray, wanted_offsets
) -> np.ndarray:
    """2D analog of :func:`fast_linear_convolution`.

    ``wanted_offsets`` is a pair of (start, stop) windows, one per axis.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    data = np.asarray(data, dtype=np.float64)
    if kernel.ndim != 2 or data.ndim != 2:
        raise ShapeError("kernel and data must be two-dimensional")
    if any(k < d for k, d in zip(kernel.shape, data.shape)):
        raise ShapeError(
            f"kernel extents {kernel.shape} must cover data extents {data.shape}"
        )
    windows = [(int(a), int(b)) for a, b in wanted_offsets]
    full = tuple(k + d - 1 for k, d in zip(kernel.shape, data.shape))
    for (start, stop), n in zip(windows, full):
        _check_window(start, stop, n)
    pad = tuple(next_smooth_length(n) for n in full)
    out = sfft.irfftn(
        sfft.rfftn(kernel, pad) * sfft.rfftn(data, pad), pad
    )
    (s0, e0), (s1, e1) = windows
    return out[s0:e0, s1:e1].copy()
