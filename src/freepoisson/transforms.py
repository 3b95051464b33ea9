"""Discrete sine transforms over interior nodes, and the solver's one FFT binding.

Sine-series coefficients are normalized so that

    coeff[k-1] = (2 / L_s) * h_s * sum_i f_i sin(k pi i / M_s)

per axis, which makes the inverse a plain series summation at the nodes.  Both
directions are realized with pocketfft's DST-I; the contract is the
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

``sfft`` is the one namespace through which the package transforms:
``rfftn``, ``fftn``, ``irfftn``, ``dctn`` and ``dstn``, with
``scipy.fft``'s argument names and results.  It binds scipy's compiled
pocketfft extension (``scipy/fft/_pocketfft/pypocketfft*.so``) by file
path, without importing scipy: ``import scipy.fft`` also imports
``scipy.special`` and scipy's array-API layer, which costs a fresh process
about 0.2 s.  The wrappers do what scipy's own ``_pocketfft`` wrappers do
for the float64 and complex128 arrays the solver passes (crop or zero-pad,
the same ``inorm``, ``out`` and ``nthreads``; pocketfft takes negative
axes and ``range`` objects itself), so the results are bitwise
``scipy.fft``'s.  If the extension is missing, or fails
to load or to pass a round trip of every form, ``sfft`` is ``scipy.fft``
itself.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .grid import GridFunction, UniformGrid

__all__ = ["next_smooth_length"]


def _pocketfft_path() -> str:
    """Path of scipy's compiled pocketfft extension, found without importing scipy."""
    folder = os.path.join(os.path.dirname(importlib.util.find_spec("scipy").origin),
                          "fft", "_pocketfft")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "pypocketfft" + suffix)
        if os.path.isfile(path):
            return path
    raise ImportError(f"no pypocketfft extension in {folder}")


def _fix_shape(x: np.ndarray, shape, axes) -> tuple[np.ndarray, bool]:
    """``x`` cropped or zero-padded to ``shape`` along ``axes``, and whether it was copied.

    scipy's ``_pocketfft.helper._fix_shape``: a view when no axis grows.
    """
    index, padded, grows = [slice(None)] * x.ndim, list(x.shape), False
    for n, a in zip(shape, axes):
        index[a], padded[a] = slice(0, min(n, x.shape[a])), n
        grows = grows or n > x.shape[a]
    index = tuple(index)
    if not grows:
        return x[index], False
    z = np.zeros(padded, x.dtype)
    z[index] = x[index]
    return z, True


def _pocketfft_namespace(pocketfft) -> SimpleNamespace:
    """The solver's call forms over the compiled module, as ``scipy.fft`` makes them.

    Forward transforms pass ``inorm=0`` and the inverse c2r ``inorm=2``
    (scipy's ``_normalization``); ``out`` is the input when it may be
    overwritten, as scipy chooses it for complex input.  A DST or DCT over
    empty ``axes`` returns the input, as scipy does (pocketfft itself
    rejects them).
    """

    def rfftn(x, s, *, axes, workers=1):
        x, _ = _fix_shape(x, s, axes)
        return pocketfft.r2c(x, axes=axes, forward=True, inorm=0, out=None, nthreads=workers)

    def fftn(x, s, *, axes, workers=1, overwrite_x=False):
        x, copied = _fix_shape(x, s, axes)
        out = x if overwrite_x or copied else None
        return pocketfft.c2c(x, axes=axes, forward=True, inorm=0, out=out, nthreads=workers)

    def irfftn(x, s, *, axes=None, workers=1):
        axes = range(x.ndim - len(s), x.ndim) if axes is None else axes
        x, _ = _fix_shape(x, tuple(s[:-1]) + (s[-1] // 2 + 1,), axes)
        return pocketfft.c2r(x, axes=axes, lastsize=s[-1], forward=False, inorm=2,
                             out=None, nthreads=workers)

    def r2rn(transform):
        def nd(x, type, *, axes, workers=1, overwrite_x=False):
            if not axes:
                return x
            return transform(x, type=type, axes=axes, inorm=0, out=x if overwrite_x else None,
                             nthreads=workers, ortho=None)
        return nd

    return SimpleNamespace(rfftn=rfftn, fftn=fftn, irfftn=irfftn,
                           dctn=r2rn(pocketfft.dct), dstn=r2rn(pocketfft.dst))


def _round_trips(fft) -> bool:
    """Whether every form of ``fft`` inverts on a small array: a check that the binding holds."""
    x = np.arange(1.0, 7.0).reshape(2, 3)
    spectrum = fft.fftn(fft.rfftn(x, (4,), axes=(-1,)), (2,), axes=(0,), overwrite_x=True)
    y = x.copy()
    in_place = fft.dstn(y, 1, axes=(0,), overwrite_x=True) is y
    return (in_place and np.allclose(fft.irfftn(spectrum, (2, 4))[:, :3], x)
            and np.allclose(fft.dstn(fft.dstn(x, 1, axes=(0, 1)), 1, axes=(0, 1)), 48.0 * x)
            and np.allclose(fft.dctn(fft.dctn(x, 1, axes=(0, 1)), 1, axes=(0, 1)), 8.0 * x))


def _bind(path: str) -> SimpleNamespace:
    """The namespace of the module docstring over the extension at ``path``.

    Raises if the extension cannot be loaded, or if its transforms fail
    the round trips.
    """
    spec = importlib.util.spec_from_file_location("pypocketfft", path)
    pocketfft = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pocketfft)
    fft = _pocketfft_namespace(pocketfft)
    if not _round_trips(fft):
        raise ImportError(f"{path}: the transforms do not invert")
    return fft


try:
    sfft = _bind(_pocketfft_path())
except (ImportError, OSError, AttributeError, TypeError, RuntimeError, ValueError):
    # missing, unloadable or changed: scipy's public module still works
    import scipy.fft as sfft


def _dst_in_place(x: np.ndarray, axis: int) -> None:
    """DST-I of ``x`` along ``axis``, written into ``x``, which may be a strided view.

    pocketfft transforms aligned float64 data in place when it is handed
    the input as ``out``; the check makes sure ``x`` really holds the result.
    """
    if sfft.dstn(x, type=1, axes=(axis,), overwrite_x=True).ctypes.data != x.ctypes.data:
        raise RuntimeError("the DST-I did not transform its input in place")


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
