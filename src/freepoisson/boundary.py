"""Green's-function boundary values of a gridded density.

Every boundary node of the grid receives the Trapezoidal approximation of the
free-space convolution integral, summed over interior source nodes (boundary
sources carry a zero density by precondition, so leaving them out loses
nothing and keeps every kernel evaluation away from the singularity).

Two implementations share that definition:

* ``boundary_values_naive`` accumulates one boundary node at a time; it is
  the reference oracle, with cost O(N^(2d-1)/d).
* ``boundary_values_fast`` rearranges each face's double (triple) sum into a
  sum over source slices of in-face discrete convolutions, evaluated with
  zero-padded FFTs, for O(N log N) total work.  In 1D each boundary "face"
  is one node whose value is a single sum, so it uses the direct sums.

On an in-face axis with M panels, face node j (0..M) sums source nodes i
(1..M-1) against the kernel at offset j-i, so the offsets span -(M-1)..M-1.
The kernel G(sqrt(d^2 h_n^2 + sum_s x_s^2)) is even in every in-face offset.
Stored circularly on an even period P = 2 next_smooth(M-1) >= 2(M-1), it
repeats its values at P-n, so its DFT is real and equals the DCT-I of its
non-negative quadrant, offsets 0..P/2 (zero beyond M-1):

    K^[k] = K[0] + (-1)^k K[P/2] + 2 sum_{n=1}^{P/2-1} K[n] cos(2 pi k n / P).

Only M^(d-1) Green's-function values per kernel are needed, and the
transforms of all kernels of one axis are one batched ``dctn(type=1)``.
The frequencies above P/2 of a full FFT axis are read back to front from
the stored half, K^[P-k] = K^[k], without a mirrored copy.

Slice data at nodes 1..M-1 sits at circular indices 0..M-2, so face node j
is circular output index j-1: the window -1..M-1.  Every (output, data)
pair of that window reads a true offset in -(M-1)..M-1.  Two such offsets
fall in the same slot mod P only if they differ by P >= 2(M-1), that is
only for -(M-1) and M-1 with P = 2(M-1), where the even kernel holds the
same value G(M-1).  So P = 2(M-1) is the shortest alias-free even period;
one even step shorter, 2(M-2), folds the offsets +-(M-1) onto -+(M-3),
whose kernel values differ.

Since the FFT is linear, the slices are summed in frequency space: each
non-empty slice is transformed once, its spectrum times the real kernel
spectra of both opposite faces is added to one accumulator per face, and
each face needs a single inverse FFT.  ``thread_count`` is passed to
``scipy.fft`` as ``workers``; each 1D transform is computed the same way on
any worker and the accumulation order is fixed, which makes the output
bitwise independent of the thread count.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as sfft

from .dirichlet import check_support
from .errors import check_count
from .grid import BoundaryValues, GridFunction, UniformGrid
from .greens import green_values
from .transforms import next_smooth_length

__all__ = ["boundary_values_naive", "boundary_values_fast"]


def _interior_points(grid: UniformGrid):
    axes = [grid.axis_coordinates(s)[1:-1] for s in range(grid.dim)]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    return [np.ascontiguousarray(np.broadcast_to(m, grid.interior_shape)).ravel()
            for m in mesh]


def boundary_values_naive(rho: GridFunction, chunk: int = 256) -> BoundaryValues:
    """Trapezoidal boundary sums accumulated target node by target node.

    Pure reference implementation; use the fast variant for production runs.
    """
    grid = rho.grid
    check_support(rho)
    weight = float(np.prod(grid.mesh))
    src = _interior_points(grid)
    density = rho.interior().ravel()
    faces = {}
    for axis in range(grid.dim):
        for side in (0, 1):
            face_shape = tuple(m + 1 for s, m in enumerate(grid.panels) if s != axis)
            targets = [
                np.broadcast_to(c, face_shape).ravel()
                for c in grid.face_coordinate_arrays(axis, side)
            ]
            n = targets[0].size
            vals = np.empty(n)
            for lo in range(0, n, chunk):
                hi = min(lo + chunk, n)
                dist_sq = np.zeros((hi - lo, density.size))
                for t, s in zip(targets, src):
                    diff = t[lo:hi, None] - s[None, :]
                    dist_sq += diff * diff
                g = green_values(grid.dim, np.sqrt(dist_sq))
                vals[lo:hi] = g @ density
            faces[(axis, side)] = (vals * weight).reshape(face_shape)
    return BoundaryValues(grid, faces)


def _periods(grid: UniformGrid, axis: int) -> tuple[int, ...]:
    """FFT periods P_s = 2 next_smooth(M_s-1) >= 2(M_s-1) of the in-face axes s != axis."""
    return tuple(2 * next_smooth_length(m - 1)
                 for s, m in enumerate(grid.panels) if s != axis)


def _kernel_spectra(grid: UniformGrid, axis: int, dists, workers: int) -> np.ndarray:
    """Real DFTs of the kernels at whole-panel normal distances ``dists``.

    Row i holds kernel i's spectrum at the non-negative frequencies 0..P_s/2
    of every in-face axis: one batched DCT-I of the kernels' non-negative
    offset quadrants, zero-filled to P_s/2+1 per axis.  The Trapezoidal
    weights are folded in, so each spectrum serves both faces of the axis.
    """
    # squared in-face distances at offsets 0..M_s-1
    in_face = sum(np.ix_(*((np.arange(m) * grid.mesh[s]) ** 2
                           for s, m in enumerate(grid.panels) if s != axis)))
    normal = ((np.asarray(dists) * grid.mesh[axis]) ** 2).reshape(
        (-1,) + (1,) * in_face.ndim)
    buf = np.zeros((len(dists),) + tuple(p // 2 + 1 for p in _periods(grid, axis)))
    kernel = buf[(slice(None),) + tuple(slice(0, n) for n in in_face.shape)]
    weight = float(np.prod(grid.mesh))
    step = max(1, 2**16 // in_face.size)  # blocks of rows keep temporaries small
    for i in range(0, len(dists), step):
        block = kernel[i:i + step]
        np.add(normal[i:i + step], in_face, out=block)
        np.sqrt(block, out=block)
        np.multiply(green_values(grid.dim, block), weight, out=block)
    return sfft.dctn(buf, type=1, axes=tuple(range(1, buf.ndim)),
                     workers=workers, overwrite_x=True)


def _add_product(acc: np.ndarray, spectrum: np.ndarray, kernel: np.ndarray):
    """``acc += spectrum * K`` for the full real, even kernel spectrum K.

    ``kernel`` holds K at the non-negative frequencies only.  The last axis
    is the half spectrum of ``rfftn`` on both sides; along a full first axis
    K[k] = K[P-k] is read back to front instead of being copied.
    """
    if kernel.ndim == 1:
        acc += spectrum * kernel
        return
    h = kernel.shape[0]
    acc[:h] += spectrum[:h] * kernel
    acc[h:] += spectrum[h:] * kernel[h - 2:0:-1]


def boundary_values_fast(rho: GridFunction, thread_count: int = 1) -> BoundaryValues:
    """Boundary sums via FFT convolutions summed in frequency space; O(N log N).

    Mathematically identical to :func:`boundary_values_naive` (the slices
    cover exactly the interior sources); agreement is limited only by FFT
    roundoff.  Per face-normal axis, the kernel spectra at every normal
    distance a non-empty source slice needs are built at once, by one
    batched DCT-I of the kernels' non-negative offsets; they are real
    because the kernels are even.  Each non-empty slice is then transformed
    once, its spectrum times the kernel spectrum at its distance to each of
    the two faces is added to that face's accumulator, and one inverse FFT
    per face finishes the sum.  The density is checked (:func:`check_support`)
    before any transform.  ``thread_count`` is the ``workers`` count of
    every ``scipy.fft`` call, and the accumulation order is fixed, so the
    result is bitwise identical for any value.
    """
    check_count("thread_count", thread_count, 1)
    grid = rho.grid
    if grid.dim == 1:
        return boundary_values_naive(rho)  # two single sums: nothing to convolve
    check_support(rho)

    interior = rho.interior()
    nonzero = interior != 0
    faces = {}
    for axis in range(grid.dim):
        in_axes = tuple(s for s in range(grid.dim) if s != axis)
        periods = _periods(grid, axis)
        m = grid.panels[axis]
        # Slice p lies p panels from the lower face and m - p from the upper.
        occupied = (np.flatnonzero(nonzero.any(axis=in_axes)) + 1).tolist()
        dists = sorted({q for p in occupied for q in (p, m - p)})
        row = {q: i for i, q in enumerate(dists)}
        kernels = _kernel_spectra(grid, axis, dists, thread_count)
        half = periods[:-1] + (periods[-1] // 2 + 1,)
        acc = np.zeros((2,) + half, dtype=complex)  # lower, upper face
        for p in occupied:  # fixed order: deterministic
            x = interior[(slice(None),) * axis + (p - 1,)]
            spectrum = sfft.rfftn(x, periods, workers=thread_count)
            _add_product(acc[0], spectrum, kernels[row[p]])
            _add_product(acc[1], spectrum, kernels[row[m - p]])
        # Face nodes 0..M_s are the circular indices -1..M_s-1.
        window = np.ix_(*(range(-1, grid.panels[s]) for s in in_axes))
        for side in (0, 1):
            out = sfft.irfftn(acc[side], periods, workers=thread_count)
            faces[(axis, side)] = out[window]
    return BoundaryValues(grid, faces)
