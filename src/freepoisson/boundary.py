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

On an in-face axis with M panels the kernel has 2M-1 samples (offsets
-(M-1)..M-1) and a slice's data M-1, so the full linear convolution has
3M-3 entries, of which the face needs the window [M-2, 2M-1).  A period
P >= 2M-1 maps every other entry (indices below M-2 or above 2M-2) to a
position outside that window, so padding to the smallest 7-smooth P >= 2M-1
is alias-free (Hockney and Eastwood's minimal padding).  Since the FFT is
linear, the slices are summed in frequency space: each slice is transformed
once, its spectrum times the kernel spectra of both opposite faces is added
to one accumulator per face, and each face needs a single inverse FFT.
Kernel spectra are built for one pair of normal distances at a time and
dropped after use, so memory stays O(face).  ``thread_count`` is passed to
``scipy.fft`` as ``workers``; each 1D transform is computed the same way on
any worker and the accumulation order is fixed, which makes the output
bitwise independent of the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .dirichlet import check_support
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


@dataclass(frozen=True)
class FaceConvolutionPlan:
    """Shapes and index windows of the convolutions for both faces normal to ``axis``.

    For each source slice along the face normal, a kernel sampled at in-face
    offsets -(M_s-1)..+(M_s-1) is convolved with the slice's interior data;
    the window [M_s-2, 2M_s-1) of the full convolution holds the values at
    the face's own node range 0..M_s.  The FFT period per in-face axis is
    the smallest 7-smooth length >= 2M_s-1, the kernel length.
    """

    axis: int
    in_axes: tuple[int, ...]
    kernel_shape: tuple[int, ...]
    padded_shape: tuple[int, ...]
    wanted: tuple[tuple[int, int], ...]


def _plan_face(grid: UniformGrid, axis: int) -> FaceConvolutionPlan:
    in_axes = tuple(s for s in range(grid.dim) if s != axis)
    kernel_shape = tuple(2 * grid.panels[s] - 1 for s in in_axes)
    return FaceConvolutionPlan(
        axis=axis,
        in_axes=in_axes,
        kernel_shape=kernel_shape,
        padded_shape=tuple(next_smooth_length(k) for k in kernel_shape),
        wanted=tuple((grid.panels[s] - 2, 2 * grid.panels[s] - 1) for s in in_axes),
    )


def _kernel_fft(grid: UniformGrid, plan: FaceConvolutionPlan, dist_panels: int,
                workers: int):
    """FFT of the kernel slice at a whole-panel normal distance.

    The in-face Trapezoidal weights are folded into the kernel, so each
    kernel transform is shared by the two opposite faces of its axis.
    """
    h_normal = grid.mesh[plan.axis]
    fixed = dist_panels * h_normal
    offsets = [
        (np.arange(k) - (grid.panels[s] - 1)) * grid.mesh[s]
        for k, s in zip(plan.kernel_shape, plan.in_axes)
    ]
    dist_sq = np.array(fixed * fixed)
    for i, off in enumerate(offsets):
        shape = [1] * len(offsets)
        shape[i] = off.size
        dist_sq = dist_sq + (off * off).reshape(shape)
    kernel = green_values(grid.dim, np.sqrt(dist_sq))
    kernel *= float(np.prod([grid.mesh[s] for s in plan.in_axes]))
    return sfft.rfftn(kernel, plan.padded_shape, workers=workers)


def _slice_data(rho: GridFunction, axis: int, p: int) -> np.ndarray:
    sl = [slice(1, -1)] * rho.grid.dim
    sl[axis] = p
    return rho.values[tuple(sl)]


def boundary_values_fast(rho: GridFunction, thread_count: int = 1) -> BoundaryValues:
    """Boundary sums via FFT convolutions summed in frequency space; O(N log N).

    Mathematically identical to :func:`boundary_values_naive` (the slices
    cover exactly the interior sources); agreement is limited only by FFT
    roundoff.  Per axis, each non-empty source slice is transformed once;
    its spectrum times the kernel spectrum at its distance to each of the
    two faces is added to that face's accumulator, and one inverse FFT per
    face finishes the sum.  ``thread_count`` is the ``workers`` count of
    every ``scipy.fft`` call, and the accumulation order is fixed, so the
    result is bitwise identical for any value.
    """
    if thread_count < 1:
        raise ValueError("thread_count must be positive")
    grid = rho.grid
    if grid.dim == 1:
        return boundary_values_naive(rho)  # two single sums: nothing to convolve
    check_support(rho)

    faces = {}
    for axis in range(grid.dim):
        plan = _plan_face(grid, axis)
        m = grid.panels[axis]
        half = plan.padded_shape[:-1] + (plan.padded_shape[-1] // 2 + 1,)
        acc = np.zeros((2,) + half, dtype=complex)  # lower, upper face
        # Slice p lies p panels from the lower face and m - p from the upper
        # one, so the slices p = d and p = m - d need the kernels at those
        # two distances only; walking the pairs keeps one pair's kernel
        # spectra alive at a time.
        for d in range(1, m // 2 + 1):
            pair = sorted({d, m - d})
            data = [(p, _slice_data(rho, axis, p)) for p in pair]
            data = [(p, x) for p, x in data if np.any(x)]
            if not data:
                continue
            kernels = {q: _kernel_fft(grid, plan, q, thread_count) for q in pair}
            for p, x in data:  # fixed order: deterministic
                spectrum = sfft.rfftn(x, plan.padded_shape, workers=thread_count)
                acc[0] += spectrum * kernels[p]
                acc[1] += spectrum * kernels[m - p]
        window = tuple(slice(a, b) for a, b in plan.wanted)
        for side in (0, 1):
            out = sfft.irfftn(acc[side], plan.padded_shape, workers=thread_count)
            faces[(axis, side)] = out[window] * grid.mesh[axis]
    return BoundaryValues(grid, faces)
