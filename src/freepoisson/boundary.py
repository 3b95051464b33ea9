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
(1..M-1) against the kernel at offset j-i.  If the occupied source nodes
along that axis are lo..hi, the offsets that occur span -hi..M-lo, so
|j-i| <= R = max(hi, M-lo) <= M-1: the reach R is the largest distance from
an occupied slice of that axis to either of its faces.  The kernel
G(sqrt(d^2 h_n^2 + sum_s x_s^2)) is even in every in-face offset.  Stored
circularly on an even period P, slot n holding the kernel at offset
min(n, P-n), it repeats its values at P-n, so its DFT is real and equals
the DCT-I of its non-negative quadrant, offsets 0..P/2 (zero beyond M-1):

    K^[k] = K[0] + (-1)^k K[P/2] + 2 sum_{n=1}^{P/2-1} K[n] cos(2 pi k n / P).

Only offsets 0..min(M-1, P/2) are evaluated per axis, and the transforms of
a group's kernels are one batched ``dctn(type=1)``.  The frequencies above
P/2 of a full FFT axis are read back to front from the stored half,
K^[P-k] = K^[k], without a mirrored copy.

Slice data at nodes 1..M-1 sits at circular indices 0..M-2, so face node j
is circular output index j-1: the window -1..M-1.  The (output, data) pair
at offset o reads slot o mod P, which holds the kernel at |o| exactly when
|o| <= P/2.  So every pair is alias-free when P >= 2R, and the window's M+1
output indices are distinct mod P when P >= M+1; the data, nonzero only at
indices lo-1..hi-1 < P, loses nothing when a period shorter than M-1 crops
it.  Each axis therefore takes P = 2 next_smooth(max(R, (M+2)//2)); the
period depends only on the density, never on the thread count.  Three
cases sit on these bounds:

* Full support (lo = 1, hi = M-1) gives R = M-1 and P = 2(M-1) when M-1 is
  7-smooth.  The offsets -(M-1) and M-1 then share one slot, where the even
  kernel holds the same value G(M-1); one even step shorter, 2(M-2), folds
  +-(M-1) onto -+(M-3), whose kernel values differ.
* A single occupied slice in the middle of an odd M has R = (M+1)/2 and
  P = M+1 when R is 7-smooth: the offset R reads slot P/2, the DCT-I end
  point, so offsets up to P/2 inclusive are evaluated.
* Since R >= M/2, the window term (M+2)//2 binds only for a middle slice at
  even M (R = M/2; P = M would give face nodes 0 and M one index, though
  their offsets -+M/2 read one kernel value) and for an all-zero density
  (R = 0).  It keeps the window's indices distinct and inside the period.

Axes with the same mesh width and panel count take the largest of their
periods, which still meets both bounds for each of them.  Then face-normal
axes with the same normal mesh width and the same in-face mesh widths,
panel counts and periods, in axis order, have one kernel: on a cubic mesh
all three axes do, and on a square one both.  Such axes form a class and
share its spectra.  Exact float equality decides; axes 0 and 2 of a mesh
where only they match have transposed in-face kernels and stay apart.

Since the FFT is linear, the slices are summed in frequency space: each
non-empty slice is transformed once, its spectrum times the real kernel
spectra of both opposite faces is added to one accumulator per face, and
each face needs a single inverse FFT.  Slice p needs the kernels at
distances p and M-p, one pair {d, M-d}, and every distance belongs to
exactly one pair.  The union of the pairs that a class's axes need is
worked through in groups (at least one pair each) whose spectra hold at
most a twelfth of the grid's node count and, together with the
accumulators of the class's axes beyond the first, at most
``grid._BLOCK`` values; so on small grids too they stay a small part of
the node array.  A group's spectra are built from the class's table of
squared in-face distances, made once per class; every slice of every
axis of the class whose pair is in the group is added, and they are
dropped before the next group's are built.  Each slice's spectrum is
dropped once its two products are added, before the next slice's is
built.  So each kernel is evaluated and transformed once per solve;
``solver.solve_free_space`` states what is alive meanwhile.  A class of
one axis has the groups of that axis alone.  A slice's transform is
``rfftn``'s
own sequence with the zero rows left out: the r2c along the last in-face
axis runs only on the range of rows occupied in the whole density (along
the first in-face axis in 3D; a 2D slice is one row), the results are
placed in a zeroed half spectrum, and the c2c runs along the leading
in-face axis.  A skipped row would transform to exact zeros, so the
spectrum is bitwise ``rfftn``'s.  ``thread_count`` is passed to the
transforms (``transforms.sfft``) as ``workers``; each 1D transform is
computed the same way on any worker and the accumulation order (groups in
increasing d, each group's slices in increasing p, axis by axis) is fixed,
which makes the output bitwise independent of the thread count.
"""

from __future__ import annotations

import math

import numpy as np

from . import grid as grid_module  # _BLOCK is read from it at call time
from .dirichlet import _Support, check_support
from .errors import check_count
from .grid import BoundaryValues, GridFunction, UniformGrid, _face_shape
from .greens import green_values
from .transforms import next_smooth_length, sfft

__all__ = ["boundary_values_naive", "boundary_values_fast"]

# Boundary nodes per block of the naive sum (bounds its distance table).
_NAIVE_CHUNK = 256


def _interior_points(grid: UniformGrid):
    axes = [grid.axis_coordinates(s)[1:-1] for s in range(grid.dim)]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    return [np.ascontiguousarray(np.broadcast_to(m, grid.interior_shape)).ravel()
            for m in mesh]


def boundary_values_naive(rho: GridFunction) -> BoundaryValues:
    """Trapezoidal boundary sums accumulated target node by target node.

    Pure reference implementation; use the fast variant for production runs.
    """
    check_support(rho)
    return _direct_sums(rho)


def _direct_sums(rho: GridFunction) -> BoundaryValues:
    """:func:`boundary_values_naive` of a density that has been checked already."""
    grid = rho.grid
    weight = float(np.prod(grid.mesh))
    src = _interior_points(grid)
    density = rho.interior().ravel()
    faces = {}
    for axis in range(grid.dim):
        for side in (0, 1):
            face_shape = _face_shape(grid, axis)
            targets = [
                np.broadcast_to(c, face_shape).ravel()
                for c in grid.face_coordinate_arrays(axis, side)
            ]
            n = targets[0].size
            vals = np.empty(n)
            for lo in range(0, n, _NAIVE_CHUNK):
                hi = min(lo + _NAIVE_CHUNK, n)
                dist_sq = np.zeros((hi - lo, density.size))
                for t, s in zip(targets, src):
                    diff = t[lo:hi, None] - s[None, :]
                    dist_sq += diff * diff
                g = green_values(grid.dim, np.sqrt(dist_sq))
                vals[lo:hi] = g @ density
            faces[(axis, side)] = (vals * weight).reshape(face_shape)
    return BoundaryValues(grid, faces)


def _periods(panels, reach) -> list[int]:
    """Even FFT periods P_s = 2 next_smooth(max(R_s, (M_s+2)//2)) >= max(2 R_s, M_s+1).

    ``reach[s]`` is R_s, the largest distance in panels from an occupied
    slice along axis s to either face of that axis (0 if none is occupied);
    see the module docstring.
    """
    return [2 * next_smooth_length(max(r, (m + 2) // 2)) for m, r in zip(panels, reach)]


def _kernel_spectra(grid: UniformGrid, axis: int, dists, periods, in_face,
                    workers: int) -> np.ndarray:
    """Real DFTs of the kernels at whole-panel normal distances ``dists``.

    ``periods`` holds the period P_s of every in-face axis s != axis, and
    ``in_face`` the squared in-face distances at offsets 0..min(M_s-1,
    P_s/2), which every group of a class shares.  Row i holds kernel i's
    spectrum at the non-negative frequencies 0..P_s/2 of every in-face
    axis: one batched DCT-I of the kernel's values at those offsets,
    zero-filled to P_s/2+1 per axis.  The Trapezoidal
    weights are folded in, so each spectrum serves both faces of the axis.
    The kernel values are evaluated in sub-blocks of at most an eighth of
    ``_BLOCK`` values (whole kernels, or rows of one kernel's leading
    in-face axis), so the Green's function's temporaries stay small.
    """
    normal = ((np.asarray(dists) * grid.mesh[axis]) ** 2).reshape(
        (-1,) + (1,) * in_face.ndim)
    buf = np.zeros((len(dists),) + tuple(p // 2 + 1 for p in periods))
    kernel = buf[(slice(None),) + tuple(slice(0, n) for n in in_face.shape)]
    np.add(normal, in_face, out=kernel)
    np.sqrt(kernel, out=kernel)
    weight = float(np.prod(grid.mesh))
    budget = grid_module._BLOCK // 8
    kernels_per_block = max(1, budget // in_face.size)
    rows_per_block = max(1, budget * in_face.shape[0] // in_face.size)
    for i in range(0, len(dists), kernels_per_block):
        for j in range(0, in_face.shape[0], rows_per_block):
            block = kernel[i:i + kernels_per_block, j:j + rows_per_block]
            np.multiply(green_values(grid.dim, block), weight, out=block)
    return sfft.dctn(buf, type=1, axes=tuple(range(1, buf.ndim)),
                     workers=workers, overwrite_x=True)


def _slice_spectrum(x: np.ndarray, rows, periods, workers: int) -> np.ndarray:
    """``rfftn(x, periods)``, with the r2c only on the rows that can be nonzero.

    ``rows`` holds one slice per leading axis of ``x`` (none for 1D data)
    that covers every row with a nonzero value and ends within its period.
    As in ``rfftn``, the r2c runs along the last axis and a c2c along each
    leading axis in turn; the skipped rows would transform to exact zeros,
    so the result is bitwise equal.
    """
    spectrum = np.zeros(periods[:-1] + (periods[-1] // 2 + 1,), dtype=complex)
    spectrum[rows] = sfft.rfftn(x[rows], periods[-1:], axes=(-1,), workers=workers)
    for a in range(len(periods) - 1):
        spectrum = sfft.fftn(spectrum, periods[a:a + 1], axes=(a,),
                             workers=workers, overwrite_x=True)
    return spectrum


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


def boundary_values_fast(rho: GridFunction, thread_count: int = 1, *,
                         support: _Support | None = None) -> BoundaryValues:
    """Boundary sums via FFT convolutions summed in frequency space; O(N log N).

    Mathematically identical to :func:`boundary_values_naive` (the slices
    cover exactly the interior sources); agreement is limited only by FFT
    roundoff.  The module docstring sets out the in-face periods, the
    classes of face-normal axes that share one kernel, and the groups in
    which a class's kernel spectra are built once each and dropped after
    use.  ``support``, if given, is :func:`check_support`'s record of
    the density, from a caller that has checked it already; without it the
    density is checked here.  Either way it is checked once, before any
    transform, and its nonzero lines and their box come from the record.
    ``thread_count`` is the ``workers`` count of every FFT call,
    and the accumulation order is fixed, so the result is bitwise identical
    for any value.
    """
    check_count("thread_count", thread_count, 1)
    support = check_support(rho) if support is None else support
    grid = rho.grid
    if grid.dim == 1:
        return _direct_sums(rho)  # two single sums: nothing to convolve

    interior = rho.interior()
    mesh, panels = grid.mesh, grid.panels
    in_axes = [tuple(t for t in range(grid.dim) if t != s) for s in range(grid.dim)]
    occupied = [set((line + 1).tolist()) for line in support.lines]
    # Slice p along axis s lies p panels from the lower face and M_s - p from
    # the upper: it needs the kernels of the pair {d, M_s - d}, d = min(p, M_s - p).
    # The farthest of these distances, M_s minus the nearest, is the reach.
    pairs = [sorted({min(p, m - p) for p in nodes}) for nodes, m in zip(occupied, panels)]
    own = _periods(panels, [m - d[0] if d else 0 for d, m in zip(pairs, panels)])
    all_periods = [max(p for t, p in enumerate(own) if (mesh[t], panels[t]) == (mesh[s], panels[s]))
                   for s in range(grid.dim)]
    classes = {}
    for axis in range(grid.dim):
        key = (mesh[axis], tuple((mesh[s], panels[s], all_periods[s]) for s in in_axes[axis]))
        classes.setdefault(key, []).append(axis)
    faces = {}
    for members in classes.values():
        axis, m = members[0], panels[members[0]]  # every member has M_s = m
        periods = tuple(all_periods[s] for s in in_axes[axis])
        half = periods[:-1] + (periods[-1] // 2 + 1,)
        acc = {a: np.zeros((2,) + half, dtype=complex) for a in members}  # lower, upper face
        # rows of the leading in-face axes (one in 3D, none in 2D) that hold the density
        rows = {a: tuple(support.box[s] for s in in_axes[a][:-1]) for a in members}
        union = sorted(set().union(*(pairs[a] for a in members)))
        # Groups of pairs whose spectra hold at most a twelfth of the node
        # array and, with the accumulators beyond one axis's, _BLOCK values.
        budget = min(grid_module._BLOCK - (len(members) - 1) * acc[axis].nbytes // 8,
                     rho.values.size // 12)
        step = max(1, budget // (2 * math.prod(p // 2 + 1 for p in periods)))
        # squared in-face distances at offsets 0..min(M_s-1, P_s/2), for every group
        in_face = sum(np.ix_(*((np.arange(min(panels[s], p // 2 + 1)) * mesh[s]) ** 2
                               for s, p in zip(in_axes[axis], periods))))
        for start in range(0, len(union), step):
            dists = sorted({q for d in union[start:start + step] for q in (d, m - d)})
            row = {q: i for i, q in enumerate(dists)}
            kernels = _kernel_spectra(grid, axis, dists, periods, in_face, thread_count)
            for a in members:
                for p in dists:  # the group's slices, in a fixed order: deterministic
                    if p not in occupied[a]:
                        continue
                    x = interior[(slice(None),) * a + (p - 1,)]
                    spectrum = _slice_spectrum(x, rows[a], periods, thread_count)
                    _add_product(acc[a][0], spectrum, kernels[row[p]])
                    _add_product(acc[a][1], spectrum, kernels[row[m - p]])
                    del spectrum  # before the next slice's is built
            del kernels  # before the next group's spectra are built
        # Face nodes 0..M_s are the circular indices -1..M_s-1.
        window = np.ix_(*(range(-1, panels[s]) for s in in_axes[axis]))
        for a in members:
            for side in (0, 1):
                out = sfft.irfftn(acc[a][side], periods, workers=thread_count)
                faces[(a, side)] = out[window]
            del acc[a]  # before the next accumulators are built
    return BoundaryValues(grid, faces)
