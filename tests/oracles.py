"""Dense reference implementations shared by the tests.

Each is written the slow, obvious way, independently of the solver's
transforms, so that the solver can be checked against it.
"""

import itertools

import numpy as np

from freepoisson import BoundaryValues, GridFunction, ShapeError, UniformGrid
from freepoisson.harmonic import check_panels, compact_operator_stencil


def correlate_valid(values: np.ndarray, stencil: np.ndarray) -> np.ndarray:
    """Apply a dense stencil wherever every tap stays inside the array.

    out[j] = sum_m stencil[m] * values[j + m]; the output index j addresses
    the stencil's corner, so entry j corresponds to node j + center.
    """
    out_shape = tuple(n - w + 1 for n, w in zip(values.shape, stencil.shape))
    out = np.zeros(out_shape)
    for idx in np.ndindex(stencil.shape):
        c = stencil[idx]
        if c != 0.0:
            sl = tuple(slice(i, i + n) for i, n in zip(idx, out_shape))
            out += c * values[sl]
    return out


def boundary_from_full(g: UniformGrid, full: np.ndarray) -> BoundaryValues:
    """The boundary faces of a full node array."""
    faces = {}
    for axis in range(g.dim):
        for side in (0, 1):
            sl = [slice(None)] * g.dim
            sl[axis] = -1 if side else 0
            faces[(axis, side)] = full[tuple(sl)].copy()
    return BoundaryValues(g, faces)


def assemble_dense(grid: UniformGrid, g: BoundaryValues):
    """Row-by-row assembly of the interior linear system A u = b.

    b holds minus the compact operator's taps on the boundary data.
    """
    stencil = compact_operator_stencil(grid)
    interior = grid.interior_shape
    n = int(np.prod(interior))
    A = np.zeros((n, n))
    b = np.zeros(n)
    g_ext = g.as_full_array()
    offsets = list(np.ndindex(stencil.shape))
    for row, node in enumerate(np.ndindex(interior)):
        node = tuple(v + 1 for v in node)
        for off in offsets:
            c = stencil[off]
            if c == 0.0:
                continue
            nb = tuple(node[s] + off[s] - 1 for s in range(grid.dim))
            if all(1 <= nb[s] <= grid.panels[s] - 1 for s in range(grid.dim)):
                col = np.ravel_multi_index(
                    tuple(nb[s] - 1 for s in range(grid.dim)), interior
                )
                A[row, col] += c
            else:
                b[row] -= c * g_ext[nb]
    return A, b


def _d2(values: np.ndarray, axis: int) -> np.ndarray:
    """Second difference v[i-1] - 2 v[i] + v[i+1] along one axis where it fits."""
    n = values.shape[axis] - 2
    lead = (slice(None),) * axis
    out = values[lead + (slice(0, n),)] + values[lead + (slice(2, n + 2),)]
    centre = values[lead + (slice(1, n + 1),)]
    out -= centre
    out -= centre
    return out


def _cross_d2(u: np.ndarray, h, r: int) -> np.ndarray:
    """sum_{s != r} c_rs D2_s u / (h_r^4 h_s^2), c_rs = h_r^4/240 + h_r^2 h_s^2/144.

    Evaluated on the nodes that D4_r reads for the deep region: every node
    along r, depth >= 2 along the other axes.
    """
    d = u.ndim
    w = None
    for s in range(d):
        if s == r:
            continue
        sl = [slice(2, -2)] * d
        sl[r] = slice(None)
        sl[s] = slice(1, -1)
        term = _d2(u[tuple(sl)], s)
        term *= 1.0 / (240.0 * h[s] ** 2) + 1.0 / (144.0 * h[r] ** 2)
        if w is None:
            w = term
        else:
            w += term
    return w


def sixth_order_rhs(u1: GridFunction) -> GridFunction:
    """Deferred-correction right-hand side built from a 4th order solution.

    The dense reference of the solver's sine-space correction.  Applies the
    width-two truncation-error operators where they fit (all node
    coordinates at depth >= 2 from the boundary), as sums of 1D differences
    D4_r (sum_{s != r} c_rs D2_s u1), and fills the layer adjacent to the
    boundary by cubic extrapolation along the inward normal of the nearest
    face; where several faces tie (edges, corners) the tied directions are
    averaged.
    """
    grid = u1.grid
    if grid.dim not in (2, 3):
        raise ShapeError("sixth order correction is defined for dim 2 and 3")
    # Extrapolation reads four directly-computed values along the normal,
    # which requires a deep interior at least four nodes wide.
    check_panels(grid, 6)
    h = grid.mesh
    d = grid.dim
    rhs = np.zeros(grid.shape)
    deep = rhs[(slice(2, -2),) * d]
    for r in range(d):
        deep += _d2(_d2(_cross_d2(u1.values, h, r), r), r)

    # Depth-1 layer by cubic extrapolation: nodes at depth 1 along t axes
    # average the t normal extrapolations, faces (t = 1) first, then edges,
    # then corners, each reading only values filled before it.
    for t in range(1, d + 1):
        for axes in itertools.combinations(range(d), t):
            for sides in itertools.product((0, 1), repeat=t):
                node = [slice(2, -2)] * d
                for a, side in zip(axes, sides):
                    node[a] = 1 if side == 0 else grid.panels[a] - 1
                total = 0.0
                for a, side in zip(axes, sides):
                    step = 1 if side == 0 else -1
                    r1, r2, r3, r4 = (
                        rhs[tuple(node[:a]) + (node[a] + step * k,) + tuple(node[a + 1 :])]
                        for k in (1, 2, 3, 4)
                    )
                    total = total + (4.0 * r1 - 6.0 * r2 + 4.0 * r3 - r4)
                rhs[tuple(node)] = total / t

    return GridFunction(grid, rhs).assert_finite()
