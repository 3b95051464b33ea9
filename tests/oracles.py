"""Dense reference implementations shared by the tests.

Each is written the slow, obvious way, independently of the solver's
transforms, so that the solver can be checked against it.
"""

import numpy as np

from freepoisson import BoundaryValues, UniformGrid
from freepoisson.harmonic import compact_operator_stencil


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
