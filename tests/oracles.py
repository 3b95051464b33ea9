"""Reference code shared by the tests.

The dense references (the compact operator's stencil, the assembled linear
system, the 6th order right-hand side, the tables per mode) are written the
slow, obvious way, independently of the solver's transforms, so that the
solver can be checked against them.  The remaining helpers are conveniences
the solver itself does not need: node coordinates by multi-index, the
bump's radial density, and the two finite-domain solves evaluated on their
own, with whole-array ``scipy.fft.dstn`` transforms and dense tables.
"""

import importlib
import itertools
import os
import pkgutil
from pathlib import Path

import numpy as np
import scipy.fft as sfft

import freepoisson
from freepoisson import (
    BoundaryValues,
    GridFunction,
    PolyBump,
    ShapeError,
    SolverConfig,
    UniformGrid,
    boundary_values_fast,
    pad_domain,
    restrict_to_subgrid,
)
from freepoisson.dirichlet import check_support
from freepoisson.grid import _broadcast_samples, _face_shape
from freepoisson.harmonic import check_panels, harmonic_modes
from freepoisson.solver import _embed_samples, _pad_counts

_D2 = np.array([1.0, -2.0, 1.0])
_DELTA3 = np.array([0.0, 1.0, 0.0])


def fft_users() -> list:
    """Every ``freepoisson`` module that holds the FFT namespace as ``sfft``.

    Found by walking the package, so a module that starts transforming is
    included without a change here.
    """
    names = (info.name for info in pkgutil.iter_modules(freepoisson.__path__))
    modules = (importlib.import_module(f"freepoisson.{name}") for name in names
               if not name.startswith("_"))  # __main__ would run the CLI
    return [m for m in modules if "sfft" in vars(m)]


def src_env(**extra) -> dict:
    """This process's environment with the package's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(freepoisson.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def node_coordinate(grid: UniformGrid, index) -> tuple[float, ...]:
    """Coordinates of the node with the given multi-index.

    Each coordinate is ``lower[s] + index[s] * mesh[s]``, a single
    multiply-add, as in ``UniformGrid.axis_coordinates``.
    """
    return tuple(grid.lower[s] + i * grid.mesh[s] for s, i in enumerate(index))


def zero_function(grid: UniformGrid) -> GridFunction:
    """The grid function that is zero at every node."""
    return GridFunction(grid, np.zeros(grid.shape))


def boundary_from_callable(grid: UniformGrid, fn) -> BoundaryValues:
    """Sample ``fn`` on every boundary node (fn must broadcast).

    Each face's normal coordinate is the domain bound itself.
    """
    return BoundaryValues(grid, {
        (axis, side): _broadcast_samples(
            fn(*grid.face_coordinate_arrays(axis, side)),
            _face_shape(grid, axis),
            f"face {(axis, side)} nodes",
            np.empty(_face_shape(grid, axis)),
        )
        for axis in range(grid.dim)
        for side in (0, 1)
    })


def density_radial(bump: PolyBump, r) -> np.ndarray:
    """Bump density as a function of distance from the center; exactly 0 for r >= eps."""
    r = np.asarray(r, dtype=np.float64)
    u = (r / bump.epsilon) ** 2
    return np.where(r < bump.epsilon, bump.gamma * (1.0 - u) ** bump.p, 0.0)


def bump_from_differentiability(dim: int, diff: int, epsilon: float, center) -> PolyBump:
    """Bump that is ``diff`` times continuously differentiable (p = diff + 1)."""
    if diff < 0:
        raise ValueError("differentiability must be nonnegative")
    return PolyBump(dim, epsilon, diff + 1, center)


def dst_coefficients(f: GridFunction) -> np.ndarray:
    """Sine-series coefficients of ``f``'s interior values: ``dstn`` over every line, scaled."""
    return sfft.dstn(f.interior(), type=1) / np.prod([float(m) for m in f.grid.panels])


def sine_series(coeff: np.ndarray, grid: UniformGrid, values=None) -> GridFunction:
    """The sine series with coefficients ``coeff`` at every node of ``grid``.

    Its boundary nodes are those of the node array ``values`` (zero if none
    is given), which is written.
    """
    values = np.zeros(grid.shape) if values is None else values
    values[(slice(1, -1),) * grid.dim] = sfft.dstn(coeff, type=1) / 2.0**grid.dim
    return GridFunction(grid, values)


def phi_star_coefficients(rho: GridFunction) -> np.ndarray:
    """Sine coefficients of the zero-Dirichlet solve: the density's over the dense eigenvalues."""
    return dst_coefficients(rho) / continuous_eigenvalues_pairs(rho.grid)


def solve_phi_star(rho: GridFunction) -> GridFunction:
    """Solve Laplacian(phi) = rho with zero Dirichlet boundary values.

    The density must be finite and vanish on the boundary; the result has
    exactly zero boundary values.
    """
    check_support(rho)
    return sine_series(phi_star_coefficients(rho), rho.grid).assert_finite()


def boundary_array(g: BoundaryValues) -> np.ndarray:
    """Full node array with the boundary values set and the interior zero."""
    return g.write_into(np.zeros(g.grid.shape))


def modes_of_harmonic(g: BoundaryValues, order: int) -> np.ndarray:
    """Sine coefficients of the 4th or 6th order harmonic extension alone.

    Raises ShapeError on a 2D or 3D grid too coarse for the order, as the
    solver does before any phase.
    """
    check_panels(g.grid, order)
    return harmonic_modes(g, order, np.zeros(g.grid.interior_shape))


def solve_harmonic(g: BoundaryValues, order: int) -> GridFunction:
    """4th or 6th order discrete-harmonic extension of the boundary data.

    Raises ShapeError on a 2D or 3D grid too coarse for the order.
    """
    return sine_series(modes_of_harmonic(g, order), g.grid, boundary_array(g)).assert_finite()


def solve_by_composition(rho: GridFunction, config: SolverConfig) -> GridFunction:
    """The free-space solve of sampled ``rho`` composed from whole-array steps.

    The harmonic coefficients and the spectral ones (whole-array ``dstn``
    over the dense eigenvalues) are built apart and added, then evaluated by
    ``dstn`` into a zero-filled node array carrying the boundary values: the
    sum that ``solve_free_space`` accumulates in one array, in another order.
    """
    padded = pad_domain(rho.grid, config)
    rho_padded = _embed_samples(rho, padded, _pad_counts(rho.grid, config))
    g = boundary_values_fast(rho_padded, config.thread_count)
    modes = modes_of_harmonic(g, config.order)
    modes += phi_star_coefficients(rho_padded)
    phi = sine_series(modes, padded, boundary_array(g)).assert_finite()
    return phi if padded == rho.grid else restrict_to_subgrid(phi, rho.grid)


def row_blocks_assembled(table, n_rows: int, step: int) -> np.ndarray:
    """A block-by-block table, ``table(rows)``, assembled from blocks of ``step`` rows."""
    return np.concatenate([table(slice(i, i + step)) for i in range(0, n_rows, step)])


def _outer(arrays) -> np.ndarray:
    out = arrays[0]
    for a in arrays[1:]:
        out = np.multiply.outer(out, a)
    return out


def compact_operator_stencil(grid: UniformGrid) -> np.ndarray:
    """Dense width-one stencil of the compact 4th order operator.

    Shape (3,)*dim with the evaluation node at the center: the discrete
    Laplacian plus the (h_r^2 + h_s^2)/12 cross-derivative corrections
    (9 points in 2D, 19 in 3D).
    """
    d = grid.dim
    h = grid.mesh
    stencil = np.zeros((3,) * d)
    for s in range(d):
        parts = [_DELTA3] * d
        parts[s] = _D2 / h[s] ** 2
        stencil += _outer(parts)
    for r in range(d):
        for s in range(r + 1, d):
            parts = [_DELTA3] * d
            parts[r] = _D2 / h[r] ** 2
            parts[s] = _D2 / h[s] ** 2
            stencil += (h[r] ** 2 + h[s] ** 2) / 12.0 * _outer(parts)
    return stencil


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
    g_ext = boundary_array(g)
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


def _along(grid: UniformGrid, s: int, vec: np.ndarray) -> np.ndarray:
    """``vec`` over the modes k_s, as a full mode array (outer product with ones)."""
    return _outer([vec if t == s else np.ones(m - 1) for t, m in enumerate(grid.panels)])


def operator_symbol_pairs(grid: UniformGrid, dtype=np.float64) -> np.ndarray:
    """Compact operator symbol sum_s lam_s + sum_{r<s} (h_r^2 + h_s^2)/12 lam_r lam_s.

    lam_s = -4 sin^2(k pi / (2 M_s)) / h_s^2, computed in ``dtype`` (pass
    ``np.longdouble`` for an extended-precision reference).
    """
    pi = np.arccos(dtype(-1.0))
    h2 = [dtype(h) ** 2 for h in grid.mesh]
    lam = [-4.0 * np.sin(np.arange(1, m, dtype=dtype) * pi / (2 * m)) ** 2 / h2[s]
           for s, m in enumerate(grid.panels)]
    out = np.zeros(grid.interior_shape, dtype)
    for s in range(grid.dim):
        out += _along(grid, s, lam[s])
    for r, s in itertools.combinations(range(grid.dim), 2):
        out += (h2[r] + h2[s]) / 12.0 * _along(grid, r, lam[r]) * _along(grid, s, lam[s])
    return out


def correction_q_pairs(grid: UniformGrid) -> np.ndarray:
    """The 6th order correction's Q = sum_r mu_r^2 sum_{s != r} c_rs mu_s.

    mu_s = 2 cos(k pi / M_s) - 2 and c_rs = 1/(240 h_s^2) + 1/(144 h_r^2).
    """
    h2 = [h * h for h in grid.mesh]
    mu = [2.0 * np.cos(np.arange(1, m) * np.pi / m) - 2.0 for m in grid.panels]
    out = np.zeros(grid.interior_shape)
    for r, s in itertools.permutations(range(grid.dim), 2):
        c = 1.0 / (240.0 * h2[s]) + 1.0 / (144.0 * h2[r])
        out += c * _along(grid, r, mu[r] ** 2) * _along(grid, s, mu[s])
    return out


def continuous_eigenvalues_pairs(grid: UniformGrid) -> np.ndarray:
    """-sum_s (k_s pi / L_s)^2, the continuous Laplacian's eigenvalue per mode."""
    out = np.zeros(grid.interior_shape)
    for s, m in enumerate(grid.panels):
        out -= _along(grid, s, (np.arange(1, m) * np.pi / (grid.upper[s] - grid.lower[s])) ** 2)
    return out
