"""High order solution of Laplace's equation on the box with Dirichlet data.

The 4th order scheme solves the compact width-one operator

    Delta_h + sum_{r<s} (h_r^2 + h_s^2)/12 * D2_r D2_s

whose eigenvectors are the discrete sine modes, so the linear system
diagonalizes under a DST.  Note the eigenvalues here are the *difference*
ones, (2 cos(k pi / M) - 2)/h^2, not the continuous eigenvalues used by the
spectral Poisson solve; the two tables must never be mixed.

For harmonic u the operator's h^2 error terms cancel, so its truncation
error starts at h^4 times 6th derivatives of u.  Hence the 4th order solve
reproduces harmonic polynomials of degree <= 5 to roundoff on any mesh, and
a 4th order rate can only be observed on data of higher degree (or
transcendental data).  On square 2D meshes (h_x = h_y) the observed
exactness extends to degree 7, for the 4th and the 6th order solve alike,
so 2D rates are measured on anisotropic meshes.  This extension does not
carry over to 3D: on a cubic mesh a degree-6 harmonic polynomial that
depends on all three coordinates is not reproduced.

A 6th order solution is one further deferred-correction sweep: the truncation
error of the 4th order solution is approximated by width-two difference
operators applied to it and fed back as a right-hand side for the same
compact operator.  Near the boundary, where the width-two stencils do not
fit, the right-hand side is filled by cubic extrapolation along the inward
normal of the nearest face (averaged over ties at edges and corners).

:func:`harmonic_modes` returns the solution as sine coefficients, so the
free-space solver adds them to the spectral Poisson component's and
evaluates both with one shared inverse DST.  Only what must touch the
whole volume does:

* Boundary transfer.  For a vector v on nodes 0..M, summation by parts gives
  the 1D sine transform S (S[f](k) = 2 sum_{i=1}^{M-1} f_i sin(k pi i / M))
  of D2 v on the interior as

      S[D2 v](k) = lambda_k S[v](k) + sigma_0(k) v_0 + sigma_1(k) v_M,

  with sigma_0 = 2 sin(k pi / M) and sigma_1 = 2 sin(k pi (M-1) / M) =
  (-1)^(k+1) sigma_0 (the FACR identity).  Applied axis by axis to the
  boundary data extended by zero, the compact operator's right-hand side
  needs no physical-space layer: face (a, side) enters with its interior's
  DST times (1 + sum_{s != a} c_as lambda_s) sigma_a / h_a^2, edge (a < b)
  with its interior's DST times c_ab sigma_a sigma_b / (h_a^2 h_b^2), where
  c_ab = (h_a^2 + h_b^2)/12, and corners not at all (the 19-point stencil
  has no corner taps).  The work is O(face) plus two half-volume additions
  per axis.
* Separable correction.  The width-two operator sum_{r != s} c_rs D4_r D2_s
  is applied as sum_r D4_r (sum_{s != r} c_rs D2_s u) with 1D differences,
  and the extrapolated layer is filled face, edge and corner block by block.

At 6th order one inverse DST evaluates the 4th order solution (into the
boundary-extended array, which the caller reuses for the final field) and
one forward DST transforms the correction, whose coefficients are added to
the 4th order ones by linearity.

In one dimension the exact solution is linear, so no machinery is needed.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.fft as sfft

from .errors import ShapeError
from .grid import BoundaryValues, GridFunction, UniformGrid
from .transforms import InteriorModeArray, forward_dst, inverse_dst

__all__ = [
    "check_panels",
    "harmonic_modes",
    "sixth_order_rhs",
    "solve_harmonic_1d",
    "solve_harmonic_4th",
    "solve_harmonic_6th",
    "transfer_boundary_to_rhs",
]

_D2 = np.array([1.0, -2.0, 1.0])
_DELTA3 = np.array([0.0, 1.0, 0.0])

# Fewest panels per axis each order's stencils fit in.
MIN_PANELS = {4: 4, 6: 7}


def _outer(arrays) -> np.ndarray:
    out = arrays[0]
    for a in arrays[1:]:
        out = np.multiply.outer(out, a)
    return out


def _along(v: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """A 1D array reshaped to lie along ``axis`` of an ``ndim``-dimensional one."""
    shape = [1] * ndim
    shape[axis] = v.size
    return v.reshape(shape)


def discrete_eigenvalues(grid: UniformGrid) -> list[np.ndarray]:
    """Per-axis eigenvalues of D2 on the discrete sine modes (all negative)."""
    out = []
    for s in range(grid.dim):
        k = np.arange(1, grid.panels[s])
        out.append((2.0 * np.cos(k * np.pi / grid.panels[s]) - 2.0) / grid.mesh[s] ** 2)
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


def build_operator_symbol(grid: UniformGrid) -> np.ndarray:
    """Tabulate the operator's eigenvalue per discrete sine mode."""
    if grid.dim not in (2, 3):
        raise ShapeError("compact harmonic operator is defined for dim 2 and 3")
    lam = [_along(l, s, grid.dim) for s, l in enumerate(discrete_eigenvalues(grid))]
    h = grid.mesh
    symbol = sum(lam, np.zeros(grid.interior_shape))
    for r in range(grid.dim):
        for s in range(r + 1, grid.dim):
            symbol += (h[r] ** 2 + h[s] ** 2) / 12.0 * lam[r] * lam[s]
    if np.any(symbol == 0.0):
        raise ShapeError("compact operator has a vanishing eigenvalue on this grid")
    return symbol


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


def _add_sides(out: np.ndarray, axis: int, sigma: np.ndarray, low, high) -> None:
    """``out += sigma_0 low + sigma_1 high``, spread along ``axis``.

    ``low`` and ``high`` lack ``axis``; sigma_1 = (-1)^(k+1) sigma_0, so odd
    k see their sum and even k their difference.
    """
    for parity, pair in ((0, low + high), (1, low - high)):
        sel = [slice(None)] * out.ndim
        sel[axis] = slice(parity, None, 2)
        factor = _along(sigma[parity::2], axis, out.ndim)
        out[tuple(sel)] += factor * np.expand_dims(pair, axis)


def _dst(x: np.ndarray) -> np.ndarray:
    """DST-I over every axis; a 0-d value (a 2D corner) passes through."""
    return sfft.dstn(x, type=1) if x.ndim else x


def transfer_boundary_to_rhs(g: BoundaryValues) -> InteriorModeArray:
    """Sine coefficients of minus the compact operator applied to g extended by zero.

    Equal to :func:`forward_dst` of that right-hand side, but assembled from
    the DSTs of face and edge interiors by the identity in the module
    docstring; no node array is built.  Each axis's edges with higher axes
    are folded into its face transforms, and its two faces are paired by
    sign, so each axis adds into the coefficients twice.
    """
    grid = g.grid
    d = grid.dim
    h2 = [h * h for h in grid.mesh]
    lam = discrete_eigenvalues(grid)
    sigma = [2.0 * np.sin(np.arange(1, m) * np.pi / m) for m in grid.panels]
    scale = -1.0 / np.prod([float(m) for m in grid.panels])
    coeff = np.zeros(grid.interior_shape)
    for a in range(d):
        in_axes = [s for s in range(d) if s != a]
        weight = 1.0
        for j, s in enumerate(in_axes):
            weight = weight + (h2[a] + h2[s]) / 12.0 * _along(lam[s], j, d - 1)
        sides = []
        for side in (0, 1):
            face = g.faces[(a, side)]
            t = _dst(face[(slice(1, -1),) * (d - 1)]) * weight
            for j, b in enumerate(in_axes):
                if b > a:
                    edges = [
                        _dst(np.take(face, -sb, axis=j)[(slice(1, -1),) * (d - 2)])
                        for sb in (0, 1)
                    ]
                    c = (h2[a] + h2[b]) / 12.0 / h2[b]
                    _add_sides(t, j, c * sigma[b], *edges)
            sides.append(t)
        _add_sides(coeff, a, scale / h2[a] * sigma[a], *sides)
    return InteriorModeArray(grid, coeff)


def check_panels(grid: UniformGrid, order: int) -> None:
    """Raise ShapeError when a 2D/3D grid is too coarse for the order's stencils."""
    need = MIN_PANELS[order]
    if grid.dim > 1 and min(grid.panels) < need:
        raise ShapeError(
            f"order {order} needs at least {need} panels per axis, but the "
            f"padded grid has {grid.panels}; raise padding_panels (each "
            f"unit adds two panels per axis) or refine the grid"
        )


def harmonic_modes(g: BoundaryValues, order: int, field: np.ndarray) -> InteriorModeArray:
    """Sine coefficients of the 4th or 6th order harmonic extension of g.

    ``field`` is g's boundary-extended node array (``g.as_full_array()``).
    The 6th order sweep evaluates the 4th order solution into its interior,
    so the caller can reuse the array for the final field.
    """
    grid = g.grid
    check_panels(grid, order)
    symbol = build_operator_symbol(grid)
    modes = transfer_boundary_to_rhs(g)
    modes.coefficients /= symbol
    if order == 4:
        return modes
    correction = forward_dst(sixth_order_rhs(inverse_dst(modes, field)))
    correction.coefficients /= symbol
    modes.coefficients += correction.coefficients
    return modes


def _solve(g: BoundaryValues, order: int) -> GridFunction:
    field = g.as_full_array()
    return inverse_dst(harmonic_modes(g, order, field), field).assert_finite()


def solve_harmonic_4th(g: BoundaryValues) -> GridFunction:
    """4th order discrete-harmonic extension of the boundary data."""
    return _solve(g, 4)


def sixth_order_rhs(u1: GridFunction) -> GridFunction:
    """Deferred-correction right-hand side built from a 4th order solution.

    Applies the width-two truncation-error operators where they fit (all
    node coordinates at depth >= 2 from the boundary), as sums of 1D
    differences D4_r (sum_{s != r} c_rs D2_s u1), and fills the layer
    adjacent to the boundary by cubic extrapolation along the inward normal
    of the nearest face; where several faces tie (edges, corners) the tied
    directions are averaged.
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


def solve_harmonic_6th(g: BoundaryValues) -> GridFunction:
    """6th order harmonic extension: 4th order solve plus one correction sweep."""
    return _solve(g, 6)


def solve_harmonic_1d(g_left: float, g_right: float, grid: UniformGrid) -> GridFunction:
    """Exact 1D harmonic solution: the linear interpolant of the endpoints."""
    if grid.dim != 1:
        raise ShapeError("solve_harmonic_1d needs a one-dimensional grid")
    t = np.arange(grid.panels[0] + 1) / grid.panels[0]
    values = float(g_left) * (1.0 - t) + float(g_right) * t
    return GridFunction(grid, values)
