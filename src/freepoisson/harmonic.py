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

* Boundary transfer.  The compact operator's taps reach the boundary data
  extended by zero only from the depth-1 layer behind each face, so minus
  the operator applied to it is, on the layer behind face (a, side),

      -(1 / h_a^2) (1 + sum_{s != a} c_as D2_s / h_s^2) of the face data,

  with c_as = (h_a^2 + h_s^2)/12 and D2_s the undivided second difference
  along the face (the 19-point stencil has no corner taps).  An edge node
  is counted by the face of its lowest axis, as in
  :meth:`BoundaryValues.as_full_array`: a face's data are zeroed on its
  edges with lower axes first.  A value on the layer at depth j behind a
  face reaches the coefficients through one in-face DST times
  2 sin(j k pi / M) along the normal (the far face with the (-1)^(k+1)
  parity), so the work is O(face) plus one pass over the coefficients per
  axis.
* Correction in sine space.  Write u1 = V + G, V the 4th order sine series
  (coefficients u) and G the boundary data extended by zero.  The undivided
  difference D2_s is diagonal on V with mu_s = 2 cos(k pi / M_s) - 2, so on
  nodes of depth >= 2 the correction sum_r D4_r (sum_{s != r} c_rs D2_s u1),
  with D4_r = D2_r^2 and c_rs = 1/(240 h_s^2) + 1/(144 h_r^2), equals the
  series W of Q u,

      Q = sum_r mu_r^2 sum_{s != r} c_rs mu_s,

  plus, on each depth-2 layer, sum_{s != r} c_rs D2_s of that face's data
  (the only taps of the width-two stencil that reach G).  With F the
  forward DST, the right-hand side's coefficients are therefore

      Q u - F(W on the depth-1 shell) + F(depth-2 face terms)
          + F(extrapolated depth-1 layer).

  Per face, W at depth 1 and W extrapolated from depths 2..5 come from
  contracting Q u along the normal with the rows sin(k pi / M) and
  4 s_2 - 6 s_3 + 4 s_4 - s_5 (s_j = sin(j k pi / M); the far face takes
  the (-1)^(k+1) parity), then one batched in-face DST.  The depth-2 face
  terms are added to Q u first, so the extrapolation reads them like any
  other value; the extrapolation to edges, then corners, runs on those face
  arrays.  Each face's depth-1 change goes back like the boundary transfer,
  a depth-1 node being counted by the face of its lowest depth-1 axis.  The
  contractions and the scatters are elementwise (``np.einsum``, no BLAS);
  a scatter runs in blocks sized by element count along the first axis.

An order-6 solve thus makes no full-volume DST of its own: the free-space
solve makes two, the spectral forward DST and the shared inverse.

In one dimension the exact solution is linear, so no machinery is needed.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.fft as sfft

from .errors import ShapeError
from .grid import BoundaryValues, GridFunction, UniformGrid

__all__ = [
    "check_panels",
    "harmonic_modes",
    "solve_harmonic_1d",
    "transfer_boundary_to_rhs",
]

# Cubic extrapolation to depth 1 from depths 2, 3, 4, 5 along a normal.
_EXTRAPOLATE = np.array([4.0, -6.0, 4.0, -1.0])
# Elements per block of a scatter into the coefficients (bounds its temporaries).
_BLOCK = 8 * 96**2

# Fewest panels per axis each order's stencils fit in.
MIN_PANELS = {4: 4, 6: 7}


def discrete_eigenvalues(grid: UniformGrid) -> list[np.ndarray]:
    """Per-axis eigenvalues of D2 on the discrete sine modes (all negative)."""
    out = []
    for s in range(grid.dim):
        k = np.arange(1, grid.panels[s])
        out.append((2.0 * np.cos(k * np.pi / grid.panels[s]) - 2.0) / grid.mesh[s] ** 2)
    return out


def _pair_sum(shape, tables: dict) -> np.ndarray:
    """sum over axis pairs (r, s) of ``tables[r, s]`` (a 2D table), broadcast.

    Each table is added in place, so no full-size temporary is made.
    """
    out = np.zeros(shape)
    for (r, s), table in tables.items():
        out += table.reshape([shape[a] if a in (r, s) else 1 for a in range(len(shape))])
    return out


def build_operator_symbol(grid: UniformGrid) -> np.ndarray:
    """Tabulate the operator's eigenvalue per discrete sine mode."""
    if grid.dim not in (2, 3):
        raise ShapeError("compact harmonic operator is defined for dim 2 and 3")
    lam = discrete_eigenvalues(grid)
    h = grid.mesh
    tables = {
        (r, s): (h[r] ** 2 + h[s] ** 2) / 12.0 * np.multiply.outer(lam[r], lam[s])
        for r, s in itertools.combinations(range(grid.dim), 2)
    }
    # each lam_s once, in a table that spans axis s
    tables[0, 1] += lam[0][:, None]
    for s in range(1, grid.dim):
        tables[0, s] += lam[s]
    symbol = _pair_sum(grid.interior_shape, tables)
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


def _scatter(out: np.ndarray, axis: int, row: np.ndarray, faces: np.ndarray) -> None:
    """``out += row faces[p]`` spread along ``axis``, p = 0 for odd k and 1 for even k.

    ``row`` is over k along ``axis``; ``faces`` is (2, *face).  With the row
    zeroed off each parity as a (2, k) table, each block of ``out`` along its
    first axis, about ``_BLOCK`` elements, is one ``einsum`` over p.
    """
    parity = np.zeros((2, row.size))
    parity[0, 0::2] = row[0::2]
    parity[1, 1::2] = row[1::2]
    letters = "abc"[:out.ndim]
    spec = f"p{letters[axis]},p{letters.replace(letters[axis], '')}->{letters}"
    step = max(1, _BLOCK * out.shape[0] // out.size)
    for start in range(0, out.shape[0], step):
        block = [slice(None)] * out.ndim
        block[0] = slice(start, start + step)
        k = block.pop(axis)
        out[start:start + step] += np.einsum(spec, parity[:, k], faces[(slice(None), *block)])


def _add_layer(coeff: np.ndarray, grid: UniformGrid, layers: dict, depth: int) -> np.ndarray:
    """Add to ``coeff`` the sine coefficients of values on the layer ``depth`` behind each face.

    ``layers[a, side]`` holds the values on face (a, side)'s interior nodes.
    Along a the far side's factor is the near side's times (-1)^(k+1), so
    odd k take the sides' in-face DSTs summed and even k differenced.
    Returns ``coeff``.
    """
    scale = 2.0 / np.prod([float(m) for m in grid.panels])
    for a, m in enumerate(grid.panels):
        near, far = layers[a, 0], layers[a, 1]
        row = scale * np.sin(depth * np.arange(1, m) * np.pi / m)
        sides = sfft.dstn(np.stack([near + far, near - far]), type=1, axes=range(1, grid.dim))
        _scatter(coeff, a, row, sides)
    return coeff


def _cede_lower_edges(x: np.ndarray, a: int) -> np.ndarray:
    """Zero face a's outer rows along each lower axis, whose face counts them."""
    for j in range(a):
        x[(slice(None),) * j + ([0, -1],)] = 0.0
    return x


def transfer_boundary_to_rhs(g: BoundaryValues) -> np.ndarray:
    """Sine coefficients of minus the compact operator applied to g extended by zero.

    Equal to :func:`forward_dst` of that right-hand side, but sent to the
    coefficients from the depth-1 layer behind each face (module docstring);
    no node array is built.
    """
    grid = g.grid
    d = grid.dim
    h2 = [h * h for h in grid.mesh]
    layers = {}
    for (a, side), face in g.faces.items():
        face = _cede_lower_edges(face.copy(), a)
        layer = face[(slice(1, -1),) * (d - 1)].copy()
        for j, s in enumerate(x for x in range(d) if x != a):
            sl = [slice(1, -1)] * (d - 1)
            sl[j] = slice(None)
            layer += (h2[a] + h2[s]) / 12.0 / h2[s] * _d2(face[tuple(sl)], j)
        layers[a, side] = layer * (-1.0 / h2[a])
    return _add_layer(np.zeros(grid.interior_shape), grid, layers, 1)


def check_panels(grid: UniformGrid, order: int) -> None:
    """Raise ShapeError when a 2D/3D grid is too coarse for the order's stencils."""
    need = MIN_PANELS[order]
    if grid.dim > 1 and min(grid.panels) < need:
        raise ShapeError(
            f"order {order} needs at least {need} panels per axis, but the "
            f"padded grid has {grid.panels}; raise padding_panels (each "
            f"unit adds two panels per axis) or refine the grid"
        )


def _owner(grid: UniformGrid, layer: dict, at: dict):
    """The face array and index holding the shell nodes ``at`` describes.

    ``at`` maps axes to (depth, side), depth 1 on at least one of them;
    every other axis takes its depth >= 2 range.  A node belongs to the
    face of its lowest depth-1 axis.
    """
    a = min(s for s, (depth, _) in at.items() if depth == 1)
    idx = []
    for s, m in enumerate(grid.panels):
        if s == a:
            continue
        if s in at:
            depth, side = at[s]
            idx.append(depth - 1 if side == 0 else m - 1 - depth)
        else:
            idx.append(slice(1, -1))
    return layer[a, at[a][1]], tuple(idx)


def _face_terms(g: BoundaryValues, weight) -> dict:
    """sum_{s != a} c_as D2_s of each face's data on its depth >= 2 nodes.

    The width-two stencil's taps that reach the boundary data, entering the
    right-hand side on the depth-2 layer behind face (a, side).  Returned on
    the face's interior nodes, zero at in-face depth 1.
    """
    grid = g.grid
    d = grid.dim
    terms = {}
    for (a, side), face in g.faces.items():
        term = np.zeros([m - 1 for s, m in enumerate(grid.panels) if s != a])
        deep = term[(slice(1, -1),) * (d - 1)]
        for j, s in enumerate(x for x in range(d) if x != a):
            sl = [slice(2, -2)] * (d - 1)
            sl[j] = slice(1, -1)
            deep += weight(a, s) * _d2(face[tuple(sl)], j)
        terms[a, side] = term
    return terms


def _correction_rhs(g: BoundaryValues, u: np.ndarray) -> np.ndarray:
    """Sine coefficients of the 6th order correction's right-hand side.

    ``u`` holds the 4th order solution's coefficients.  Built by the
    identity in the module docstring, without a full-volume node array or
    DST; equal to the forward DST of the dense right-hand side in
    ``tests/oracles.py``.
    """
    grid = g.grid
    d = grid.dim
    h2 = [h * h for h in grid.mesh]
    mu = [2.0 * np.cos(np.arange(1, m) * np.pi / m) - 2.0 for m in grid.panels]

    def weight(r, s):
        return 1.0 / (240.0 * h2[s]) + 1.0 / (144.0 * h2[r])

    coeff = _pair_sum(grid.interior_shape, {
        (r, s): weight(r, s) * np.multiply.outer(mu[r] ** 2, mu[s])
        + weight(s, r) * np.multiply.outer(mu[r], mu[s] ** 2)
        for r, s in itertools.combinations(range(d), 2)
    })
    coeff *= u
    _add_layer(coeff, grid, _face_terms(g, weight), 2)

    # Per face: the series at depth 1 and extrapolated from depths 2..5.
    # Odd and even k are contracted apart (sum: near face, difference: far
    # face), by rows that undo the in-face DST-I's factor 2 per axis.
    shell, layer = {}, {}
    for a, m in enumerate(grid.panels):
        kpi = np.arange(1, m) * np.pi / m
        extrapolated = sum(e * np.sin(j * kpi) for j, e in enumerate(_EXTRAPOLATE, start=2))
        rows = np.stack([np.sin(kpi), extrapolated]) / 2.0 ** (d - 1)
        odd, even = (
            np.einsum("k...,rk->r...", np.moveaxis(coeff, a, 0)[p::2], rows[:, p::2])
            for p in (0, 1)
        )
        values = sfft.dstn(np.stack([odd + even, odd - even]), type=1, axes=range(2, d + 1))
        for side in (0, 1):
            shell[a, side] = values[side, 0]
            layer[a, side] = values[side, 1]

    # Edges, then corners: the mean of the extrapolations along their depth-1
    # axes.  A node's value is kept in the face of its lowest depth-1 axis.
    for t in range(2, d + 1):
        for axes in itertools.combinations(range(d), t):
            for sides in itertools.product((0, 1), repeat=t):
                at = {a: (1, side) for a, side in zip(axes, sides)}
                total = 0.0
                for a, (_, side) in at.items():
                    for depth, e in enumerate(_EXTRAPOLATE, start=2):
                        face, idx = _owner(grid, layer, {**at, a: (depth, side)})
                        total = total + e * face[idx]
                face, idx = _owner(grid, layer, at)
                face[idx] = total / t

    # Back to coefficients: the depth-1 layer's change from the series.
    for (a, side), x in layer.items():
        _cede_lower_edges(np.subtract(x, shell[a, side], out=x), a)
    return _add_layer(coeff, grid, layer, 1)


def harmonic_modes(g: BoundaryValues, order: int) -> np.ndarray:
    """Sine coefficients of the 4th or 6th order harmonic extension of g."""
    grid = g.grid
    check_panels(grid, order)
    symbol = build_operator_symbol(grid)
    modes = transfer_boundary_to_rhs(g)
    modes /= symbol
    if order == 6:
        correction = _correction_rhs(g, modes)
        correction /= symbol
        modes += correction
    return modes


def solve_harmonic_1d(g_left: float, g_right: float, grid: UniformGrid) -> GridFunction:
    """Exact 1D harmonic solution: the linear interpolant of the endpoints."""
    if grid.dim != 1:
        raise ShapeError("solve_harmonic_1d needs a one-dimensional grid")
    t = np.arange(grid.panels[0] + 1) / grid.panels[0]
    values = float(g_left) * (1.0 - t) + float(g_right) * t
    return GridFunction(grid, values)
