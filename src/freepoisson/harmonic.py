"""High order solution of Laplace's equation on the box with Dirichlet data.

The 4th order scheme solves the compact width-one operator

    Delta_h + sum_{r<s} c_rs D2_r D2_s,    c_rs = (h_r^2 + h_s^2)/12,

whose eigenvectors are the discrete sine modes, so the linear system
diagonalizes under a DST.  Note the eigenvalues here are the *difference*
ones, mu(k)/h^2 with mu(k) = 2 cos(k pi / M) - 2, not the continuous
eigenvalues used by the spectral Poisson solve; the two tables must never
be mixed.  Every table takes mu from :func:`_mode_table`, in the form
-4 sin^2(k pi / (2M)), which is accurate to a few ulps for every k; the
form 2 cos - 2 cancels at low k and loses more digits the larger M is (a
relative symbol error of 2e-11 at M = 4096).  The symbol adds no
cancellation of its own: with x_s = -mu_s in (0, 4) it equals
sum_s -(x_s / h_s^2)(1 - sum_{r != s} x_r / 12), whose terms are each
below -x_s / (3 h_s^2), so it never vanishes and it is as accurate as the
tables (within 8e-16 relative of an extended-precision reference on 2D
grids of up to 4096 panels per axis).

In one dimension the same code runs: the operator is plain D2, whose
discrete harmonic solution is the linear interpolant of the two end
values, and the 6th order correction is identically zero, as Q and the
face terms below have no axis pairs s != r; the order is moot there.

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
normal, at edges and corners along each depth-1 axis in turn (the tensor
product: extrapolations along different axes commute).

:func:`harmonic_modes` adds the solution's sine coefficients to an array
that holds the spectral Poisson component's, so the free-space solver
evaluates both with one shared inverse DST.  Only what must touch the
whole volume does:

* Boundary transfer.  The compact operator's taps reach the boundary data
  extended by zero only from the depth-1 layer behind each face, so minus
  the operator applied to it is, on the layer behind face (a, side),

      -(1 / h_a^2) (1 + sum_{s != a} c_as D2_s / h_s^2) of the face data,

  with D2_s the undivided second difference along the face (the 19-point
  stencil has no corner taps).  An edge node
  is counted by the face of its lowest axis, as in
  :meth:`BoundaryValues.write_into`: a face's data are zeroed on its
  edges with lower axes first.  A value on the layer at depth j behind a
  face reaches the coefficients through one in-face DST times
  2 sin(j k pi / M) along the normal (the far face with the (-1)^(k+1)
  parity), so the work is O(face) plus one pass over the coefficients per
  axis.
* Correction in sine space.  Write u1 = V + G, V the 4th order sine series
  (coefficients u) and G the boundary data extended by zero.  The undivided
  difference D2_s is diagonal on V with the mode table mu_s, so on
  nodes of depth >= 2 the correction sum_r D4_r (sum_{s != r} w_rs D2_s u1),
  with D4_r = D2_r^2 and w_rs = 1/(240 h_s^2) + 1/(144 h_r^2), equals the
  series W of Q u,

      Q = sum_r mu_r^2 sum_{s != r} w_rs mu_s,

  plus, on each depth-2 layer, sum_{s != r} w_rs D2_s of that face's data
  (the only taps of the width-two stencil that reach G).  With F the
  forward DST, the right-hand side's coefficients are therefore

      Q u - F(W on the depth-1 shell) + F(depth-2 face terms)
          + F(extrapolated depth-1 layer).

  Per face, W at depth 1 and W extrapolated from depths 2..5 come from
  contracting Q u along the normal with the rows sin(k pi / M) and
  4 s_2 - 6 s_3 + 4 s_4 - s_5 (s_j = sin(j k pi / M); the far face takes
  the (-1)^(k+1) parity), then one batched in-face DST.  The depth-2 face
  terms are added to Q u first, so the extrapolation reads them like any
  other value.  Each face array then takes the same extrapolation along
  its in-face axes above its own, which fills its edges and corners.  Each
  face's depth-1 change goes back like the boundary transfer, a depth-1
  node being counted by the face of its lowest depth-1 axis.
* Scatters and contractions.  A scatter adds a face pair's in-face DSTs,
  times the normal's row, to a block of the coefficients, as one
  ``matmul`` with an (n, 2) table: the row zeroed off odd k in one column
  and off even k in the other.  Every table row has one nonzero entry, so
  every output of a product is one rounded product plus exact zeros:
  neither BLAS's blocking, nor its use of FMA, nor its thread count can
  change a bit, and the result is that of an elementwise loop.  A product
  with two nonzero terms per row, or a sum over k in BLAS, has no such
  guarantee; with OpenBLAS both were seen to change bits between one and
  two threads.  So the depth-1 and depth-2 layers go through separate
  scatters, and the contractions along the normals stay elementwise
  (``np.einsum``, no BLAS); along axis 0 they are summed block by block.
* Tables.  The operator's symbol, Q and the spectral solve's continuous
  eigenvalues are never built as full arrays.  Each is factored along
  axis 0, from contiguous tables over the trailing axes built once, and
  evaluated per block of axis-0 rows (``grid._row_blocks``), which is
  divided into (or multiplied with) the coefficients while it is in cache:
  the symbol as lam_0 A + P, and Q as (mu_0 Y + X) mu_0 + P.
* Arrays.  :func:`harmonic_modes` adds into the coefficient array it is
  given in two sweeps over blocks of axis-0 rows, each block built in a
  buffer of its own, and makes no full-volume DST.  Sweep 1: the transfer
  scatters, divided by the symbol, give u, which is added; for order 6 the
  buffer then becomes Q u plus the depth-2 face-term scatters, is
  contracted along every normal, divided by the symbol and added.  Then,
  on O(face) arrays, the shell and the extrapolation, edges and corners
  per face.
  Sweep 2 (order 6): the depth-1 change scatters, divided by the symbol,
  are added.  What is alive meanwhile is stated in
  ``solver.solve_free_space``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ShapeError
from .grid import BoundaryValues, UniformGrid, _row_blocks
from .transforms import sfft

__all__ = ["check_panels", "harmonic_modes"]

# Cubic extrapolation to depth 1 from depths 2, 3, 4, 5 along a normal.
_EXTRAPOLATE = np.array([4.0, -6.0, 4.0, -1.0])

# Fewest panels per axis each order's stencils fit in.
MIN_PANELS = {4: 4, 6: 7}


def _mode_table(m: int) -> np.ndarray:
    """mu(k) = 2 cos(k pi / m) - 2 for k = 1 .. m-1, as -4 sin^2(k pi / (2m)).

    The undivided D2's eigenvalue per discrete sine mode; the sine form has
    no cancellation at low k (module docstring).
    """
    return -4.0 * np.sin(np.arange(1, m) * (np.pi / (2 * m))) ** 2


def discrete_eigenvalues(grid: UniformGrid) -> list[np.ndarray]:
    """Per-axis eigenvalues mu_s / h_s^2 of D2 on the discrete sine modes (all negative)."""
    return [_mode_table(m) / h**2 for m, h in zip(grid.panels, grid.mesh)]


def _compact_weights(grid: UniformGrid) -> dict:
    """The compact operator's weights c_rs (module docstring), per ordered axis pair."""
    h2 = [h * h for h in grid.mesh]
    return {(r, s): (h2[r] + h2[s]) / 12.0 for r, s in itertools.permutations(range(grid.dim), 2)}


def build_operator_symbol(grid: UniformGrid):
    """The operator's eigenvalue per discrete sine mode, block by block.

    Returns ``symbol(rows)``, the table on the modes ``rows`` of axis 0.
    It is factored along axis 0 as lam_0 A + P, with A = 1 + sum_{s>0}
    c_0s lam_s and P the rest, two contiguous tables over the trailing axes
    built once: each block is two passes over whole trailing planes, and
    the full table is never built.
    """
    lam = discrete_eigenvalues(grid)
    c = _compact_weights(grid)
    trail = np.ix_(*lam[1:])
    slope = 1.0 + sum(c[0, s] * trail[s - 1] for s in range(1, grid.dim))
    rest = sum(trail) + sum(
        c[r, s] * trail[r - 1] * trail[s - 1]
        for r, s in itertools.combinations(range(1, grid.dim), 2)
    )

    def symbol(rows: slice) -> np.ndarray:
        block = np.multiply.outer(lam[0][rows], slope)
        block += rest
        return block

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


def _add_in_face_d2(out: np.ndarray, face: np.ndarray, weights, depth: int) -> None:
    """``out += sum_j weights[j] D2_j`` of ``face`` at in-face depth >= ``depth``.

    D2_j is the undivided second difference along the face's axis j, and
    ``out`` holds the face less ``depth`` nodes at both ends of every axis.
    """
    for j, w in enumerate(weights):
        box = [slice(depth, -depth)] * face.ndim
        box[j] = slice(depth - 1, face.shape[j] - depth + 1)
        out += w * _d2(face[tuple(box)], j)


def _scatter(out: np.ndarray, axis: int, table: np.ndarray, faces: np.ndarray) -> None:
    """``out += sum_c table[k, c] faces[c]`` spread along ``axis``, as one ``matmul``.

    ``table`` is (n, C) over k along ``axis``; ``faces`` is (C, *face).  On
    axis 0 the table times faces as (C, B); on the last axis faces as
    (C, A) transposed times the table transposed; on the middle axis of 3D
    the table times faces as (A, C, B).  ``out`` is a block of a sweep, so
    the product's temporary is block-sized.
    """
    c = table.shape[1]
    if axis == 0:
        out += (table @ faces.reshape(c, -1)).reshape(out.shape)
    elif axis == out.ndim - 1:
        out += (faces.reshape(c, -1).T @ table.T).reshape(out.shape)
    else:
        out += table @ faces.transpose(1, 0, 2)


def _layer_scatters(grid: UniformGrid, layers: dict, depth: int) -> dict:
    """The scatters that send values on the layer ``depth`` behind each face to the coefficients.

    ``layers[a, side]`` holds the values on face (a, side)'s interior nodes.
    Along a the far side's factor is the near side's times (-1)^(k+1), so
    odd k take the sides' in-face DSTs summed and even k differenced: per
    axis, the row zeroed off each parity as an (n, 2) table and the two
    in-face DSTs, for :func:`_add_scatters`.
    """
    scale = 2.0 / np.prod([float(m) for m in grid.panels])
    scatters = {}
    for a, m in enumerate(grid.panels):
        near, far = layers[a, 0], layers[a, 1]
        row = scale * np.sin(depth * np.arange(1, m) * np.pi / m)
        table = np.zeros((m - 1, 2))
        table[0::2, 0] = row[0::2]
        table[1::2, 1] = row[1::2]
        sides = sfft.dstn(np.stack([near + far, near - far]), type=1, axes=range(1, grid.dim))
        scatters[a] = table, sides
    return scatters


def _add_scatters(block: np.ndarray, rows: slice, scatters: dict) -> np.ndarray:
    """Add the ``scatters`` on the axis-0 modes ``rows`` to ``block``, axis by axis; returns it."""
    for a, (table, sides) in scatters.items():
        if a == 0:
            _scatter(block, 0, table[rows], sides)
        else:  # a face of axis a keeps axis 0 first
            _scatter(block, a, table, sides[:, rows])
    return block


def _add_solved(modes: np.ndarray, rows: slice, scatters: dict, symbol) -> np.ndarray:
    """Add the ``scatters``, divided by the symbol, to ``modes[rows]``; returns that block."""
    block = _add_scatters(np.zeros(modes[rows].shape), rows, scatters)
    block /= symbol(rows)
    modes[rows] += block
    return block


def _cede_lower_edges(x: np.ndarray, a: int) -> np.ndarray:
    """Zero face a's outer rows along each lower axis, whose face counts them."""
    for j in range(a):
        x[(slice(None),) * j + ([0, -1],)] = 0.0
    return x


def _transfer_layers(g: BoundaryValues) -> dict:
    """The boundary transfer's values on the depth-1 layer behind each face (module docstring)."""
    grid = g.grid
    d = grid.dim
    h2 = [h * h for h in grid.mesh]
    c = _compact_weights(grid)
    layers = {}
    for (a, side), face in g.faces.items():
        face = _cede_lower_edges(face.copy(), a)
        layer = face[(slice(1, -1),) * (d - 1)].copy()
        _add_in_face_d2(layer, face, [c[a, s] / h2[s] for s in range(d) if s != a], 1)
        layers[a, side] = layer * (-1.0 / h2[a])
    return layers


def check_panels(grid: UniformGrid, order: int) -> None:
    """Raise ShapeError when a 2D/3D grid is too coarse for the order's stencils."""
    need = MIN_PANELS[order]
    if grid.dim > 1 and min(grid.panels) < need:
        raise ShapeError(
            f"order {order} needs at least {need} panels per axis, but the "
            f"padded grid has {grid.panels}; raise padding_panels (each "
            f"unit adds two panels per axis) or refine the grid"
        )


def _correction_weights(grid: UniformGrid) -> dict:
    """The correction's w_rs = 1/(240 h_s^2) + 1/(144 h_r^2), per ordered axis pair."""
    h2 = [h * h for h in grid.mesh]
    return {
        (r, s): 1.0 / (240.0 * h2[s]) + 1.0 / (144.0 * h2[r])
        for r, s in itertools.permutations(range(grid.dim), 2)
    }


def _q_table(grid: UniformGrid):
    """Q = sum_r mu_r^2 sum_{s != r} w_rs mu_s, block by block like the symbol.

    ``q(rows)`` is built as (mu_0 Y + X) mu_0 + P on the modes ``rows`` of
    axis 0, with Y (``slope``), X (``offset``) and P (``rest``, 3D only)
    contiguous tables over the trailing axes built once, so that each pass
    runs along whole trailing planes.
    """
    d = grid.dim
    w = _correction_weights(grid)
    mu = [_mode_table(m) for m in grid.panels]
    trail = np.ix_(*mu[1:])
    slope = sum(w[0, s] * trail[s - 1] for s in range(1, d))
    offset = sum(w[s, 0] * trail[s - 1] ** 2 for s in range(1, d))
    if d == 3:
        rest = w[1, 2] * trail[0] ** 2 * trail[1] + w[2, 1] * trail[0] * trail[1] ** 2

    def q(rows: slice) -> np.ndarray:
        head = mu[0][rows]
        block = np.multiply.outer(head, slope)
        block += offset
        block *= head.reshape((-1,) + (1,) * (d - 1))
        if d == 3:
            block += rest
        return block

    return q


def _face_terms(g: BoundaryValues) -> dict:
    """sum_{s != a} w_as D2_s of each face's data on its depth >= 2 nodes.

    The width-two stencil's taps that reach the boundary data, entering the
    right-hand side on the depth-2 layer behind face (a, side).  Returned on
    the face's interior nodes, zero at in-face depth 1.
    """
    grid = g.grid
    d = grid.dim
    w = _correction_weights(grid)
    terms = {}
    for (a, side), face in g.faces.items():
        term = np.zeros([m - 1 for s, m in enumerate(grid.panels) if s != a])
        _add_in_face_d2(term[(slice(1, -1),) * (d - 1)], face,
                        [w[a, s] for s in range(d) if s != a], 2)
        terms[a, side] = term
    return terms


def _normal_rows(grid: UniformGrid) -> list[np.ndarray]:
    """Per axis, the rows that contract the coefficients along the normal.

    Row 0 gives the series at depth 1, row 1 the cubic extrapolation
    4 s_2 - 6 s_3 + 4 s_4 - s_5 from depths 2..5 (s_j = sin(j k pi / M)),
    both divided by the in-face DST-I's factor 2 per in-face axis.
    """
    rows = []
    for m in grid.panels:
        kpi = np.arange(1, m) * np.pi / m
        extrapolated = sum(e * np.sin(j * kpi) for j, e in enumerate(_EXTRAPOLATE, start=2))
        rows.append(np.stack([np.sin(kpi), extrapolated]) / 2.0 ** (grid.dim - 1))
    return rows


def _contract(block: np.ndarray, rows: slice, normal_rows: list, sums: list) -> None:
    """Add the contractions of ``block``, the modes ``rows`` of axis 0, to ``sums``.

    ``sums[a][p]`` is the contraction along axis a of the modes with k of
    parity p (p = 0: odd k) with ``normal_rows[a]``; it is elementwise
    (``np.einsum``), never BLAS.  The block holds all of the modes of every
    other axis, and a part of axis 0's, whose sums it adds to.
    """
    for a, weights in enumerate(normal_rows):
        modes = np.moveaxis(block, a, 0)
        for p in (0, 1):
            if a == 0:
                first = (p - rows.start) % 2  # the block's first row of parity p
                sums[a][p] += np.einsum("k...,rk->r...", modes[first::2],
                                        weights[:, rows][:, first::2])
            else:
                sums[a][p][:, rows] = np.einsum("k...,rk->r...", modes[p::2], weights[:, p::2])


def _extrapolate_ends(x: np.ndarray, axis: int) -> None:
    """Set ``x``'s end rows along ``axis`` by ``_EXTRAPOLATE`` from the four next to each."""
    x = np.moveaxis(x, axis, 0)
    for end, step in ((0, 1), (-1, -1)):
        x[end] = sum(e * x[end + step * j] for j, e in enumerate(_EXTRAPOLATE, start=1))


def _depth1_change(grid: UniformGrid, sums: list) -> dict:
    """The change of the correction's right-hand side on the depth-1 layer behind each face.

    From the contractions ``sums`` of Q u plus the depth-2 face terms: per
    face, one in-face DST gives the series at depth 1 and the extrapolation
    from depths 2..5 (the sum over parities is the near face, the
    difference the far face).  The face then extrapolates along its in-face
    axes above its own, in turn, which fills its edges and corners (those
    on lower axes are ceded); extrapolations along different axes commute.
    The change is the extrapolation minus the series.
    """
    layers = {}
    for a, (odd, even) in enumerate(sums):
        values = sfft.dstn(np.stack([odd + even, odd - even]), type=1, axes=range(2, grid.dim + 1))
        for side in (0, 1):  # ``...`` keeps a 1D face a 0-d array, not a scalar
            shell, x = values[side, 0, ...], values[side, 1, ...]
            for j in range(a, grid.dim - 1):  # the face's axes above a
                _extrapolate_ends(x, j)
            layers[a, side] = _cede_lower_edges(np.subtract(x, shell, out=x), a)
    return layers


def harmonic_modes(g: BoundaryValues, order: int, modes: np.ndarray) -> np.ndarray:
    """Add the sine coefficients of g's 4th or 6th order harmonic extension to ``modes``.

    ``modes`` may be a strided view, such as the interior of a node array;
    it is added into in blocked sweeps of axis-0 rows (module docstring),
    and no other coefficient array is built.  Returns ``modes``.  In 1D
    both orders give the same coefficients, those of the exact, linear
    solution.  The caller has checked the grid with :func:`check_panels`.
    """
    grid = g.grid
    d = grid.dim
    symbol = build_operator_symbol(grid)
    transfer = _layer_scatters(grid, _transfer_layers(g), 1)
    if order == 6:
        q = _q_table(grid)
        face_terms = _layer_scatters(grid, _face_terms(g), 2)
        normal_rows = _normal_rows(grid)
        sums = [np.zeros((2, 2) + tuple(n for s, n in enumerate(modes.shape) if s != a))
                for a in range(d)]
    for rows in _row_blocks(modes.shape):
        u = _add_solved(modes, rows, transfer, symbol)  # the 4th order coefficients
        if order == 6:  # the correction, less its depth-1 change
            u *= q(rows)
            _add_scatters(u, rows, face_terms)
            _contract(u, rows, normal_rows, sums)
            u /= symbol(rows)
            modes[rows] += u
    if order == 6:  # sweep 2 adds the depth-1 change alone
        del transfer, face_terms, u
        layers = _depth1_change(grid, sums)
        del sums
        change = _layer_scatters(grid, layers, 1)
        del layers
        for rows in _row_blocks(modes.shape):
            _add_solved(modes, rows, change, symbol)
    return modes
