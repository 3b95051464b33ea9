import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from freepoisson import (
    BoundaryValues,
    GridFunction,
    ShapeError,
    UniformGrid,
)
from freepoisson import harmonic
from freepoisson.dirichlet import continuous_eigenvalues
from freepoisson.harmonic import (
    build_operator_symbol,
    discrete_eigenvalues,
)
from oracles import (
    assemble_dense,
    boundary_array,
    boundary_from_callable,
    boundary_from_full,
    compact_operator_stencil,
    continuous_eigenvalues_pairs,
    correction_q_pairs,
    correlate_valid,
    dst_coefficients,
    modes_of_harmonic,
    operator_symbol_pairs,
    row_blocks_assembled,
    sine_series,
    sixth_order_rhs,
    solve_harmonic,
    zero_function,
)

RNG = np.random.default_rng(2024)


def full_symbol(g: UniformGrid, step: int = 2) -> np.ndarray:
    """The operator's symbol on every mode, assembled from blocks of ``step`` rows."""
    return row_blocks_assembled(build_operator_symbol(g), g.panels[0] - 1, step)


def transfer_modes(g: BoundaryValues) -> np.ndarray:
    """Sine coefficients of minus the compact operator applied to g extended by zero.

    The boundary transfer's scatters, which the solver's first sweep adds
    block by block, added to zeros in one block.
    """
    scatters = harmonic._layer_scatters(g.grid, harmonic._transfer_layers(g), 1)
    return harmonic._add_scatters(np.zeros(g.grid.interior_shape), slice(None), scatters)


def sampled_sine_mode(grid: UniformGrid, k) -> np.ndarray:
    vals = np.ones(grid.shape)
    for s in range(grid.dim):
        i = np.arange(grid.panels[s] + 1)
        mode = np.sin((k[s] + 1) * np.pi * i / grid.panels[s])
        shape = [1] * grid.dim
        shape[s] = i.size
        vals = vals * mode.reshape(shape)
    return vals


@pytest.mark.parametrize("panels", [(6, 7), (5, 6, 7)])
def test_symbol_matches_stencil_on_every_mode(panels):
    g = UniformGrid([-1.0] * len(panels), [1.0, 2.0, 1.5][: len(panels)], panels)
    symbol = full_symbol(g)
    stencil = compact_operator_stencil(g)
    lam = discrete_eigenvalues(g)
    assert all(np.all(l < 0) for l in lam)
    assert np.all(symbol != 0.0)
    for k in np.ndindex(g.interior_shape):
        mode = sampled_sine_mode(g, k)
        applied = correlate_valid(mode, stencil)
        want = symbol[k] * mode[(slice(1, -1),) * g.dim]
        assert np.max(np.abs(applied - want)) <= 1e-12 * np.max(np.abs(want))


@st.composite
def mode_grids(draw):
    """Anisotropic 2D and 3D grids of 7 to 40 panels per axis."""
    dim = draw(st.sampled_from([2, 3]))
    lower = [draw(st.floats(-2.0, 1.0)) for _ in range(dim)]
    length = [draw(st.floats(0.25, 4.0)) for _ in range(dim)]
    panels = [draw(st.integers(7, 40)) for _ in range(dim)]
    return UniformGrid(lower, [a + b for a, b in zip(lower, length)], panels)


@settings(max_examples=60, deadline=None)
@given(mode_grids(), st.integers(1, 8))
def test_factored_tables_match_pair_sums(g, step):
    # The symbol, Q and the continuous eigenvalues, built factored along
    # axis 0 block by block and assembled from blocks of ``step`` rows,
    # against direct sums of outer products over axis pairs.
    for table, want in [
        (build_operator_symbol(g), operator_symbol_pairs(g)),
        (harmonic._q_table(g), correction_q_pairs(g)),
        (continuous_eigenvalues(g), continuous_eigenvalues_pairs(g)),
    ]:
        got = row_blocks_assembled(table, g.panels[0] - 1, step)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("M", [1024, 4096])
@pytest.mark.parametrize("upper", [(1.0, 1.0), (0.1, 3.0)])
def test_symbol_matches_extended_precision_on_every_mode(M, upper):
    # Mode by mode, not relative to the largest mode: the low modes of the
    # long axis are where 2 cos - 2 would cancel (2e-12 and 2e-11 here).
    g = UniformGrid([-1.0, 0.0], upper, [M, 8])
    want = operator_symbol_pairs(g, np.longdouble)
    assert np.max(np.abs((full_symbol(g, 100) - want) / want)) <= 1e-15


def test_stencil_point_counts():
    g2 = UniformGrid([0, 0], [1, 1], [4, 4])
    assert np.count_nonzero(compact_operator_stencil(g2)) == 9
    g3 = UniformGrid([0, 0, 0], [1, 1, 1], [4, 4, 4])
    assert np.count_nonzero(compact_operator_stencil(g3)) == 19


def random_boundary(g: UniformGrid) -> BoundaryValues:
    full = RNG.standard_normal(g.shape)
    full[(slice(1, -1),) * g.dim] = 0.0
    return boundary_from_full(g, full)


def independent_faces(g: UniformGrid) -> BoundaryValues:
    """Random faces drawn apart, so they disagree on every shared edge."""
    rng = np.random.default_rng(g.panels)
    return BoundaryValues(g, {
        (a, side): rng.standard_normal([n for s, n in enumerate(g.shape) if s != a])
        for a in range(g.dim) for side in (0, 1)
    })


def test_transfer_zero_is_zero():
    g = UniformGrid([0, 0], [1, 1], [6, 7])
    out = transfer_modes(BoundaryValues(g))
    assert np.all(out == 0.0)


def test_transfer_supported_on_first_layer_only():
    # The coefficients are those of a field that vanishes at depth >= 2:
    # the width-one stencil reaches the boundary only from the first layer.
    g = UniformGrid([0, 0, 0], [1, 1, 2], [8, 9, 7])
    bv = boundary_from_callable(g, lambda x, y, z: np.sin(3 * x) + y * z)
    field = sine_series(transfer_modes(bv), g).values
    scale = np.max(np.abs(field))
    assert np.max(np.abs(field[2:-2, 2:-2, 2:-2])) <= 1e-13 * scale
    assert np.min(np.abs(field[1, 2:-2, 2:-2])) > 1e-3 * scale


def test_transfer_matches_dense_oracle():
    # The dense system's right-hand side, transformed: face, edge and corner
    # data of both sides of every axis, on anisotropic meshes down to the
    # fewest panels an order allows.  Faces that disagree on shared edges
    # pin the rule that an edge node is the lowest axis's face's.
    for panels in [(4, 4), (6, 7), (9, 13), (4, 4, 4), (5, 6, 7), (12, 9, 17)]:
        d = len(panels)
        g = UniformGrid([0.0, -1.0, 0.5][:d], [1.0, 0.5, 2.5][:d], panels)
        for bv in (random_boundary(g), independent_faces(g)):
            _, b = assemble_dense(g, bv)
            want = scipy.fft.dstn(b.reshape(g.interior_shape), type=1) / np.prod(panels)
            got = transfer_modes(bv)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), panels


@pytest.mark.parametrize("shape", [(7, 6), (6, 9), (5, 8, 7), (8, 5, 6)])
@pytest.mark.parametrize("planes", [1, 2, 3])
def test_scatter_across_block_boundaries(shape, planes):
    # The sweeps scatter into blocks of a few planes of the first axis,
    # whichever axis is scattered; the last block is partial where the
    # planes do not divide the first extent, on the last axis too: (7, 6)
    # and (5, 8, 7) at 2 and 3 planes, (8, 5, 6) at 3.  The sum must not
    # depend on where the blocks fall.  The solver's (n, 2) parity tables
    # give each output one product; a four-column (two-depth) table gives
    # it two, so those data are small integers, whose sums are exact in any
    # order.
    rng = np.random.default_rng(sum(shape) + planes)
    for depths in (1, 2):
        def draw(*size):
            return rng.standard_normal(size) if depths == 1 else rng.integers(-8, 9, size) * 1.0

        for axis, n in enumerate(shape):
            face = [m for s, m in enumerate(shape) if s != axis]
            table = np.zeros((n, 2 * depths))
            for c in range(depths):  # odd k take column 2c, even k column 2c + 1
                row = draw(n)
                table[0::2, 2 * c] = row[0::2]
                table[1::2, 2 * c + 1] = row[1::2]
            faces = draw(2 * depths, *face)
            out = draw(*shape)
            expected = out.copy()
            view = np.moveaxis(expected, axis, 0)
            for c in range(2 * depths):
                view += table[:, c].reshape((-1,) + (1,) * len(face)) * faces[c]
            for start in range(0, shape[0], planes):
                rows = slice(start, start + planes)
                harmonic._add_scatters(out[rows], rows, {axis: (table, faces)})
            assert np.array_equal(out, expected), (depths, axis)


@pytest.mark.parametrize("dim", [2, 3])
def test_exactness_on_low_degree_data(dim):
    panels = [12, 10, 8][:dim]
    g = UniformGrid([-1.0] * dim, [1.0, 1.5, 1.2][:dim], panels)
    cases = [
        lambda *xs: np.full_like(xs[0] + sum(xs[1:]), 3.25),
        lambda *xs: 2.0 * xs[0] - 0.75 * xs[1] + 0.1,
        lambda *xs: xs[0] ** 2 - xs[-1] ** 2,
    ]
    for fn in cases:
        exact = GridFunction.from_callable(g, fn)
        bv = boundary_from_callable(g, fn)
        scale = np.max(np.abs(exact.values))
        boundary_mask = np.ones(g.shape, dtype=bool)
        boundary_mask[(slice(1, -1),) * dim] = False
        g_full = boundary_array(bv)
        for order in (4, 6):
            u = solve_harmonic(bv, order)
            assert np.max(np.abs(u.values - exact.values)) <= 1e-11 * scale
            # boundary nodes carry the Dirichlet data bitwise
            assert np.array_equal(u.values[boundary_mask], g_full[boundary_mask])


@pytest.mark.parametrize(
    "bounds,panels",
    [(((0.0, 0.0), (1.0, 1.0)), (8, 8)),
     (((-1.0, 0.0), (1.0, 1.0)), (8, 7)),
     (((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), (6, 6, 6))],
)
def test_dense_solve_equivalence(bounds, panels):
    g = UniformGrid(bounds[0], bounds[1], panels)
    bv = boundary_from_callable(
        g, lambda *xs: np.sin(3 * xs[0]) + np.cos(2 * xs[1]) + 0.3 * xs[-1]
    )
    A, b = assemble_dense(g, bv)
    dense = np.linalg.solve(A, b).reshape(g.interior_shape)
    u = solve_harmonic(bv, 4)
    err = np.max(np.abs(u.interior() - dense))
    assert err <= 1e-10 * np.max(np.abs(dense))


def test_degree5_harmonic_reproduced_exactly_by_4th_order():
    # the compact operator annihilates harmonic polynomials of degree <= 5,
    # so the solve reproduces them to roundoff at every mesh
    fn = lambda x, y: np.real((x + 1j * y) ** 5)
    for bounds in (((-1, -1), (1, 1)), ((-1, -1), (1, 1.5))):
        for M in (16, 32):
            g = UniformGrid(bounds[0], bounds[1], [M, M])
            exact = GridFunction.from_callable(g, fn)
            u = solve_harmonic(boundary_from_callable(g, fn), 4)
            err = np.max(np.abs(u.values - exact.values))
            assert err <= 1e-12 * np.max(np.abs(exact.values))


def test_degree7_harmonic_reproduced_exactly_by_6th_order_square_mesh():
    fn = lambda x, y: np.real((x + 1j * y) ** 7)
    for M in (16, 32):
        g = UniformGrid([-1, -1], [1, 1], [M, M])
        exact = GridFunction.from_callable(g, fn)
        u = solve_harmonic(boundary_from_callable(g, fn), 6)
        err = np.max(np.abs(u.values - exact.values))
        assert err <= 1e-12 * np.max(np.abs(exact.values))


def convergence_slope(fn, order, bounds, panels_list, dim):
    errs = []
    for M in panels_list:
        g = UniformGrid(bounds[0], bounds[1], [M] * dim)
        exact = GridFunction.from_callable(g, fn)
        u = solve_harmonic(boundary_from_callable(g, fn), order)
        errs.append(
            np.max(np.abs(u.values - exact.values)) / np.max(np.abs(exact.values))
        )
    hs = [(bounds[1][0] - bounds[0][0]) / M for M in panels_list]
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0]), errs


def test_fourth_order_rate_on_anisotropic_mesh():
    # on square meshes the compact operator is superconvergent for harmonic
    # data; an anisotropic mesh exposes the generic 4th order rate
    fn = lambda x, y: np.exp(x) * np.cos(y)
    slope, _ = convergence_slope(
        fn, 4, ((-1, -1), (1, 2.0)), [16, 24, 32, 48], 2
    )
    assert slope == pytest.approx(4.0, abs=0.3)


def test_sixth_order_rate_on_anisotropic_mesh():
    fn = lambda x, y: np.exp(x) * np.cos(y)
    slope, _ = convergence_slope(
        fn, 6, ((-1, -1), (1, 2.0)), [16, 24, 32, 48], 2
    )
    assert slope == pytest.approx(6.0, abs=0.4)


def test_rates_3d_true_harmonic():
    a, b = 1.0, 2.0
    c = np.sqrt(a * a + b * b)
    fn = lambda x, y, z: np.sin(a * x) * np.sin(b * y) * np.sinh(c * z)
    slope4, _ = convergence_slope(
        fn, 4, ((-1, -1, -1), (1, 1, 1)), [8, 12, 16, 24], 3
    )
    assert slope4 == pytest.approx(4.0, abs=0.4)
    slope6, _ = convergence_slope(
        fn, 6, ((-1, -1, -1), (1, 1, 1)), [8, 12, 16, 24], 3
    )
    assert slope6 >= 5.4


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: on a square 2D mesh the depth-1 extrapolation's "
    "h^6 error exceeds the compact operator's, so order 6 loses to order 4",
)
@pytest.mark.parametrize("M", [16, 32, 64])
def test_sixth_order_no_worse_than_fourth_on_square_mesh(M):
    fn = lambda x, y: np.exp(x) * np.cos(y)
    g = UniformGrid([-1, -1], [1, 1], [M, M])
    exact = GridFunction.from_callable(g, fn)
    bv = boundary_from_callable(g, fn)
    err4, err6 = (
        np.max(np.abs(solve_harmonic(bv, order).values - exact.values))
        for order in (4, 6)
    )
    assert err6 <= err4


@pytest.mark.parametrize(
    "panels",
    [(7, 7), (8, 11), (16, 16), (20, 33), (7, 12),
     (7, 7, 7), (8, 9, 11), (12, 9, 17), (30, 24, 20), (12, 7, 9)],
)
def test_sixth_order_modes_match_dense_correction(panels):
    # The sine-space correction against the dense sweep: the 4th order
    # solution evaluated at every node, the width-two right-hand side with
    # its extrapolated layer, and a full forward DST.  M = 7 is the case
    # where a face's depth-5 row is the opposite face's depth-2 row; the
    # mixed grids put it on one axis only.  Faces that disagree on shared
    # edges pin the rule that an edge node is the lowest axis's face's.
    d = len(panels)
    lower = RNG.uniform(-1.0, 0.0, d)
    g = UniformGrid(lower, lower + RNG.uniform(0.5, 2.0, d), panels)
    for bv in (random_boundary(g), independent_faces(g)):
        modes4 = modes_of_harmonic(bv, 4)
        u1 = sine_series(modes4, g, boundary_array(bv))
        correction = dst_coefficients(sixth_order_rhs(u1)) / full_symbol(g)
        want = modes4 + correction
        got = modes_of_harmonic(bv, 6)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_sixth_order_rhs_annihilates_constants_and_quadratics():
    g = UniformGrid([-1, -1], [1, 1], [10, 12])
    for fn in (lambda x, y: np.full_like(x + y, 4.2),
               lambda x, y: x * x - y * y):
        u1 = GridFunction.from_callable(g, fn)
        rhs = sixth_order_rhs(u1)
        assert np.max(np.abs(rhs.values)) < 1e-11


def test_sixth_order_rhs_deep_region_matches_nested_stencils():
    g = UniformGrid([-1.0, -1.0], [1.0, 1.0], [12, 11])
    hx, hy = g.mesh
    u1 = GridFunction.from_callable(g, lambda x, y: x**4 * y**2)
    rhs = sixth_order_rhs(u1)

    def d2(arr, axis, h):
        sl = [slice(None)] * arr.ndim
        lo, mid, hi = list(sl), list(sl), list(sl)
        lo[axis] = slice(0, -2)
        mid[axis] = slice(1, -1)
        hi[axis] = slice(2, None)
        return (arr[tuple(lo)] - 2 * arr[tuple(mid)] + arr[tuple(hi)]) / h**2

    v = u1.values
    cx = hx**4 / 240.0 + hx**2 * hy**2 / 144.0
    cy = hy**4 / 240.0 + hx**2 * hy**2 / 144.0
    term_x = cx * d2(d2(d2(v, 1, hy), 0, hx), 0, hx)  # extent (-4, -2)
    term_y = cy * d2(d2(d2(v, 1, hy), 1, hy), 0, hx)  # extent (-2, -4)
    oracle = term_x[:, 1:-1] + term_y[1:-1, :]
    got = rhs.values[2:-2, 2:-2]
    assert np.max(np.abs(got - oracle)) <= 1e-11 * max(1.0, np.max(np.abs(oracle)))


def test_sixth_order_rhs_extrapolated_layer_exact_for_linear_rhs():
    # for u = x^5 y^2 the correction terms reduce to a linear function of x,
    # so the cubic boundary extrapolation must reproduce it exactly
    g = UniformGrid([-1.0, -1.0], [1.0, 1.0], [12, 10])
    hx, hy = g.mesh
    u1 = GridFunction.from_callable(g, lambda x, y: x**5 * y**2)
    rhs = sixth_order_rhs(u1)
    cx = hx**4 / 240.0 + hx**2 * hy**2 / 144.0
    want = GridFunction.from_callable(g, lambda x, y: 240.0 * cx * x + 0 * y)
    got = rhs.values[1:-1, 1:-1]
    scale = np.max(np.abs(want.values))
    assert np.max(np.abs(got - want.values[1:-1, 1:-1])) <= 1e-10 * scale


def test_max_principle_surrogate():
    rng = np.random.default_rng(17)
    for bounds, panels in [
        (((0.0, 0.0), (1.0, 1.0)), (8, 8)),
        (((0.0, -1.0), (1.0, 0.5)), (10, 12)),
        (((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), (6, 6, 6)),
    ]:
        g = UniformGrid(bounds[0], bounds[1], panels)
        for _ in range(10):
            full = np.zeros(g.shape)
            mask = np.ones(g.shape, dtype=bool)
            mask[(slice(1, -1),) * g.dim] = False
            full[mask] = rng.uniform(-1.0, 1.0, size=int(mask.sum()))
            bv = boundary_from_full(g, full)
            u = solve_harmonic(bv, 4)
            assert u.values.min() >= full[mask].min() - 1e-10
            assert u.values.max() <= full[mask].max() + 1e-10


def test_1d_modes_reproduce_linear_interpolant():
    # In 1D the compact operator is D2, whose harmonic solution is linear,
    # and the 6th order correction is identically zero.
    for M in (8, 1000, 100000):
        g = UniformGrid([-1.0], [1.5], [M])
        bv = BoundaryValues(g, {(0, 0): 0.75, (0, 1): -2.5})
        t = np.arange(M + 1) / M
        want = 0.75 * (1.0 - t) - 2.5 * t
        assert np.max(np.abs(solve_harmonic(bv, 4).values - want)) <= 1e-14 * 2.5, M
        assert np.array_equal(modes_of_harmonic(bv, 6), modes_of_harmonic(bv, 4)), M


def test_size_preconditions():
    small = UniformGrid([0, 0], [1, 1], [3, 8])
    with pytest.raises(ShapeError):
        solve_harmonic(BoundaryValues(small), 4)
    six = UniformGrid([0, 0], [1, 1], [6, 8])
    with pytest.raises(ShapeError):
        sixth_order_rhs(zero_function(six))
    with pytest.raises(ShapeError):
        solve_harmonic(BoundaryValues(six), 6)


def test_sixth_order_rhs_deep_region_matches_dense_stencil_3d():
    # Reference: the dense 5x5x5 stencil sum_{r != s} c_rs D4_r D2_s.
    g = UniformGrid([-1.0, -0.5, -1.0], [1.0, 1.0, 0.8], [14, 12, 16])
    h = g.mesh
    u1 = GridFunction.from_callable(
        g, lambda x, y, z: np.sin(3 * x) * np.cos(4 * y) * np.exp(2 * z)
    )
    d4 = np.array([1.0, -4.0, 6.0, -4.0, 1.0])
    d2 = np.array([0.0, 1.0, -2.0, 1.0, 0.0])
    delta = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    stencil = np.zeros((5, 5, 5))
    for r in range(3):
        for s in range(3):
            if r != s:
                parts = [delta] * 3
                parts[r] = d4 / h[r] ** 4
                parts[s] = d2 / h[s] ** 2
                c = h[r] ** 4 / 240.0 + h[r] ** 2 * h[s] ** 2 / 144.0
                stencil += c * np.multiply.outer(np.multiply.outer(parts[0], parts[1]), parts[2])
    want = correlate_valid(u1.values, stencil)
    got = sixth_order_rhs(u1).values[2:-2, 2:-2, 2:-2]
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_sixth_order_rhs_extrapolated_edges_and_corners_exact_3d():
    # For u = x^5 y^2 the correction is 240 c_xy x, linear along every
    # normal, so the cubic extrapolation reproduces it on faces, edges and
    # corners of the depth-1 layer.
    g = UniformGrid([-1.0, -1.0, -1.0], [1.0, 1.0, 0.5], [12, 10, 9])
    hx, hy, _ = g.mesh
    u1 = GridFunction.from_callable(g, lambda x, y, z: x**5 * y**2 + 0 * z)
    rhs = sixth_order_rhs(u1)
    cx = hx**4 / 240.0 + hx**2 * hy**2 / 144.0
    want = GridFunction.from_callable(g, lambda x, y, z: 240.0 * cx * x + 0 * y * z)
    scale = np.max(np.abs(want.values))
    assert np.max(np.abs(rhs.interior() - want.interior())) <= 1e-10 * scale
