import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freepoisson import GridFunction, ShapeError, UniformGrid
from freepoisson.dirichlet import _support_box, _support_lines, check_support
from freepoisson.transforms import _dst_support_in_place, _series_in_place, next_smooth_length
from oracles import zero_function


def forward(f: GridFunction) -> np.ndarray:
    """The solver's forward transform of ``f``'s interior, scaled.

    In place in a copy, on the box of the lines that hold a nonzero value.
    """
    coeff = np.array(f.interior())
    _dst_support_in_place(coeff, _support_box(_support_lines(coeff)))
    coeff *= 1.0 / np.prod([float(m) for m in f.grid.panels])
    return coeff


def inverse(coeff: np.ndarray, grid: UniformGrid) -> GridFunction:
    """The solver's inverse transform, in place in a node array with zero boundary nodes."""
    values = np.zeros(grid.shape)
    values[(slice(1, -1),) * grid.dim] = coeff
    return _series_in_place(values, grid)


def dst_forward_oracle(f: GridFunction) -> np.ndarray:
    """Direct double/triple sum of the sine-series coefficient definition."""
    grid = f.grid
    out = np.zeros(grid.interior_shape)
    lengths = [grid.upper[s] - grid.lower[s] for s in range(grid.dim)]
    for k in np.ndindex(out.shape):
        total = 0.0
        for i in np.ndindex(out.shape):
            term = f.values[tuple(ii + 1 for ii in i)]
            for s in range(grid.dim):
                term *= np.sin((k[s] + 1) * np.pi * (i[s] + 1) / grid.panels[s])
            total += term
        scale = 1.0
        for s in range(grid.dim):
            scale *= (2.0 / lengths[s]) * grid.mesh[s]
        out[k] = total * scale
    return out


def dst_inverse_oracle(grid: UniformGrid, c: np.ndarray) -> np.ndarray:
    """Direct series summation at the interior nodes."""
    out = np.zeros(grid.interior_shape)
    for i in np.ndindex(out.shape):
        total = 0.0
        for k in np.ndindex(out.shape):
            term = c[k]
            for s in range(grid.dim):
                term *= np.sin((k[s] + 1) * np.pi * (i[s] + 1) / grid.panels[s])
            total += term
        out[i] = total
    return out


def test_single_mode_has_unit_coefficient():
    g = UniformGrid([-1.0, 0.5], [2.0, 3.5], [8, 10])
    f = GridFunction.from_callable(
        g,
        lambda x, y: np.sin(np.pi * (x - g.lower[0]) / 3.0)
        * np.sin(np.pi * (y - g.lower[1]) / 3.0),
    )
    beta = forward(f)
    assert beta[0, 0] == pytest.approx(1.0, abs=1e-13)
    rest = beta.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-13


def test_forward_of_zero_is_zero():
    for panels in ([9], [5, 5], [8, 9, 7]):  # an empty support box: every line is skipped
        g = UniformGrid([0] * len(panels), [1] * len(panels), panels)
        got = forward(zero_function(g))
        assert got.shape == g.interior_shape and np.all(got == 0.0)


@pytest.mark.parametrize(
    "bounds,panels",
    [(((-1.0,), (2.0,)), (9,)),
     (((-1.0, 0.5), (2.0, 3.5)), (8, 10)),
     (((0.0, 0.0, -1.0), (1.0, 2.0, 1.0)), (4, 5, 6))],
)
def test_forward_matches_brute_force(bounds, panels):
    rng = np.random.default_rng(42)
    g = UniformGrid(bounds[0], bounds[1], panels)
    vals = np.zeros(g.shape)
    vals[(slice(1, -1),) * g.dim] = rng.standard_normal(g.interior_shape)
    f = GridFunction(g, vals)
    fast = forward(f)
    direct = dst_forward_oracle(f)
    assert np.max(np.abs(fast - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_inverse_matches_direct_series():
    rng = np.random.default_rng(3)
    g = UniformGrid([0.0, -1.0], [2.0, 1.0], [6, 7])
    c = rng.standard_normal(g.interior_shape)
    fast = inverse(c, g)
    assert np.all(fast.values[0, :] == 0.0) and np.all(fast.values[:, -1] == 0.0)
    direct = dst_inverse_oracle(g, c)
    assert np.max(np.abs(fast.interior() - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_single_unit_coefficient_gives_sampled_mode():
    g = UniformGrid([0.0, 0.0], [1.0, 1.0], [6, 5])
    c = np.zeros(g.interior_shape)
    c[0, 0] = 1.0
    got = inverse(c, g)
    want = GridFunction.from_callable(
        g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    )
    assert np.max(np.abs(got.interior() - want.interior())) < 1e-14


@pytest.mark.parametrize("panels", [(7,), (8, 9), (4, 6, 5), (11, 13)])
def test_round_trip(panels):
    rng = np.random.default_rng(len(panels))
    g = UniformGrid([0.0] * len(panels), [1.0] * len(panels), panels)
    vals = rng.standard_normal(g.shape)
    f = GridFunction(g, vals)
    back = inverse(forward(f), g)
    err = np.max(np.abs(back.interior() - f.interior()))
    assert err <= 1e-13 * np.max(np.abs(f.values))


def test_linearity():
    rng = np.random.default_rng(9)
    g = UniformGrid([0, 0], [1, 2], [9, 6])
    a = GridFunction(g, rng.standard_normal(g.shape))
    b = GridFunction(g, rng.standard_normal(g.shape))
    combo = GridFunction(g, 2.5 * a.values - 1.25 * b.values)
    lhs = forward(combo)
    rhs = 2.5 * forward(a) - 1.25 * forward(b)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))


def test_next_smooth_length():
    assert next_smooth_length(1) == 1
    assert next_smooth_length(7) == 7
    assert next_smooth_length(11) == 12
    assert next_smooth_length(97) == 98  # 2 * 7 * 7
    assert next_smooth_length(211) == 216
    for n in (13, 37, 101, 499):
        m = next_smooth_length(n)
        assert m >= n
        k = m
        for p in (2, 3, 5, 7):
            while k % p == 0:
                k //= p
        assert k == 1


def test_forward_rejects_degenerate_grid():
    with pytest.raises(ShapeError):
        UniformGrid([0], [1], [1])


def _supported(panels, box, seed) -> GridFunction:
    """Random values on the interior index box ``box`` ((lo, hi) per axis,
    inclusive) of a unit grid with ``panels``, zero elsewhere."""
    g = UniformGrid([0.0] * len(panels), [1.0] * len(panels), panels)
    vals = np.zeros(g.shape)
    inside = tuple(slice(lo + 1, hi + 2) for lo, hi in box)
    vals[inside] = np.random.default_rng(seed).standard_normal(vals[inside].shape)
    return GridFunction(g, vals)


@st.composite
def support_boxes(draw):
    """Panels (2..12 per axis, 1D to 3D) and an interior index box in them."""
    dim = draw(st.integers(1, 3))
    panels = draw(st.lists(st.integers(2, 12), min_size=dim, max_size=dim))
    box = []
    for m in panels:
        lo = draw(st.integers(0, m - 2))
        box.append((lo, draw(st.integers(lo, m - 2))))
    return tuple(panels), tuple(box)


@settings(max_examples=150, deadline=None)
@given(support_boxes(), st.integers(0, 2**32 - 1))
@example(((9,), ((0, 7),)), 1)  # full support, 1D
@example(((8, 9, 7), ((0, 6), (0, 7), (0, 5))), 2)  # full support, 3D
@example(((8, 9, 7), ((0, 0), (0, 0), (0, 0))), 3)  # one node at the lower corner
@example(((8, 9, 7), ((6, 6), (7, 7), (5, 5))), 4)  # one node at the upper corner
@example(((10, 6), ((0, 3), (2, 4))), 5)  # touches the lower end of axis 0
@example(((10, 6), ((5, 8), (0, 4))), 6)  # touches the upper end of axis 0
@example(((6, 7, 8), ((2, 3), (1, 5), (3, 6))), 7)  # touches the upper end of axis 2 only
def test_forward_is_bitwise_equal_to_dstn_on_support_boxes(case, seed):
    panels, box = case
    f = _supported(panels, box, seed)
    # The solver's path: in place on the interior view of a node array, on
    # the support check's box, unscaled, with the boundary nodes untouched.
    support = check_support(f)
    assert support.box == tuple(slice(lo, hi + 1) for lo, hi in box)
    inside = (slice(1, -1),) * len(panels)
    values = f.values.copy()
    _dst_support_in_place(values[inside], support.box)
    assert np.array_equal(values[inside], sfft.dstn(f.interior(), type=1))
    values[inside] = f.values[inside]
    assert np.array_equal(values, f.values)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("panels", [(8, 9), (8, 9, 7)])
def test_forward_never_skips_a_non_finite_line(panels, bad):
    f = _supported(panels, [(2, 4)] * len(panels), 11)
    f.values[(6,) * len(panels)] = bad  # outside the finite support box
    got = np.array(f.interior())
    _dst_support_in_place(got, _support_box(_support_lines(got)))
    np.testing.assert_array_equal(got, sfft.dstn(f.interior(), type=1))
    assert not np.all(np.isfinite(got))
