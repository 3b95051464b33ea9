import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freepoisson import GridFunction, ShapeError, UniformGrid, transforms
from freepoisson.dirichlet import _support_box, _support_lines, check_support
from freepoisson.transforms import _dst_support_in_place, next_smooth_length
from oracles import fft_users, src_env, zero_function


def forward(f: GridFunction) -> np.ndarray:
    """The solver's forward transform of ``f``'s interior, scaled.

    In place in a copy, on the box of the lines that hold a nonzero value.
    """
    coeff = np.array(f.interior())
    _dst_support_in_place(coeff, _support_box(_support_lines(coeff)))
    coeff *= 1.0 / np.prod([2.0 * m for m in f.grid.panels])
    return coeff


def inverse(coeff: np.ndarray, grid: UniformGrid) -> GridFunction:
    """The solver's inverse transform, the same DST-I on the whole interior,
    in place in a node array with zero boundary nodes."""
    values = np.zeros(grid.shape)
    values[(slice(1, -1),) * grid.dim] = coeff
    _dst_support_in_place(values[(slice(1, -1),) * grid.dim], (slice(None),) * grid.dim)
    return GridFunction(grid, values)


def dst_forward_oracle(f: GridFunction) -> np.ndarray:
    """Direct double/triple sum of the sine-series coefficient definition
    (``transforms``' module docstring)."""
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
            scale *= grid.mesh[s] / lengths[s]
        out[k] = total * scale
    return out


def dst_inverse_oracle(grid: UniformGrid, c: np.ndarray) -> np.ndarray:
    """Direct series summation at the interior nodes, 2 sin per axis."""
    out = np.zeros(grid.interior_shape)
    for i in np.ndindex(out.shape):
        total = 0.0
        for k in np.ndindex(out.shape):
            term = c[k]
            for s in range(grid.dim):
                term *= 2.0 * np.sin((k[s] + 1) * np.pi * (i[s] + 1) / grid.panels[s])
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
    assert beta[0, 0] * 2**g.dim == pytest.approx(1.0, abs=1e-13)  # one, in units of 2^-d
    rest = beta.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) * 2**g.dim < 1e-13


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
    c[0, 0] = 2.0**-g.dim  # one, in units of 2^-d
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


def _same(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.array_equal(got, want)


def test_every_fft_user_holds_the_pocketfft_binding():
    # The extension is found and passes its round trips, so no solve pays
    # for importing scipy.fft; a forced fallback fails here, and only here.
    assert {m.__name__.rpartition(".")[2] for m in fft_users()} >= {"boundary", "harmonic", "transforms"}
    assert all(m.sfft is transforms.sfft for m in fft_users())
    assert transforms.sfft is not sfft
    assert Path(transforms._pocketfft_path()).name.startswith("pypocketfft")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("m", [31, 32, 95, 96, 127])  # odd, even and 7-smooth sizes
def test_call_forms_are_bitwise_scipy_fft(m, workers):
    ours = transforms.sfft
    rng = np.random.default_rng(m)
    x = rng.standard_normal((3, m, m + 1))
    period = 2 * next_smooth_length(m)
    # The boundary phase: a padded r2c of slice rows, c2c along a leading
    # axis in place, the inverse c2r of a face, and the kernels' DCT-I.
    for s, axes in (((period,), (-1,)), ((m - 4,), (2,)), ((period, period), (1, 2))):
        _same(ours.rfftn(x, s, axes=axes, workers=workers), sfft.rfftn(x, s, axes=axes, workers=workers))
    spectrum = sfft.rfftn(x, (period,), axes=(-1,))
    for s, axes in (((period,), (1,)), ((period,), (-2,)), ((2, m), (0, 1))):
        got = ours.fftn(spectrum.copy(), s, axes=axes, workers=workers, overwrite_x=True)
        _same(got, sfft.fftn(spectrum.copy(), s, axes=axes, workers=workers, overwrite_x=True))
    for s in ((period, period), (m + 3, 2 * m), (period,)):
        _same(ours.irfftn(spectrum, s, workers=workers), sfft.irfftn(spectrum, s, workers=workers))
    got = ours.dctn(x.copy(), type=1, axes=(1, 2), workers=workers, overwrite_x=True)
    _same(got, sfft.dctn(x.copy(), type=1, axes=(1, 2), workers=workers, overwrite_x=True))
    # The harmonic phase: DST-I over the in-face axes, as ``range`` objects,
    # of which the 1D faces' is empty.
    for axes in (range(1, 3), range(2, 3), (-1, -2), range(1, 1)):
        _same(ours.dstn(x, type=1, axes=axes), sfft.dstn(x, type=1, axes=axes))
    assert ours.dstn(x, type=1, axes=range(1, 1)) is x
    # The volume DSTs: one axis in place on strided views, the input's buffer
    # returned, by the binding and by scipy.fft (the fallback) alike.
    got, want = x.copy(), x.copy()
    for axis, view in ((1, (slice(None), slice(None, None, 2), slice(1, None))), (-1, (1, slice(1, -1)))):
        for fft, y in ((ours, got), (sfft, want)):
            out = fft.dstn(y[view], type=1, axes=(axis,), workers=workers, overwrite_x=True)
            assert out.ctypes.data == y[view].ctypes.data
        _same(got, want)


@pytest.mark.parametrize("name, content", [("missing", None), ("not-an-extension", b"\x7fELF junk")])
def test_binder_refuses_an_extension_it_cannot_load(tmp_path, name, content):
    path = tmp_path / name / "pypocketfft.so"
    if content is not None:
        path.parent.mkdir()
        path.write_bytes(content)
    with pytest.raises(ImportError):
        transforms._bind(str(path))


_SOLVES = """
from freepoisson import PolyBump, SolverConfig, UniformGrid, solve_free_space
for dim in (1, 2, 3):
    g = UniformGrid([-1.0] * dim, [1.0] * dim, [12] * dim)
    solve_free_space(PolyBump(dim, 0.4, 5, (0.1, 0.0, -0.1)[:dim]), g, SolverConfig(order=6))
"""


def test_cli_import_and_solves_load_no_scipy_module():
    probe = "import sys\nimport freepoisson.cli\n" + _SOLVES + (
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", probe], env=src_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_missing_extension_falls_back_to_scipy_fft():
    # No extension suffix matches, as when scipy ships without the file.
    probe = ("import importlib.machinery\nimportlib.machinery.EXTENSION_SUFFIXES[:] = ['.missing']\n"
             "import scipy.fft\nfrom freepoisson import transforms\n"
             "assert transforms.sfft is scipy.fft\n" + _SOLVES)
    run = subprocess.run([sys.executable, "-c", probe], env=src_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
