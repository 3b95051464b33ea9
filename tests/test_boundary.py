import math

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freepoisson import (
    BoundaryValues,
    GridFunction,
    PolyBump,
    SolverConfig,
    SupportViolationError,
    UniformGrid,
    boundary_values_fast,
    boundary_values_naive,
    pad_domain,
)
from freepoisson import boundary
from freepoisson import grid as grid_module
from freepoisson.boundary import _periods, _slice_spectrum
from freepoisson.greens import green_values
from freepoisson.transforms import next_smooth_length
from oracles import boundary_from_callable, node_coordinate, zero_function


def rel_face_diff(a: BoundaryValues, b: BoundaryValues) -> float:
    scale = max(a.abs_max(), b.abs_max())
    worst = max(
        float(np.max(np.abs(a.faces[k] - b.faces[k]))) for k in a.faces
    )
    return worst / scale if scale > 0 else worst


def random_density(grid: UniformGrid, rng, collar: int = 2) -> GridFunction:
    vals = np.zeros(grid.shape)
    inner = tuple(slice(collar, -collar) for _ in range(grid.dim))
    shape = tuple(m + 1 - 2 * collar for m in grid.panels)
    vals[inner] = rng.standard_normal(shape)
    return GridFunction(grid, vals)


def test_zero_density_gives_zero_everywhere():
    for dims in ([6], [5, 6], [4, 5, 6]):
        g = UniformGrid([-1.0] * len(dims), [1.0] * len(dims), dims)
        rho = zero_function(g)
        for bv in (boundary_values_naive(rho), boundary_values_fast(rho)):
            assert all(np.all(f == 0.0) for f in bv.faces.values())


def test_single_point_mass():
    g = UniformGrid([-1.0, -1.0], [1.0, 1.0], [8, 8])
    vals = np.zeros(g.shape)
    mass = 2.5
    src_idx = (3, 5)
    vals[src_idx] = mass
    rho = GridFunction(g, vals)
    bv = boundary_values_naive(rho)
    weight = g.mesh[0] * g.mesh[1]
    src = np.array(node_coordinate(g, src_idx))
    for (axis, side), face in bv.faces.items():
        other = 1 - axis
        for j in range(g.panels[other] + 1):
            idx = [0, 0]
            idx[axis] = g.panels[axis] if side else 0
            idx[other] = j
            target = np.array(node_coordinate(g, idx))
            r = float(np.linalg.norm(target - src))
            assert face[j] == pytest.approx(
                mass * green_values(2, r) * weight, rel=1e-14
            )


def test_fast_matches_naive_2d_and_3d():
    rng = np.random.default_rng(123)
    for _ in range(5):
        panels = rng.integers(5, 20, size=2)
        g = UniformGrid([-1.0, 0.0], [1.0, 2.0], panels)
        rho = random_density(g, rng)
        assert rel_face_diff(
            boundary_values_naive(rho), boundary_values_fast(rho)
        ) <= 1e-11
    for _ in range(3):
        panels = rng.integers(5, 11, size=3)
        g = UniformGrid([-1, -1, -1], [1, 1, 1], panels)
        rho = random_density(g, rng)
        assert rel_face_diff(
            boundary_values_naive(rho), boundary_values_fast(rho, 3)
        ) <= 1e-11


def test_1d_boundary_matches_direct_sum():
    rng = np.random.default_rng(5)
    g = UniformGrid([-2.0], [1.0], [12])
    rho = random_density(g, rng)
    bv = boundary_values_fast(rho)
    naive = boundary_values_naive(rho)
    h = g.mesh[0]
    x = g.axis_coordinates(0)
    expect_left = sum(
        0.5 * abs(g.lower[0] - x[i]) * rho.values[i] * h for i in range(1, 12)
    )
    assert float(bv.faces[(0, 0)]) == pytest.approx(expect_left, rel=1e-13)
    assert float(naive.faces[(0, 0)]) == pytest.approx(expect_left, rel=1e-13)


def test_translation_by_whole_panels_matches_naive():
    rng = np.random.default_rng(77)
    g = UniformGrid([-1.0, -1.0], [1.0, 1.0], [16, 16])
    blob = rng.standard_normal((5, 5))
    for shift in ((0, 0), (2, 1), (4, 3)):
        vals = np.zeros(g.shape)
        vals[3 + shift[0] : 8 + shift[0], 3 + shift[1] : 8 + shift[1]] = blob
        rho = GridFunction(g, vals)
        assert rel_face_diff(
            boundary_values_naive(rho), boundary_values_fast(rho)
        ) <= 1e-11


@pytest.mark.parametrize("panels", [(17, 12), (11, 9, 13)])
def test_fast_matches_naive_on_scattered_support(panels):
    # A few isolated source nodes, including ones next to the boundary, so
    # along every axis the non-empty slices have gaps between them.
    g = UniformGrid([-1.0] * len(panels), [1.0, 2.0, 0.5][: len(panels)], panels)
    vals = np.zeros(g.shape)
    for node, value in [((1, 2, 3), 1.0), ((5, 1, 11), -2.0), ((15, 10, 1), 0.5)]:
        vals[tuple(min(i, m - 1) for i, m in zip(node, panels))] = value
    rho = GridFunction(g, vals)
    assert rel_face_diff(
        boundary_values_naive(rho), boundary_values_fast(rho)
    ) <= 1e-11


def test_thread_count_bitwise_invariance():
    rng = np.random.default_rng(9)
    g = UniformGrid([-1, -1, -1], [1, 1, 1], [10, 9, 8])
    rho = random_density(g, rng)
    ref = boundary_values_fast(rho, 1)
    for threads in (2, 3, 4, 8):
        other = boundary_values_fast(rho, threads)
        assert all(
            np.array_equal(ref.faces[k], other.faces[k]) for k in ref.faces
        )


def test_fast_rejects_non_integer_thread_count():
    # Fails here, naming the argument, not inside the transforms.
    rho = random_density(UniformGrid([-1, -1], [1, 1], [16, 16]), np.random.default_rng(3))
    with pytest.raises(ValueError, match="thread_count must be an integer, got 1.5"):
        boundary_values_fast(rho, 1.5)
    # A bool is a flag, not a count, although operator.index(True) is 1.
    with pytest.raises(ValueError, match="thread_count must be an integer, got True"):
        boundary_values_fast(rho, True)


@pytest.mark.parametrize("panels", [(200, 300), (40, 48, 56)])
def test_thread_count_bitwise_invariance_on_larger_grids(panels):
    # The 3D faces are large enough for pocketfft to split each transform's
    # rows over the workers; a 2D face is a single 1D transform.
    rng = np.random.default_rng(13)
    dim = len(panels)
    g = UniformGrid([-1.0] * dim, [1.0 + 0.25 * s for s in range(dim)], panels)
    rho = random_density(g, rng)
    ref = boundary_values_fast(rho, 1)
    for threads in (2, 3):
        other = boundary_values_fast(rho, threads)
        assert all(
            np.array_equal(ref.faces[k], other.faces[k]) for k in ref.faces
        )


@pytest.mark.parametrize(
    "panels", [(8, 11), (10, 13), (9, 16), (11, 13, 16), (8, 10, 17)]
)
def test_fast_matches_naive_at_minimal_fft_period(panels):
    # M-1 is 7-smooth for M = 8, 9, 10, 11, 13, 16, 17, so the FFT period is
    # exactly 2(M-1), where the offsets -(M-1) and M-1 share one slot: an
    # off-by-one in the period or in the window aliases into the face values.
    # The density fills every interior node, so each axis reaches M-1.
    dim = len(panels)
    g = UniformGrid([-1.0] * dim, [1.0 + 0.5 * s for s in range(dim)], panels)
    assert _periods(panels, [m - 1 for m in panels]) == [2 * (m - 1) for m in panels]
    rho = random_density(g, np.random.default_rng(sum(panels)), collar=1)
    assert rel_face_diff(
        boundary_values_naive(rho), boundary_values_fast(rho)
    ) <= 1e-11


def test_face_consistency_on_shared_nodes():
    rng = np.random.default_rng(31)
    g = UniformGrid([-1, -1, -1], [1, 1, 1], [8, 9, 10])
    rho = random_density(g, rng)
    bv = boundary_values_fast(rho, 2)
    assert bv.check_consistency(rtol=1e-12) <= 1e-12


def test_bump_boundary_values_near_analytic_potential():
    bump = PolyBump(3, 0.4, 7, (1 / math.sqrt(31), 0.2, 0.1))
    g = UniformGrid([-1, -1, -1], [1, 1, 1], [16, 16, 16])
    rho = GridFunction.from_callable(g, bump)
    bv = boundary_values_naive(rho)
    exact = boundary_from_callable(g, bump.potential)
    err = max(
        float(np.max(np.abs(bv.faces[k] - exact.faces[k]))) for k in bv.faces
    )
    assert err / exact.abs_max() < 5e-4  # spectral accuracy at a coarse grid


def test_boundary_spectral_convergence_rate():
    # integrand 6 times differentiable: Euler-MacLaurin rate exceeds 6
    bump = PolyBump(3, 0.4, 7, (1 / math.sqrt(31), 0.2, 0.1))
    errs = []
    sizes = [10, 14, 20, 28]
    for M in sizes:
        g = UniformGrid([-1, -1, -1], [1, 1, 1], [M, M, M])
        rho = GridFunction.from_callable(g, bump)
        bv = boundary_values_fast(rho, 4)
        exact = boundary_from_callable(g, bump.potential)
        err = max(
            float(np.max(np.abs(bv.faces[k] - exact.faces[k])))
            for k in bv.faces
        )
        errs.append(err / exact.abs_max())
    slope = np.polyfit(np.log([2.0 / M for M in sizes]), np.log(errs), 1)[0]
    assert slope > 6.0


def test_nonzero_boundary_density_rejected():
    g = UniformGrid([-1, -1], [1, 1], [8, 8])
    vals = np.zeros(g.shape)
    vals[4, 4] = 1.0
    vals[0, 4] = 0.5  # sits on a target boundary node
    rho = GridFunction(g, vals)
    for op in (boundary_values_naive, boundary_values_fast):
        with pytest.raises(SupportViolationError):
            op(rho)


def test_fast_periods_cover_all_offsets():
    # Every support range lo..hi of an axis with M panels: the period of its
    # reach R = max(hi, M - lo) must read every offset the face window
    # meets exactly, and keep the window's output indices distinct.
    for m in range(4, 18):
        for lo in range(1, m):
            for hi in range(lo, m):
                reach = max(hi, m - lo)
                [n] = _periods([m], [reach])
                assert type(n) is int and n % 2 == 0
                assert n >= max(m + 1, 2 * reach)
                if (lo, hi) == (1, m - 1):  # full support: the old period
                    assert n == 2 * next_smooth_length(m - 1)
                # Face nodes 0..M are the circular output indices -1..M-1;
                # data index k holds source node k+1.
                assert len({c % n for c in range(-1, m)}) == m + 1
                assert hi - 1 < n  # a period shorter than M-1 crops only zeros
                # Slot r holds the kernel at offset min(r, n-r), evaluated
                # for offsets 0..min(M-1, n/2).
                for c in range(-1, m):
                    for k in range(lo - 1, hi):
                        r = (c - k) % n
                        assert min(r, n - r) == abs(c - k) <= min(m - 1, n // 2)
    assert _periods([6, 8, 12], [5, 7, 11]) == [10, 14, 24]  # 2 next_smooth(M-1)
    assert _periods([6, 8, 12], [0, 0, 0]) == [8, 10, 14]  # empty: window only


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("m", range(8, 18))
def test_fast_matches_naive_for_a_single_central_node(dim, m):
    # One node in the middle: the smallest reach, R = ceil(M/2).  At odd M
    # the period can be M+1, where the offset R reads the DCT-I end point
    # P/2.  At even M the window term (M+2)//2 sets the period; without it,
    # P = M would give face nodes 0 and M one output index, which their
    # mirror-equal kernel values hide here.  The distinct-index check above
    # and the zero density pin that term instead.
    g = UniformGrid([-1.0] * dim, [1.0 + 0.25 * s for s in range(dim)], [m] * dim)
    vals = np.zeros(g.shape)
    vals[(m // 2,) * dim] = 1.0
    rho = GridFunction(g, vals)
    assert rel_face_diff(
        boundary_values_naive(rho), boundary_values_fast(rho)
    ) <= 1e-11


def _recorded_inverse_periods(monkeypatch) -> list:
    """Patch ``boundary.sfft`` to record the period of every inverse FFT."""
    shapes, real = [], boundary.sfft

    class Recording:
        def __getattr__(self, name):
            return getattr(real, name)

        def irfftn(self, x, shape, **kwargs):
            shapes.append(shape)
            return real.irfftn(x, shape, **kwargs)

    monkeypatch.setattr(boundary, "sfft", Recording())
    return shapes


def _reach(rho: GridFunction) -> list[int]:
    nonzero = rho.interior() != 0
    reach = []
    for s, m in enumerate(rho.grid.panels):
        nodes = np.flatnonzero(nonzero.any(axis=tuple(t for t in range(rho.grid.dim) if t != s))) + 1
        reach.append(int(max(nodes[-1], m - nodes[0])))
    return reach


def test_cli_bump_periods_shrink_below_the_full_face(monkeypatch):
    # The CLI's default bump on [-1,1]^3 at M=96 reaches well under M-1 on
    # every axis, so no in-face period may fall back to 2 next_smooth(95).
    m = 96
    g = UniformGrid([-1.0] * 3, [1.0] * 3, [m] * 3)
    rho = GridFunction.from_callable(g, PolyBump(3, 0.4, 7, (1 / math.sqrt(31), 0.2, 0.1)))
    reach = _reach(rho)
    shapes = _recorded_inverse_periods(monkeypatch)
    boundary_values_fast(rho)
    assert len(shapes) == 6  # two faces per normal axis, in axis order
    for k, shape in enumerate(shapes):
        in_axes = [s for s in range(3) if s != k // 2]
        for s, n in zip(in_axes, shape, strict=True):
            assert max(m + 1, 2 * reach[s]) <= n < 2 * next_smooth_length(m - 1) == 192


@pytest.mark.parametrize("panels", [(300, 200), (40, 48, 56)])
def test_thread_count_bitwise_invariance_on_shrunk_periods(panels):
    # A small off-centre support: every in-face period is shorter than the
    # full-face 2 next_smooth(M-1), unlike the full-support densities above.
    rng = np.random.default_rng(17)
    dim = len(panels)
    g = UniformGrid([-1.0] * dim, [1.0 + 0.25 * s for s in range(dim)], panels)
    vals = np.zeros(g.shape)
    box = tuple(slice(m // 2 - 6, m // 2 + 2) for m in panels)
    vals[box] = rng.standard_normal(vals[box].shape)
    rho = GridFunction(g, vals)
    assert all(n < 2 * next_smooth_length(m - 1)
               for n, m in zip(_periods(panels, _reach(rho)), panels, strict=True))
    ref = boundary_values_fast(rho, 1)
    for threads in (2, 3):
        other = boundary_values_fast(rho, threads)
        assert all(
            np.array_equal(ref.faces[k], other.faces[k]) for k in ref.faces
        )


@st.composite
def slices_with_rows(draw):
    """Slice data (1D, as in 2D, or 2D, as in 3D) with a random range of
    occupied rows along the leading axis, and periods from below to above
    the data length."""
    shape = draw(st.lists(st.integers(1, 14), min_size=1, max_size=2))
    rows = ()
    if len(shape) == 2:
        lo = draw(st.integers(0, shape[0]))  # lo == hi: an all-zero slice
        rows = (slice(lo, draw(st.integers(lo, shape[0]))),)
    # the leading period must hold every occupied row; the last one may crop
    lead = [draw(st.integers(max(rows[0].stop, 1), shape[0] + 9))] if rows else []
    periods = tuple(lead + [draw(st.integers(1, shape[-1] + 9))])
    return tuple(shape), rows, periods, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(slices_with_rows())
@example(((12, 13), (slice(3, 8),), (8, 10), 1))  # both periods shorter than M-1 = 12, 13
@example(((12, 13), (slice(0, 12),), (24, 26), 2))  # both longer, rows at either end
@example(((12, 13), (slice(5, 5),), (16, 16), 3))  # an all-zero slice
@example(((13,), (), (10,), 4))  # 2D: one row, cropped
@example(((13,), (), (28,), 5))  # 2D: one row, padded
def test_slice_spectrum_is_bitwise_rfftn(case):
    shape, rows, periods, seed = case
    x = np.zeros(shape)
    x[rows] = np.random.default_rng(seed).standard_normal(x[rows].shape)
    assert np.array_equal(_slice_spectrum(x, rows, periods, 1), sfft.rfftn(x, periods))


@pytest.mark.parametrize("panels", [(17, 12), (11, 9, 13)])
def test_fast_fft_calls_pass_the_shape_as_a_positional_tuple(monkeypatch, panels):
    # Per-call counters (as in perfbench's tracer) take the transform shape
    # as the second positional argument of each FFT, a tuple, and wrap
    # ``green_values`` in a function of exactly (dim, r); any other call
    # form must fail here rather than in a traced benchmark run.  With
    # ``_BLOCK = 1`` every group of kernel spectra is one pair {d, M - d}.
    real, calls, evals = boundary.sfft, [], []

    class TupleShapeOnly:
        def __getattr__(self, name):
            fn = getattr(real, name)
            if "fft" not in name:  # dctn and the like are not counted
                return fn

            def checked(x, shape, *args, **kwargs):
                if not isinstance(shape, tuple):
                    raise TypeError(f"{name}: expected the transform shape as a tuple")
                calls.append(name)
                return fn(x, shape, *args, **kwargs)

            return checked

    def counted_green_values(dim, r):
        out = green_values(dim, r)
        evals.append(out.size)
        return out

    rho = random_density(UniformGrid([-1.0] * len(panels), [1.0] * len(panels), panels),
                         np.random.default_rng(29))
    refs = {}
    for block in (1, grid_module._BLOCK):
        monkeypatch.setattr(grid_module, "_BLOCK", block)
        refs[block] = boundary_values_fast(rho)
    monkeypatch.setattr(boundary, "sfft", TupleShapeOnly())
    monkeypatch.setattr(boundary, "green_values", counted_green_values)
    # Each kernel is evaluated once: sum over normal axes a of |D_a| times
    # the evaluated in-face offsets, prod_{s != a} min(M_s, P_s/2 + 1).  The
    # density fills slices 2..M-2, so D_a = {2, ..., M_a - 2} and R_a = M_a - 2.
    periods = _periods(panels, [m - 2 for m in panels])
    kernel_evals = sum(
        (panels[a] - 3) * math.prod(min(m, p // 2 + 1)
                                    for s, (m, p) in enumerate(zip(panels, periods)) if s != a)
        for a in range(len(panels)))
    for block, ref in refs.items():
        monkeypatch.setattr(grid_module, "_BLOCK", block)
        calls.clear()
        evals.clear()
        got = boundary_values_fast(rho)
        assert {"rfftn", "irfftn"} <= set(calls)
        assert ("fftn" in calls) == (len(panels) == 3)  # the leading in-face axis
        # One r2c (and in 3D one c2c) per occupied slice, two inverse FFTs per axis.
        assert len(calls) == sum((m - 3) * (len(panels) - 1) + 2 for m in panels)
        assert sum(evals) == kernel_evals
        assert all(np.array_equal(ref.faces[k], got.faces[k]) for k in ref.faces)


def _counted_kernel_spectra(monkeypatch) -> list:
    """Patch ``boundary._kernel_spectra`` to record how many spectra each call builds."""
    built, real = [], boundary._kernel_spectra

    def counted(grid, axis, dists, *args):
        built.append(len(dists))
        return real(grid, axis, dists, *args)

    monkeypatch.setattr(boundary, "_kernel_spectra", counted)
    return built


def _distances(rho: GridFunction, axis: int) -> set[int]:
    """The normal distances {d, M - d} that the non-empty slices along ``axis`` need."""
    m = rho.grid.panels[axis]
    others = tuple(t for t in range(rho.grid.dim) if t != axis)
    nodes = np.flatnonzero((rho.interior() != 0).any(axis=others)) + 1
    return {q for p in nodes.tolist() for q in (p, m - p)}


def _offset_density(grid: UniformGrid, seed: int) -> GridFunction:
    """Random values on a box that sits differently along every axis, so
    the axes' distance sets and reaches differ."""
    vals = np.zeros(grid.shape)
    box = tuple(slice(1 + 2 * s, m // 2 + s + 1) for s, m in enumerate(grid.panels))
    vals[box] = np.random.default_rng(seed).standard_normal(vals[box].shape)
    return GridFunction(grid, vals)


def test_block_budget_reaches_every_phase(monkeypatch):
    # ``grid._BLOCK`` is read when a phase runs, so patching it in its one
    # home reaches the blocked passes and the boundary phase's groups: at 1,
    # every block is one row and every group of kernel spectra one pair
    # {d, M - d} (the totals of the tests above do not see the grouping).
    monkeypatch.setattr(grid_module, "_BLOCK", 1)
    assert grid_module._row_blocks((9, 5, 4)) == [slice(i, i + 1) for i in range(9)]
    groups, real = [], boundary._kernel_spectra

    def recorded(grid, axis, dists, *args):
        groups.append((grid.panels[axis], list(dists)))
        return real(grid, axis, dists, *args)

    monkeypatch.setattr(boundary, "_kernel_spectra", recorded)
    rho = _offset_density(UniformGrid([-1.0] * 3, [1.0, 1.0, 1.5], [13, 13, 15]), 53)
    boundary_values_fast(rho)
    assert len(groups) > 3  # more than one group per class
    for m, dists in groups:
        assert len(dists) <= 2 and {m - q for q in dists} == set(dists), (m, dists)


@pytest.mark.parametrize("block", [1, grid_module._BLOCK])
@pytest.mark.parametrize("upper, panels, classes", [
    ((1.0, 1.0, 1.0), (14, 14, 14), [(0, 1, 2)]),  # cubic: one class
    ((1.0, 1.0), (17, 17), [(0, 1)]),  # square
    ((1.0, 1.0, 1.5), (13, 13, 15), [(0, 1), (2,)]),  # only axes 0 and 1 match
])
def test_axes_with_one_kernel_share_its_spectra(monkeypatch, block, upper, panels, classes):
    # Each class of face-normal axes builds every kernel spectrum its
    # members need once: the union of their distances, not the sum.
    dim = len(panels)
    rho = _offset_density(UniformGrid([-1.0] * dim, upper, panels), 41)
    distances = [_distances(rho, a) for a in range(dim)]
    union = sum(len(set().union(*(distances[a] for a in members))) for members in classes)
    assert union < sum(len(d) for d in distances)
    monkeypatch.setattr(grid_module, "_BLOCK", block)
    built = _counted_kernel_spectra(monkeypatch)
    ref = boundary_values_fast(rho, 1)
    assert sum(built) == union
    assert rel_face_diff(boundary_values_naive(rho), ref) <= 1e-11
    for threads in (2, 3):
        other = boundary_values_fast(rho, threads)
        assert all(np.array_equal(ref.faces[k], other.faces[k]) for k in ref.faces)


@pytest.mark.parametrize("upper, panels", [
    ((1.0, 1.0, 1.0), (16, 16, 16)),
    ((1.0, 1.0), (18, 18)),
    ((1.0, 1.0, 1.5), (12, 12, 9)),
])
def test_fast_matches_naive_on_a_shared_period(upper, panels):
    # The support reaches differently far along each axis, so an axis of a
    # class runs on a period longer than its own reach needs.
    dim = len(panels)
    rho = _offset_density(UniformGrid([-1.0] * dim, upper, panels), 43)
    reach = _reach(rho)
    own = _periods(panels, reach)
    assert own[0] > own[1]  # axes 0 and 1 share axis 0's period
    assert rel_face_diff(boundary_values_naive(rho), boundary_values_fast(rho)) <= 1e-11


def _assert_built_per_axis(monkeypatch, grid: UniformGrid):
    """Every normal axis builds its own kernel spectra, and the faces stay accurate."""
    rho = _offset_density(grid, 47)
    built = _counted_kernel_spectra(monkeypatch)
    fast = boundary_values_fast(rho)
    assert sum(built) == sum(len(_distances(rho, a)) for a in range(grid.dim))
    assert rel_face_diff(boundary_values_naive(rho), fast) <= 1e-11


def test_axes_with_transposed_kernels_do_not_share(monkeypatch):
    # Axes 0 and 2 match but axis 1 does not: the in-face kernels of normal
    # axes 0 and 2 are transposes of each other (the two axes still share
    # one in-face period).
    grid = UniformGrid([-1.0] * 3, [1.0, 1.5, 1.0], [12, 10, 12])
    assert grid.mesh[0] == grid.mesh[2] != grid.mesh[1]
    _assert_built_per_axis(monkeypatch, grid)


def test_axes_one_ulp_apart_do_not_share(monkeypatch):
    # Mesh widths 1/8 and the next float above it (scaling by 16 is exact).
    grid = UniformGrid([0.0, 0.0], [2.0, 16 * float(np.nextafter(0.125, 1.0))], [16, 16])
    assert grid.mesh[1] == np.nextafter(grid.mesh[0], 1.0)
    _assert_built_per_axis(monkeypatch, grid)


def _recorded_groups(monkeypatch) -> list:
    """Patch ``boundary._kernel_spectra`` to record (normal axis, pairs, spectra shape) per group."""
    groups, real = [], boundary._kernel_spectra

    def recorded(grid, axis, dists, *args):
        spectra = real(grid, axis, dists, *args)
        m = grid.panels[axis]
        groups.append((axis, sorted({min(q, m - q) for q in dists}), spectra.shape))
        return spectra

    monkeypatch.setattr(boundary, "_kernel_spectra", recorded)
    return groups


_STEPS3D_GRID = pad_domain(UniformGrid([-1.0] * 3, [1.0] * 3, [48] * 3),
                           SolverConfig(order=4, padding_panels=2, fft_friendly_expansion=True))


@pytest.mark.parametrize("rho", [
    GridFunction.from_callable(_STEPS3D_GRID, PolyBump(3, 0.6, 5, (0.1, 0.2, -0.1))),
    _offset_density(UniformGrid([-1.0, -1.0], [1.0, 1.5], [120, 100]), 59),
], ids=["steps3d-shape", "2d"])
def test_kernel_groups_are_capped_by_the_node_count(monkeypatch, rho):
    # A group of kernel spectra holds at most a twelfth of the node array
    # (one pair {d, M - d} where a pair alone is larger), so that on small
    # grids too it stays a small part of the array; _BLOCK would allow more.
    groups = _recorded_groups(monkeypatch)
    boundary_values_fast(rho)
    cap = rho.values.size // 12
    assert max(len(pairs) for _, pairs, _ in groups) > 1
    assert len(groups) > rho.grid.dim  # the cap splits every class's pairs
    for axis, pairs, shape in groups:
        assert math.prod(shape) <= cap or len(pairs) == 1, (axis, pairs, shape, cap)


def test_kernel_groups_at_m96_are_bounded_by_the_block(monkeypatch):
    # On the headline 97^3 node array a twelfth of it exceeds _BLOCK, so the
    # groups are those of _BLOCK alone: every group but each axis's last
    # holds _BLOCK // (values per pair) pairs.  The extents differ, so each
    # axis is a class of its own, with no other axis's accumulators to fit.
    grid = UniformGrid([-1.0, -1.005, -0.995], [1.0, 1.01, 0.99], [96] * 3)
    rho = GridFunction.from_callable(grid, PolyBump(3, 0.4, 7, (0.18, 0.2, 0.1)))
    assert rho.values.size // 12 > grid_module._BLOCK
    groups = _recorded_groups(monkeypatch)
    boundary_values_fast(rho)
    for axis in range(3):
        counts = [len(pairs) for a, pairs, _ in groups if a == axis]
        spectrum = math.prod(next(shape[1:] for a, _, shape in groups if a == axis))
        step = grid_module._BLOCK // (2 * spectrum)
        assert step > 1 and len(counts) > 1
        assert all(n == step for n in counts[:-1]) and counts[-1] <= step, counts
