import math

import numpy as np
import pytest

from freepoisson import (
    BoundaryValues,
    GridFunction,
    PolyBump,
    SupportViolationError,
    UniformGrid,
    boundary_values_fast,
    boundary_values_naive,
)
from freepoisson.boundary import _periods
from freepoisson.greens import green_values
from freepoisson.transforms import next_smooth_length
from oracles import node_coordinate


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
        rho = GridFunction.zeros(g)
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
    # Fails here, naming the argument, not inside scipy's transforms.
    rho = random_density(UniformGrid([-1, -1], [1, 1], [16, 16]), np.random.default_rng(3))
    with pytest.raises(ValueError, match="thread_count must be an integer, got 1.5"):
        boundary_values_fast(rho, 1.5)
    # A bool is a flag, not a count, although operator.index(True) is 1.
    with pytest.raises(ValueError, match="thread_count must be an integer, got True"):
        boundary_values_fast(rho, True)


@pytest.mark.parametrize("panels", [(200, 300), (40, 48, 56)])
def test_thread_count_bitwise_invariance_on_larger_grids(panels):
    # The 3D faces are large enough for scipy.fft to split each transform's
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
    dim = len(panels)
    g = UniformGrid([-1.0] * dim, [1.0 + 0.5 * s for s in range(dim)], panels)
    for axis in range(dim):
        assert _periods(g, axis) == tuple(
            2 * (m - 1) for s, m in enumerate(g.panels) if s != axis)
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
    exact = BoundaryValues.from_callable(g, bump.potential)
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
        exact = BoundaryValues.from_callable(g, bump.potential)
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
    g = UniformGrid([-1, -1, -1], [1, 1, 1], [6, 8, 12])
    assert _periods(g, 0) == (14, 24)  # 2 next_smooth(M-1): 2*7, 2*12
    for axis in range(g.dim):
        in_panels = [m for s, m in enumerate(g.panels) if s != axis]
        for m, n in zip(in_panels, _periods(g, axis), strict=True):
            assert n == 2 * next_smooth_length(m - 1) >= 2 * (m - 1)
            # Face nodes 0..M are the circular output indices -1..M-1.
            # Output index c and data index k (source node k+1) read the
            # kernel at offset c-k, stored in slot (c-k) mod n.  Offsets that
            # share a slot must have the same distance: the kernel is even.
            slot = {}
            for c in range(-1, m):
                for k in range(m - 1):
                    assert slot.setdefault((c - k) % n, abs(c - k)) == abs(c - k)
            assert min(slot.values()) == 0 and max(slot.values()) == m - 1
