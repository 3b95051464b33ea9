import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import freepoisson.boundary
import freepoisson.solver
import freepoisson.transforms
from freepoisson import (
    AlignmentError,
    GridFunction,
    PolyBump,
    ShapeError,
    SolverConfig,
    SupportViolationError,
    UniformGrid,
    boundary_values_fast,
    domain_invariance_study,
    pad_domain,
    solve_free_space,
)
from freepoisson.dirichlet import check_support
from oracles import bump_from_differentiability, node_coordinate, solve_harmonic, solve_phi_star

CENTER_3D = (1.0 / math.sqrt(31.0), 0.2, 0.1)


def test_pad_domain_noop():
    g = UniformGrid([-1.0], [1.0], [20])
    assert pad_domain(g, SolverConfig(padding_panels=0)) == g


def test_pad_domain_two_panels():
    g = UniformGrid([-1.0], [1.0], [20])
    padded = pad_domain(g, SolverConfig(padding_panels=2))
    assert padded.panels == (24,)
    assert padded.lower[0] == pytest.approx(-1.2, rel=1e-15)
    assert padded.upper[0] == pytest.approx(1.2, rel=1e-15)
    assert padded.mesh[0] == pytest.approx(g.mesh[0], rel=1e-15)


def test_pad_domain_smooth_rounding():
    g = UniformGrid([-1.0], [1.0], [20])
    # 20 + 2*2 = 24 = 2^3 * 3 is already 7-smooth: flag is a no-op
    cfg = SolverConfig(padding_panels=2, fft_friendly_expansion=True)
    assert pad_domain(g, cfg).panels == (24,)
    # 18 + 2*2 = 22 rounds up to 24, extra split one panel per side
    g2 = UniformGrid([-1.0], [1.0], [18])
    padded = pad_domain(g2, cfg)
    assert padded.panels == (24,)
    assert padded.lower[0] == pytest.approx(-1.0 - 3 * g2.mesh[0], rel=1e-14)
    assert padded.upper[0] == pytest.approx(1.0 + 3 * g2.mesh[0], rel=1e-14)


def test_original_nodes_subset_of_padded_nodes():
    g = UniformGrid([-1.0, 0.0], [1.0, 2.0], [10, 14])
    padded = pad_domain(g, SolverConfig(padding_panels=3))
    for idx in [(0, 0), (5, 7), (10, 14)]:
        x = node_coordinate(g, idx)
        shifted = tuple(i + 3 for i in idx)
        y = node_coordinate(padded, shifted)
        for a, b in zip(x, y):
            assert abs(a - b) < 1e-13


def test_zero_density_gives_zero_solution():
    for dim in (1, 2, 3):
        g = UniformGrid([-1.0] * dim, [1.0] * dim, [8] * dim)
        phi, report = solve_free_space(GridFunction.zeros(g), config=SolverConfig(order=4))
        assert np.all(phi.values == 0.0)
        assert report.boundary_rho_max == 0.0


def test_linearity():
    rng = np.random.default_rng(4)
    g = UniformGrid([-1, -1], [1, 1], [16, 16])
    v1 = np.zeros(g.shape)
    v2 = np.zeros(g.shape)
    v1[4:-4, 4:-4] = rng.standard_normal((9, 9))
    v2[5:-5, 5:-5] = rng.standard_normal((7, 7))
    cfg = SolverConfig(order=6)
    p1, _ = solve_free_space(GridFunction(g, v1), config=cfg)
    p2, _ = solve_free_space(GridFunction(g, v2), config=cfg)
    p12, _ = solve_free_space(GridFunction(g, 2.0 * v1 + v2), config=cfg)
    combo = 2.0 * p1.values + p2.values
    assert np.max(np.abs(p12.values - combo)) <= 1e-12 * np.max(np.abs(combo))


def test_scaling_leaves_relative_error_unchanged():
    bump = PolyBump(2, 0.4, 5, (0.1, -0.05))
    g = UniformGrid([-1, -1], [1, 1], [20, 20])
    exact = GridFunction.from_callable(g, bump.potential)
    rho = GridFunction.from_callable(g, bump)
    cfg = SolverConfig(order=6)
    phi1, _ = solve_free_space(rho, config=cfg)
    phi2, _ = solve_free_space(GridFunction(g, 2.0 * rho.values), config=cfg)
    rel1 = np.max(np.abs(phi1.values - exact.values)) / np.max(np.abs(exact.values))
    rel2 = np.max(np.abs(phi2.values - 2.0 * exact.values)) / np.max(
        np.abs(2.0 * exact.values)
    )
    assert rel1 == pytest.approx(rel2, rel=1e-9)


def test_callable_and_samples_paths_agree():
    bump = PolyBump(2, 0.3, 4, (0.0, 0.1))
    g = UniformGrid([-1, -1], [1, 1], [20, 20])
    cfg = SolverConfig(order=6, padding_panels=2)
    phi_callable, _ = solve_free_space(bump, g, cfg)
    phi_samples, _ = solve_free_space(GridFunction.from_callable(g, bump), config=cfg)
    # the callable vanishes outside the original domain, so the two paths see
    # the same density up to roundoff in the padded node coordinates
    scale = np.max(np.abs(phi_callable.values))
    assert np.max(np.abs(phi_callable.values - phi_samples.values)) <= 1e-12 * scale


def test_boundary_of_phi_equals_accumulated_values_exactly():
    bump = PolyBump(2, 0.3, 5, (0.05, 0.0))
    g = UniformGrid([-1, -1], [1, 1], [18, 18])
    rho = GridFunction.from_callable(g, bump)
    phi, _ = solve_free_space(rho, config=SolverConfig(order=6))
    bv = boundary_values_fast(rho, 1)
    # phi* is exactly zero on the boundary, so phi carries the accumulated
    # values bitwise (shared corners resolved the same way the solve did)
    mask = np.ones(g.shape, dtype=bool)
    mask[1:-1, 1:-1] = False
    assert np.array_equal(phi.values[mask], bv.as_full_array()[mask])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_convergence_to_analytic_potential(dim):
    bump = bump_from_differentiability(dim, 6, 0.4, CENTER_3D[:dim])
    errs = []
    for M in (16, 24, 32):
        g = UniformGrid([-1.0] * dim, [1.0] * dim, [M] * dim)
        phi, _ = solve_free_space(bump, g, SolverConfig(order=6, thread_count=2))
        exact = GridFunction.from_callable(g, bump.potential)
        errs.append(
            np.max(np.abs(phi.values - exact.values)) / np.max(np.abs(exact.values))
        )
    assert errs[-1] < errs[0]
    slope = np.polyfit(np.log([2.0 / M for M in (16, 24, 32)]), np.log(errs), 1)[0]
    assert slope > 4.0  # spectral component dominates at these sizes


def test_order6_no_worse_than_order4_for_smooth_density():
    bump = bump_from_differentiability(3, 8, 0.4, CENTER_3D)
    g = UniformGrid([-1, -1, -1], [1, 1, 1], [32, 32, 32])
    exact = GridFunction.from_callable(g, bump.potential)
    errs = {}
    for order in (4, 6):
        phi, _ = solve_free_space(bump, g, SolverConfig(order=order, thread_count=4))
        errs[order] = np.max(np.abs(phi.values - exact.values))
    assert errs[6] <= errs[4] * 1.1


def test_orders_agree_for_rough_density():
    bump = bump_from_differentiability(3, 0, 0.4, CENTER_3D)
    g = UniformGrid([-1, -1, -1], [1, 1, 1], [24, 24, 24])
    exact = GridFunction.from_callable(g, bump.potential)
    errs = {}
    for order in (4, 6):
        phi, _ = solve_free_space(bump, g, SolverConfig(order=order, thread_count=4))
        errs[order] = np.max(np.abs(phi.values - exact.values))
    assert errs[4] <= 2.0 * errs[6]
    assert errs[6] <= 2.0 * errs[4]


def test_thread_invariance_of_full_solve():
    bump = bump_from_differentiability(3, 6, 0.4, CENTER_3D)
    g = UniformGrid([-1, -1, -1], [1, 1, 1], [16, 16, 16])
    ref, _ = solve_free_space(bump, g, SolverConfig(order=6, thread_count=1))
    for threads in (2, 4):
        phi, _ = solve_free_space(bump, g, SolverConfig(order=6, thread_count=threads))
        assert np.array_equal(phi.values, ref.values)


_BLAS_PROBE = """
import sys
import numpy as np
from freepoisson import PolyBump, SolverConfig, UniformGrid, solve_free_space
bump = PolyBump(2, 0.4, 7, (0.1, -0.2))  # 6 times differentiable
g = UniformGrid([-1, -1], [1, 1.2], [40, 44])
phi, _ = solve_free_space(bump, g, SolverConfig(order=6, padding_panels=2))
sys.stdout.write(phi.values.tobytes().hex())
"""


def test_order6_solve_independent_of_blas_threads():
    # The solver's contractions avoid BLAS, whose results may depend on its
    # thread count; the caps must be set before numpy loads, hence a fresh
    # interpreter per count.
    src = str(Path(freepoisson.solver.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(run.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def test_support_violation_detected():
    g = UniformGrid([-1, -1], [1, 1], [10, 10])
    vals = np.ones(g.shape)  # nonzero up to and including the boundary
    with pytest.raises(SupportViolationError):
        solve_free_space(GridFunction(g, vals), config=SolverConfig())


@pytest.mark.parametrize(
    "node, value",
    [((0, 7), math.nan), ((8, 5), math.inf)],
    ids=["boundary-nan", "interior-inf"],
)
def test_non_finite_density_rejected_at_entry(node, value):
    # A boundary NaN enters neither sum and compares False against the
    # support bound, so only an explicit finiteness check can catch it.
    g = UniformGrid([-1, -1], [1, 1], [16, 16])
    bump = bump_from_differentiability(2, 6, 0.4, (0.1, 0.2))
    rho = GridFunction.from_callable(g, bump)
    rho.values[node] = value
    message = r"density contains 1 non-finite value.*node \(%d, %d\)" % node
    with pytest.raises(ShapeError, match=message):
        check_support(rho)
    with pytest.raises(ShapeError, match="density contains"):
        solve_free_space(rho, config=SolverConfig())


def test_padding_enables_wide_density():
    # density spilling past the user boundary works once padding provides room
    g = UniformGrid([-1.0], [1.0], [16])
    bump = PolyBump(1, 1.05, 3, [0.0])  # support reaches beyond the domain
    with pytest.raises(SupportViolationError):
        solve_free_space(bump, g, SolverConfig(padding_panels=0))
    phi, report = solve_free_space(bump, g, SolverConfig(padding_panels=4))
    exact = GridFunction.from_callable(g, bump.potential)
    assert report.padded_grid.panels == (24,)
    err = np.max(np.abs(phi.values - exact.values)) / np.max(np.abs(exact.values))
    assert err < 1e-3


def test_report_fields():
    bump = PolyBump(2, 0.4, 5, (0.0, 0.0))
    g = UniformGrid([-1, -1], [1, 1], [12, 12])
    phi, report = solve_free_space(bump, g, SolverConfig(order=4, thread_count=2))
    assert report.user_grid == g
    assert report.order == 4 and report.thread_count == 2
    assert report.t_sample_s >= 0.0
    assert report.t_phistar_s >= 0.0
    assert report.t_boundary_s >= 0.0
    assert report.t_harmonic_s >= 0.0
    assert report.boundary_rho_max == 0.0
    assert phi.grid == g


@pytest.mark.parametrize("field", ["padding_panels", "thread_count"])
def test_config_rejects_non_integer_counts(field):
    # A fractional count fails here, naming the field, not deep in the solve.
    with pytest.raises(ValueError, match=f"{field} must be an integer, got 1.5"):
        SolverConfig(**{field: 1.5})
    # A bool is a flag, not a count, although operator.index(True) is 1.
    for flag in (True, False):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {flag}"):
            SolverConfig(**{field: flag})
    assert getattr(SolverConfig(**{field: np.int64(2)}), field) == 2


def test_config_rejects_non_integer_order():
    # 4.0 equals 4 but is not a count; the solve would report order=4.0.
    with pytest.raises(ValueError, match="order must be an integer, got 4.0"):
        SolverConfig(order=4.0)
    assert SolverConfig(order=np.int64(4)).order == 4


def test_config_rejects_non_bool_expansion():
    # A truthy string would turn the 7-smooth rounding on.
    with pytest.raises(ValueError, match="fft_friendly_expansion must be a bool, got 'no'"):
        SolverConfig(fft_friendly_expansion="no", padding_panels=1)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_density_checked_once_per_solve(monkeypatch, dim):
    # Count the support checks at every name a module of the solve looks up.
    calls = []
    for module in (freepoisson.boundary, freepoisson.solver):
        check = getattr(module, "check_support", None)
        if check is not None:
            def counted(*args, _check=check, **kwargs):
                calls.append(args)
                return _check(*args, **kwargs)

            monkeypatch.setattr(module, "check_support", counted)
    g = UniformGrid([-1.0] * dim, [1.0] * dim, [12] * dim)
    solve_free_space(PolyBump(dim, 0.4, 5, (0.1, 0.0, -0.1)[:dim]), g, SolverConfig(order=6))
    assert len(calls) == 1


class _NoTransforms:
    def __getattr__(self, name):
        raise AssertionError(f"scipy.fft.{name} ran before the density was checked")


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "value, node, error, message",
    [(math.nan, 5, ShapeError, "non-finite"), (1.0, 0, SupportViolationError, "boundary")],
    ids=["non-finite", "on-boundary"],
)
def test_bad_density_rejected_before_any_transform(monkeypatch, dim, value, node, error, message):
    monkeypatch.setattr(freepoisson.boundary, "sfft", _NoTransforms())
    monkeypatch.setattr(freepoisson.transforms, "sfft", _NoTransforms())
    g = UniformGrid([-1.0] * dim, [1.0] * dim, [12] * dim)
    rho = GridFunction.from_callable(g, PolyBump(dim, 0.4, 5, (0.1, 0.0, -0.1)[:dim]))
    rho.values[(node,) + (5,) * (dim - 1)] = value
    with pytest.raises(error, match=message):
        solve_free_space(rho, config=SolverConfig())


def test_domain_invariance_study_basics():
    bump = bump_from_differentiability(2, 6, 0.4, (0.1, 0.0))
    base = UniformGrid([-1, -1], [1, 1], [20, 20])
    cfg = SolverConfig(order=6)
    rows = domain_invariance_study(bump, base, [1.0, 1.2, 1.5], cfg)
    assert rows[0] == (1.0, 0.0)
    exact = GridFunction.from_callable(base, bump.potential)
    phi, _ = solve_free_space(bump, base, cfg)
    base_err = np.max(np.abs(phi.values - exact.values)) / np.max(np.abs(exact.values))
    for D, diff in rows[1:]:
        assert diff <= base_err


def test_domain_invariance_zero_density():
    base = UniformGrid([-1, -1], [1, 1], [10, 10])
    rows = domain_invariance_study(
        lambda x, y: 0.0 * x * y, base, [1.0, 1.2], SolverConfig(order=4)
    )
    assert all(diff == 0.0 for _, diff in rows)


def test_domain_invariance_alignment_error():
    bump = bump_from_differentiability(2, 4, 0.4, (0.0, 0.0))
    base = UniformGrid([-1, -1], [1, 1], [10, 10])
    with pytest.raises(AlignmentError):
        domain_invariance_study(bump, base, [1.05], SolverConfig())
    off_base = UniformGrid([-1, -2], [1, 2], [10, 20])
    with pytest.raises(AlignmentError):
        domain_invariance_study(bump, off_base, [1.2], SolverConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(order=5)
    with pytest.raises(ValueError):
        SolverConfig(thread_count=0)
    with pytest.raises(ValueError):
        SolverConfig(padding_panels=-1)


@pytest.mark.parametrize("order", [4, 6])
@pytest.mark.parametrize(
    "lower, upper, panels",
    [((-1.0, -0.5), (1.0, 2.0), (40, 56)), ((-1.0, -1.2, -0.8), (1.1, 1.0, 0.9), (40, 56, 30))],
    ids=["2d", "3d"],
)
def test_fused_solve_matches_phi_star_plus_harmonic(order, lower, upper, panels):
    # One inverse DST of the summed coefficients equals the two solves
    # evaluated separately and added, up to roundoff.
    g = UniformGrid(lower, upper, panels)
    bump = bump_from_differentiability(g.dim, 6, 0.5, (0.1, 0.2, -0.05)[: g.dim])
    rho = GridFunction.from_callable(g, bump)
    phi, _ = solve_free_space(rho, config=SolverConfig(order=order))
    parts = solve_phi_star(rho).values + solve_harmonic(boundary_values_fast(rho), order).values
    assert np.max(np.abs(phi.values - parts)) <= 1e-13 * np.max(np.abs(parts))


@pytest.mark.parametrize(
    "dim, panels, order",
    [(3, 6, 6), (2, 6, 6), (2, 3, 4), (3, 3, 4)],
)
def test_too_few_panels_rejected_before_any_phase(monkeypatch, dim, panels, order):
    def boundary_phase(*args):
        raise AssertionError("the boundary phase ran")

    monkeypatch.setattr(freepoisson.solver, "boundary_values_fast", boundary_phase)
    g = UniformGrid([-1.0] * dim, [1.0] * dim, [panels] * dim)
    with pytest.raises(ShapeError, match="padding_panels"):
        solve_free_space(GridFunction.zeros(g), config=SolverConfig(order=order))


def test_padding_lifts_the_panel_guard():
    g = UniformGrid([-1.0] * 3, [1.0] * 3, [5] * 3)
    phi, report = solve_free_space(
        GridFunction.zeros(g), config=SolverConfig(order=6, padding_panels=1)
    )
    assert report.padded_grid.panels == (7, 7, 7)
    assert np.all(phi.values == 0.0)


def test_wrong_shaped_callable_rejected():
    g = UniformGrid([-1.0, -1.0], [1.0, 1.0], [8, 8])
    with pytest.raises(ShapeError, match=r"\(5,\).*\(9, 9\)"):
        solve_free_space(lambda x, y: np.zeros(5), g)


def test_report_phases_account_for_wall_time():
    bump = PolyBump(3, 0.4, 7, CENTER_3D)
    g = UniformGrid([-1.0] * 3, [1.0] * 3, [48] * 3)
    config = SolverConfig(order=6)
    solve_free_space(bump, g, config)
    start = time.perf_counter()
    _, report = solve_free_space(bump, g, config)
    wall = time.perf_counter() - start
    phases = (report.t_sample_s, report.t_phistar_s, report.t_boundary_s, report.t_harmonic_s)
    assert all(t > 0.0 for t in phases)
    assert report.t_total_s == pytest.approx(sum(phases), rel=1e-12)
    assert 0.9 * wall <= report.t_total_s <= wall
