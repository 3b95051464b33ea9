import contextlib
import itertools
import math
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.fft

import freepoisson.boundary
import freepoisson.dirichlet
import freepoisson.solver
from freepoisson import (
    GridFunction,
    PolyBump,
    ShapeError,
    SolverConfig,
    SupportViolationError,
    UniformGrid,
    boundary_values_fast,
    pad_domain,
    solve_free_space,
)
from freepoisson.dirichlet import check_support
from oracles import (
    boundary_array,
    bump_from_differentiability,
    fft_users,
    node_coordinate,
    solve_harmonic,
    solve_phi_star,
    src_env,
    zero_function,
)

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


@pytest.mark.parametrize("padding", [0, 3])
def test_one_padding_per_solve(padding):
    g = UniformGrid([-1.0, -1.0], [1.0, 1.0], [12, 14])
    bump = PolyBump(2, 0.4, 5, (0.1, 0.0))
    with mock.patch.object(freepoisson.solver, "_padded", wraps=freepoisson.solver._padded) as pad:
        solve_free_space(bump, g, SolverConfig(order=4, padding_panels=padding,
                                               fft_friendly_expansion=True))
    assert pad.call_count == 1


@pytest.mark.parametrize("shape, box", [
    ((9,), (slice(0, 5),)),  # at offset 0: nothing moves
    ((12,), (slice(3, 10),)),
    ((7, 8), (slice(0, 4), slice(2, 7))),
    # plane i goes to flat nodes 9i..9i+8 from 10i+1..10i+9: they overlap
    ((8, 10), (slice(0, 8), slice(1, 10))),
    ((9, 10), (slice(2, 8), slice(1, 9))),
    ((4, 5, 6), (slice(0, 4), slice(0, 5), slice(1, 6))),  # overlapping planes
    ((6, 7, 8), (slice(1, 5), slice(2, 6), slice(1, 7))),
])
def test_compact_in_place_moves_the_box_to_the_front(shape, box):
    values = np.random.default_rng(len(shape)).standard_normal(shape)
    expected = values[box].copy()
    front = freepoisson.solver._compact_in_place(values, box)
    assert np.array_equal(front, expected)
    assert front.flags.c_contiguous
    assert np.shares_memory(front, values)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_compact_in_place_at_every_offset(dim):
    # Every box that leaves 0 to 3 nodes at either end of each axis.
    inner = (5, 4, 3)[:dim]
    for ends in itertools.product(itertools.product(range(4), repeat=2), repeat=dim):
        shape = tuple(lo + n + hi for (lo, hi), n in zip(ends, inner))
        box = tuple(slice(lo, lo + n) for (lo, _), n in zip(ends, inner))
        values = np.arange(math.prod(shape), dtype=float).reshape(shape)
        front = freepoisson.solver._compact_in_place(values, box)
        assert np.array_equal(front, np.arange(math.prod(shape), dtype=float).reshape(shape)[box])
        assert front.flags.c_contiguous and np.shares_memory(front, values)


def test_zero_density_gives_zero_solution():
    for dim in (1, 2, 3):
        g = UniformGrid([-1.0] * dim, [1.0] * dim, [8] * dim)
        phi, report = solve_free_space(zero_function(g), config=SolverConfig(order=4))
        assert np.all(phi.values == 0.0)
        assert report.boundary_rho_max == 0.0


def test_solve_leaves_caller_arrays_unchanged():
    # The solve works in place in a node array of its own: a copy of an
    # unpadded GridFunction's values, the padded embedding of a padded
    # one's, or new samples of a callable, whose own results (kept here)
    # are copied, not written.  Each result is bitwise that of solving a copy.
    g = UniformGrid([-1.0, -1.0, -1.0], [1.0, 1.2, 0.9], [20, 22, 18])
    bump = PolyBump(3, 0.5, 5, (0.1, 0.05, -0.1))
    rho = GridFunction.from_callable(g, bump)
    before = rho.values.copy()
    for config in (SolverConfig(order=6), SolverConfig(order=6, padding_panels=2)):
        phi, _ = solve_free_space(rho, config=config)
        assert np.array_equal(rho.values, before)
        copy, _ = solve_free_space(GridFunction(g, before.copy()), config=config)
        assert np.array_equal(phi.values, copy.values)

    kept, copies = [], []

    def keeping(*xs):
        kept.append(bump(*xs))
        copies.append(kept[-1].copy())
        return kept[-1]

    phi, _ = solve_free_space(keeping, g, SolverConfig(order=6))
    assert kept and all(np.array_equal(k, c) for k, c in zip(kept, copies))
    assert np.array_equal(phi.values, solve_free_space(bump, g, SolverConfig(order=6))[0].values)


# Where each phase of a solve begins: the solver's call of that name.
PHASE_CALLS = (
    ("boundary", "boundary_values_fast"),
    ("forward DST", "_phi_star_in_place"),
    ("scatters", "_harmonic_scatters"),
    ("harmonic", "_harmonic_sweeps"),
    ("inverse", "_series_in_place"),
)


def _peak_node_arrays(solve, grid: UniformGrid) -> tuple[float, dict[str, float]]:
    """Traced peak allocation of ``solve()``, in node arrays of ``grid``.

    Also returns each phase's peak, by phase name: a phase runs
    from the solver's call that begins it until the next one, so sampling
    ends where the boundary phase begins, the scatters phase includes
    writing the boundary values into the node array, and the inverse DST
    includes the finiteness check and any compaction of a padded grid's
    user nodes.  A first, untraced call keeps lazy imports and caches out
    of the peak.
    """
    solve()
    node_array = 8.0 * math.prod(grid.shape)
    peaks = {}
    phase = "sampling"

    def begin(name):
        nonlocal phase
        peaks[phase] = tracemalloc.get_traced_memory()[1] / node_array
        tracemalloc.reset_peak()
        phase = name

    def entering(name, fn):
        def call(*args, **kwargs):
            begin(name)
            return fn(*args, **kwargs)
        return call

    with contextlib.ExitStack() as stack:
        for name, attr in PHASE_CALLS:
            fn = getattr(freepoisson.solver, attr)
            stack.enter_context(mock.patch.object(freepoisson.solver, attr, entering(name, fn)))
        tracemalloc.start()
        try:
            solve()
            begin(None)
        finally:
            tracemalloc.stop()
    return max(peaks.values()), peaks


def test_peak_memory_3d_order6_callable():
    # One node array per solve, plus blocks of at most an eighth of axis 0
    # and O(face) arrays: about 1.88 node arrays at M = 48, in the harmonic
    # phase, where a face is still a large part of the volume (scatters
    # 1.52; forward DST 1.36; sampling 1.27).  The boundary phase, with the
    # three axes' face accumulators and one group of kernel spectra of at
    # most a twelfth of the node array, takes about 1.54 (1.91 with groups
    # of _BLOCK values).
    g = UniformGrid([-1.0] * 3, [1.0] * 3, [48] * 3)
    bump = PolyBump(3, 0.4, 7, CENTER_3D)
    peak, phases = _peak_node_arrays(lambda: solve_free_space(bump, g, SolverConfig(order=6)), g)
    assert peak <= 2.0, phases
    assert phases["boundary"] <= 1.6, phases


def test_peak_memory_3d_order6_callable_at_m96():
    # The headline size: about 1.45 node arrays, in sweep 1 of the harmonic
    # phase (scatters 1.27, boundary 1.26, sampling 1.13).  The sweeps run
    # without the boundary values, each block is released before the next
    # is built, and sweep 2 runs without sweep 1's scatters and
    # contractions; with the faces and the last block alive it was 1.59.
    g = UniformGrid([-1.0] * 3, [1.0] * 3, [96] * 3)
    bump = PolyBump(3, 0.4, 7, CENTER_3D)
    peak, phases = _peak_node_arrays(lambda: solve_free_space(bump, g, SolverConfig(order=6)), g)
    assert peak <= 1.5, phases
    assert phases["harmonic"] <= 1.47, phases


def test_peak_memory_3d_order6_callable_padded():
    # 88^3 padded by 4 panels a side to 96^3: about 1.45 node arrays of the
    # padded grid, in the harmonic phase, as unpadded.  The user nodes are
    # compacted to the front of the padded array in place (1.78 when the
    # restriction copied them out).
    g = UniformGrid([-1.0] * 3, [1.0] * 3, [88] * 3)
    config = SolverConfig(order=6, padding_panels=4)
    bump = PolyBump(3, 0.4, 7, CENTER_3D)
    peak, phases = _peak_node_arrays(lambda: solve_free_space(bump, g, config), pad_domain(g, config))
    assert peak <= 1.5, phases


def test_peak_memory_3d_order6_wide_support():
    # A wide support needs kernel spectra at many normal distances; built in
    # groups of pairs {d, M - d}, they keep the boundary phase at about 1.56
    # node arrays, below the harmonic phase's 1.67.  The three axes of the
    # cube share their kernel spectra, and the groups shrink to make room
    # for all six face accumulators; the boundary phase has its own bound,
    # since the harmonic phase's higher peak would hide it.
    g = UniformGrid([-1.0] * 3, [1.0] * 3, [64] * 3)
    bump = PolyBump(3, 0.8, 7, CENTER_3D)
    peak, phases = _peak_node_arrays(lambda: solve_free_space(bump, g, SolverConfig(order=6)), g)
    assert peak <= 2.1, phases
    assert phases["boundary"] <= 1.75, phases


def test_peak_memory_3d_order4_padded_samples():
    # Time stepping's shape: samples on the user grid, embedded in a padded
    # 7-smooth grid.  About 1.54 node arrays of the padded grid, in the
    # boundary phase: the six face accumulators (0.34), one group of kernel
    # spectra capped at a twelfth of the node array, and one slice's
    # spectrum (1.70 with groups of _BLOCK values and two slice spectra
    # alive).  Harmonic 1.39, scatters 1.36, forward DST 1.31, sampling
    # 1.15.  The inverse DST, finiteness check and in-place compaction of
    # the user nodes take about 1.08 (1.71 when the restriction copied
    # them out).
    g = UniformGrid([-1.0] * 3, [1.0] * 3, [48] * 3)
    config = SolverConfig(order=4, padding_panels=2, fft_friendly_expansion=True)
    rho = GridFunction.from_callable(g, PolyBump(3, 0.6, 5, CENTER_3D))
    peak, phases = _peak_node_arrays(lambda: solve_free_space(rho, config=config),
                                     pad_domain(g, config))
    assert peak <= 1.55, phases
    assert phases["boundary"] <= 1.55, phases
    assert phases["inverse"] <= 1.1, phases


def test_peak_memory_2d_unpadded_samples():
    # The caller's samples (allocated before the trace starts) are read by
    # the boundary phase and then copied once into the node array the
    # solve owns: about 1.39 node arrays, in the harmonic phase.
    g = UniformGrid([-1.0, -3.0], [1.0, 3.0], [512, 512])
    coords = g.coordinate_arrays()
    rho = GridFunction(g, sum(
        PolyBump(2, 0.15, 7, c).density(*coords) for c in ((0.5, 1.0), (-0.4, -1.5), (0.1, 0.2))
    ))
    peak, phases = _peak_node_arrays(lambda: solve_free_space(rho, config=SolverConfig(order=6)), g)
    assert peak <= 3.0, phases


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
    assert np.array_equal(phi.values[mask], boundary_array(bv)[mask])


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


# A 3D solve runs a scatter along the first, middle and last axis.  The 2D
# grid of about a thousand panels per axis is where a contraction over k
# in BLAS gave different bits at one and two OpenBLAS threads.
_BLAS_PROBE_LARGE = """
import sys
import numpy as np
from freepoisson import PolyBump, SolverConfig, UniformGrid, solve_free_space
for dim, panels in ((3, [40, 44, 36]), (2, [1000, 600])):
    bump = PolyBump(dim, 0.4, 7, (0.1, -0.2, 0.05)[:dim])
    g = UniformGrid([-1] * dim, [1, 1.2, 0.9][:dim], panels)
    phi, _ = solve_free_space(bump, g, SolverConfig(order=6, padding_panels=2))
    sys.stdout.write(phi.values.tobytes().hex())
"""


def _blas_probe_outputs(probe: str) -> list[str]:
    """The probe's output at 1 and at 2 BLAS threads.

    The caps must be set before numpy loads, hence a fresh interpreter per
    count.
    """
    outputs = []
    for threads in ("1", "2"):
        env = src_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(run.stdout)
    return outputs


def test_order6_solve_independent_of_blas_threads():
    # BLAS runs only in the harmonic phase's scatters, and each of their
    # products has one nonzero term per output: the row zeroed off one
    # parity in each of the table's two columns.  Every output is thus one
    # rounded product plus exact zeros, which no blocking, FMA or thread
    # split of BLAS can change.  Sums of several terms (the contractions
    # along the normals) are elementwise numpy code.
    outputs = _blas_probe_outputs(_BLAS_PROBE)
    assert outputs[0] and outputs[0] == outputs[1]


def test_order6_solves_independent_of_blas_threads_3d_and_large_2d():
    outputs = _blas_probe_outputs(_BLAS_PROBE_LARGE)
    assert outputs[0] and outputs[0] == outputs[1]


def test_support_violation_detected():
    g = UniformGrid([-1, -1], [1, 1], [10, 10])
    vals = np.ones(g.shape)  # nonzero up to and including the boundary
    with pytest.raises(SupportViolationError):
        solve_free_space(GridFunction(g, vals), config=SolverConfig())


NON_FINITE = r"density contains 1 non-finite value.*node \(%d, %d\)"


@pytest.mark.parametrize(
    "node, value, inside, error, message",
    [((0, 7), math.nan, True, ShapeError, NON_FINITE % (0, 7)),
     ((8, 5), math.inf, True, ShapeError, NON_FINITE % (8, 5)),
     ((16, 3), -math.inf, True, ShapeError, NON_FINITE % (16, 3)),
     ((4, 0), -2.5, False, SupportViolationError,
      r"boundary \(max 2\.500e\+00, max \|rho\| 2\.500e\+00\)")],
    ids=["boundary-nan", "interior-inf", "boundary-inf", "boundary-only"],
)
def test_non_finite_density_rejected_at_entry(node, value, inside, error, message):
    # A boundary NaN enters neither sum and compares False against the
    # support bound, so only an explicit finiteness check can catch it.
    # The check takes its extremes over the support box and the boundary:
    # a non-finite boundary value, or a density with no interior support,
    # gives the same error, message and precedence as the whole array's.
    g = UniformGrid([-1, -1], [1, 1], [16, 16])
    bump = bump_from_differentiability(2, 6, 0.4, (0.1, 0.2))
    rho = GridFunction.from_callable(g, bump) if inside else zero_function(g)
    rho.values[node] = value
    with pytest.raises(error, match=message):
        check_support(rho)
    with pytest.raises(error, match=message):
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
    # A boundary maximum far below the support bound is reported as it is.
    rho = GridFunction.from_callable(g, bump)
    rho.values[0, 3] = -1e-20
    _, report = solve_free_space(rho)
    assert report.boundary_rho_max == 1e-20


def test_report_face_mismatch():
    # The boundary values' worst relative disagreement where faces meet:
    # none where no faces meet (1D) or every value is zero, roundoff for a
    # bump (about 4.9e-16 at M = 32, padded or not).
    _, report = solve_free_space(zero_function(UniformGrid([-1.0] * 3, [1.0] * 3, [8] * 3)))
    assert report.face_mismatch == 0.0
    _, report = solve_free_space(PolyBump(1, 0.4, 5, (0.1,)), UniformGrid([-1.0], [1.0], [32]))
    assert report.face_mismatch == 0.0
    g = UniformGrid([-1.0] * 3, [1.0] * 3, [32] * 3)
    for config in (SolverConfig(), SolverConfig(padding_panels=2)):
        _, report = solve_free_space(PolyBump(3, 0.4, 7, CENTER_3D), g, config)
        assert 0.0 < report.face_mismatch <= 1e-13


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
    # Count the support checks at every name a module of the solve looks
    # up, and the scans for nonzero lines at the name the check looks up.
    calls = {"check_support": [], "_support_lines": []}
    sites = [(freepoisson.boundary, "check_support"), (freepoisson.solver, "check_support"),
             (freepoisson.dirichlet, "_support_lines")]
    for module, name in sites:
        original = getattr(module, name, None)
        if original is not None:
            def counted(*args, _original=original, _calls=calls[name], **kwargs):
                _calls.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    g = UniformGrid([-1.0] * dim, [1.0] * dim, [12] * dim)
    solve_free_space(PolyBump(dim, 0.4, 5, (0.1, 0.0, -0.1)[:dim]), g, SolverConfig(order=6))
    assert len(calls["check_support"]) == 1
    assert len(calls["_support_lines"]) == 1


class _NoTransforms:
    def __getattr__(self, name):
        raise AssertionError(f"sfft.{name} ran before the density was checked")


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "value, node, error, message",
    [(math.nan, 5, ShapeError, "non-finite"), (1.0, 0, SupportViolationError, "boundary")],
    ids=["non-finite", "on-boundary"],
)
def test_bad_density_rejected_before_any_transform(monkeypatch, dim, value, node, error, message):
    for module in fft_users():
        monkeypatch.setattr(module, "sfft", _NoTransforms())
    g = UniformGrid([-1.0] * dim, [1.0] * dim, [12] * dim)
    rho = GridFunction.from_callable(g, PolyBump(dim, 0.4, 5, (0.1, 0.0, -0.1)[:dim]))
    rho.values[(node,) + (5,) * (dim - 1)] = value
    with pytest.raises(error, match=message):
        solve_free_space(rho, config=SolverConfig())


@pytest.mark.parametrize("dim, panels", [(2, [40, 36]), (3, [14, 16, 12])])
@pytest.mark.parametrize("order", [4, 6])
def test_solves_bitwise_equal_under_the_scipy_fft_fallback(monkeypatch, dim, panels, order):
    g = UniformGrid([-1.0] * dim, [1.0, 1.2, 0.9][:dim], panels)
    bump = PolyBump(dim, 0.4, 7, (0.1, -0.2, 0.05)[:dim])
    config = SolverConfig(order=order, padding_panels=2, thread_count=2)
    bound, _ = solve_free_space(bump, g, config)
    for module in fft_users():
        monkeypatch.setattr(module, "sfft", scipy.fft)
    fallback, _ = solve_free_space(bump, g, config)
    assert np.array_equal(bound.values, fallback.values)


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
        solve_free_space(zero_function(g), config=SolverConfig(order=order))


def test_padding_lifts_the_panel_guard():
    g = UniformGrid([-1.0] * 3, [1.0] * 3, [5] * 3)
    phi, report = solve_free_space(
        zero_function(g), config=SolverConfig(order=6, padding_panels=1)
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
