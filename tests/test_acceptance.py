"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The long 4th-order saturation study is marked slow; include it
with ``-m slow`` (or run the whole file without deselecting).
"""

import math
import os
import time

import numpy as np
import pytest

from freepoisson import (
    BoundaryValues,
    GridFunction,
    SolverConfig,
    UniformGrid,
    boundary_values_fast,
    boundary_values_naive,
    solve_free_space,
)
from freepoisson.cli import domain_invariance_study, fit_slope
from freepoisson.dirichlet import _support_box, _support_lines
from freepoisson.transforms import _dst_support_in_place
from oracles import (
    boundary_from_callable,
    bump_from_differentiability,
    solve_harmonic,
    solve_phi_star,
)

CENTER = (1.0 / math.sqrt(31.0), 0.2, 0.1)
THREADS = min(8, os.cpu_count() or 1)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"\nCRITERION {num} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def rel_face_diff(a: BoundaryValues, b: BoundaryValues) -> float:
    scale = max(a.abs_max(), b.abs_max())
    worst = max(float(np.max(np.abs(a.faces[k] - b.faces[k]))) for k in a.faces)
    return worst / scale if scale > 0 else worst


def random_density(grid: UniformGrid, rng) -> GridFunction:
    vals = np.zeros(grid.shape)
    inner = tuple(slice(2, -2) for _ in range(grid.dim))
    vals[inner] = rng.standard_normal(tuple(m - 3 for m in grid.panels))
    return GridFunction(grid, vals)


def test_criterion_1_boundary_oracle_equivalence():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        panels = rng.integers(4, 25, size=2)
        lo = rng.uniform(-2, 0, size=2)
        hi = lo + rng.uniform(1, 3, size=2)
        rho = random_density(UniformGrid(lo, hi, panels), rng)
        worst = max(
            worst,
            rel_face_diff(boundary_values_naive(rho), boundary_values_fast(rho, 2)),
        )
    for _ in range(10):
        panels = rng.integers(4, 13, size=3)
        lo = rng.uniform(-2, 0, size=3)
        hi = lo + rng.uniform(1, 3, size=3)
        rho = random_density(UniformGrid(lo, hi, panels), rng)
        worst = max(
            worst,
            rel_face_diff(boundary_values_naive(rho), boundary_values_fast(rho, 4)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed < 30.0
    assert report(
        1, ok,
        f"fast vs naive worst rel diff {worst:.2e} (tol 1e-11) over 30 random "
        f"instances, {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_2_dense_solve_equivalence():
    from oracles import assemble_dense

    t0 = time.perf_counter()
    worst = 0.0
    for bounds, panels in [
        (((-1.0, -1.0), (1.0, 1.0)), (8, 8)),
        (((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)), (6, 6, 6)),
    ]:
        g = UniformGrid(bounds[0], bounds[1], panels)
        bv = boundary_from_callable(
            g, lambda *xs: np.sin(2 * xs[0]) + np.cos(3 * xs[1]) + 0.5 * xs[-1]
        )
        A, b = assemble_dense(g, bv)
        dense = np.linalg.solve(A, b).reshape(g.interior_shape)
        u = solve_harmonic(bv, 4)
        worst = max(
            worst,
            float(np.max(np.abs(u.interior() - dense)) / np.max(np.abs(dense))),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    assert report(
        2, ok,
        f"FFT vs dense solve worst rel diff {worst:.2e} (tol 1e-10) on 8x8 and "
        f"6x6x6, {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_3_exactness_suite():
    t0 = time.perf_counter()
    results = []

    # constants, linears, quadratic harmonic polynomials in 2D and 3D
    for dim in (2, 3):
        g = UniformGrid([-1.0] * dim, [1.0, 1.5, 1.25][:dim], [10, 9, 8][:dim])
        for fn in (
            lambda *xs: np.full_like(sum(xs), -1.5),
            lambda *xs: xs[0] - 2.0 * xs[1] + 0.25,
            lambda *xs: xs[0] ** 2 - xs[-1] ** 2,
        ):
            exact = GridFunction.from_callable(g, fn)
            scale = np.max(np.abs(exact.values))
            bv = boundary_from_callable(g, fn)
            for order in (4, 6):
                err = np.max(np.abs(solve_harmonic(bv, order).values - exact.values)) / scale
                results.append(("harmonic", err, 1e-11))

    # single sine modes eigen-solved by the spectral Poisson component
    a, b, c, d = -1.0, 1.0, 0.0, 2.0
    g = UniformGrid([a, c], [b, d], [12, 14])
    for k1, k2 in [(1, 1), (2, 3)]:
        lam = (k1 * math.pi / (b - a)) ** 2 + (k2 * math.pi / (d - c)) ** 2
        mode = lambda x, y: np.sin(k1 * math.pi * (x - a) / (b - a)) * np.sin(
            k2 * math.pi * (y - c) / (d - c)
        )
        rho = GridFunction.from_callable(g, lambda x, y: -lam * mode(x, y))
        phi = solve_phi_star(rho)
        want = GridFunction.from_callable(g, mode)
        err = np.max(np.abs(phi.interior() - want.interior()))
        results.append(("dirichlet-mode", err, 1e-13))

    # DST round trip: the solver's forward transform on the support box,
    # scaled, then its inverse on the whole interior, both in place in one
    # node array
    rng = np.random.default_rng(33)
    for panels in [(9,), (8, 10), (5, 6, 7)]:
        g = UniformGrid([0.0] * len(panels), [1.0] * len(panels), panels)
        f = GridFunction(g, rng.standard_normal(g.shape))
        values = f.values.copy()
        inside = values[(slice(1, -1),) * g.dim]
        _dst_support_in_place(inside, _support_box(_support_lines(inside)))
        inside *= 1.0 / np.prod([2.0 * m for m in panels])
        _dst_support_in_place(inside, (slice(None),) * g.dim)
        err = np.max(np.abs(inside - f.interior())) / np.max(np.abs(f.values))
        results.append(("dst-roundtrip", err, 1e-13))

    elapsed = time.perf_counter() - t0
    worst_by_kind = {}
    ok = elapsed < 5.0
    for kind, err, tol in results:
        worst_by_kind[kind] = max(worst_by_kind.get(kind, 0.0), err)
        ok = ok and err <= tol
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst_by_kind.items())
    assert report(3, ok, f"{detail}; {elapsed:.1f}s (budget 5s)")


def test_criterion_4_harmonic_convergence_rates():
    # The compact operator's h^2 error terms cancel for harmonic u, so its
    # truncation error starts at h^4 times 6th derivatives and is zero for
    # harmonic polynomials of degree <= 5 on any mesh.  Degree-5 data
    # Re((x+iy)^5) is therefore checked for exactness, not for a rate.  On
    # Re((x+iy)^7) the h^4 term is nonzero and the h^6 term (8th derivatives)
    # vanishes, leaving a pure 4th order error for the 4th order solve; the
    # 6th order sweep measures its rate on the same data.  The mesh is
    # anisotropic (hx != hy): on a square mesh both solves reproduce
    # Re((x+iy)^6) and Re((x+iy)^7) to roundoff and neither slope exists.
    t0 = time.perf_counter()
    bounds = ((-1.0, -1.0), (1.0, 1.5))
    panels = [16, 24, 32, 48, 64]

    def sweep(fn, order):
        errs = []
        for M in panels:
            g = UniformGrid(bounds[0], bounds[1], [M, M])
            exact = GridFunction.from_callable(g, fn)
            u = solve_harmonic(boundary_from_callable(g, fn), order)
            errs.append(
                float(
                    np.max(np.abs(u.values - exact.values))
                    / np.max(np.abs(exact.values))
                )
            )
        hs = [(bounds[1][0] - bounds[0][0]) / M for M in panels]
        return fit_slope(hs, errs), errs

    deg5 = lambda x, y: np.real((x + 1j * y) ** 5)
    deg7 = lambda x, y: np.real((x + 1j * y) ** 7)
    _, errs5 = sweep(deg5, 4)
    slope4, _ = sweep(deg7, 4)
    slope6, _ = sweep(deg7, 6)
    elapsed = time.perf_counter() - t0
    ok5 = max(errs5) <= 1e-12
    ok4 = abs(slope4 - 4.0) <= 0.3
    ok6 = slope6 >= 5.5
    ok = ok5 and ok4 and ok6 and elapsed < 20.0
    assert report(
        4, ok,
        f"order-4 degree-5 error {max(errs5):.1e} (want <= 1e-12), "
        f"order-4 slope {slope4:.2f} on degree 7 (want 4 +/- 0.3), "
        f"order-6 slope {slope6:.2f} on degree 7 (want >= 5.5); "
        f"{elapsed:.1f}s (budget 20s)",
    )


def _solve_error(bump, M, order):
    g = UniformGrid([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], [M, M, M])
    phi, _ = solve_free_space(bump, g, SolverConfig(order=order, thread_count=THREADS))
    exact = GridFunction.from_callable(g, bump.potential)
    return float(
        np.max(np.abs(phi.values - exact.values)) / np.max(np.abs(exact.values))
    )


def test_criterion_5_table1_reproduction():
    t0 = time.perf_counter()
    panels = [20, 32, 40, 64, 80]
    hs = [2.0 / M for M in panels]
    windows = {0: (1.5, 3.5), 2: (3.5, 5.5), 4: (5.0, 8.0), 6: (6.0, None), 8: (6.0, None)}
    errors = {}
    slopes = {}
    ok = True
    details = []
    for diff in (0, 2, 4, 6, 8):
        bump = bump_from_differentiability(3, diff, 0.4, CENTER)
        errors[(6, diff)] = [_solve_error(bump, M, 6) for M in panels]
        slope = fit_slope(hs, errors[(6, diff)])
        slopes[diff] = slope
        lo, hi = windows[diff]
        good = slope >= lo and (hi is None or slope <= hi)
        ok = ok and good
        details.append(f"diff {diff}: slope {slope:.2f}{'' if good else ' (!)'}")
    for diff in (0, 2, 4):
        bump = bump_from_differentiability(3, diff, 0.4, CENTER)
        errors[(4, diff)] = [_solve_error(bump, M, 4) for M in panels]
        for e4, e6 in zip(errors[(4, diff)], errors[(6, diff)]):
            if not (e4 <= 2.0 * e6 and e6 <= 2.0 * e4):
                ok = False
                details.append(f"diff {diff}: order-4/6 disagree ({e4:.1e} vs {e6:.1e})")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    assert report(
        5, ok,
        "; ".join(details) + f"; order-4/6 within 2x for diff<=4; "
        f"{elapsed:.0f}s (budget 600s)",
    )


def test_criterion_6_domain_invariance():
    t0 = time.perf_counter()
    bump = bump_from_differentiability(3, 6, 0.4, CENTER)
    base = UniformGrid([-1, -1, -1], [1, 1, 1], [20, 20, 20])
    config = SolverConfig(order=6, thread_count=THREADS)
    base_err = _solve_error(bump, 20, 6)
    rows = domain_invariance_study(bump, base, [1.0, 1.2, 1.6, 2.0], config)
    elapsed = time.perf_counter() - t0
    worst = max(diff for _, diff in rows)
    ok = worst <= base_err and rows[0][1] == 0.0 and elapsed < 300.0
    assert report(
        6, ok,
        f"max domain variation {worst:.2e} <= base error {base_err:.2e} "
        f"(h=0.1, D up to 2); {elapsed:.0f}s (budget 300s)",
    )


def test_criterion_7_thread_determinism():
    t0 = time.perf_counter()
    bump = bump_from_differentiability(3, 6, 0.4, CENTER)
    g = UniformGrid([-1, -1, -1], [1, 1, 1], [24, 24, 24])
    ref, _ = solve_free_space(bump, g, SolverConfig(order=6, thread_count=1))
    ok = True
    for threads in (2, 4, 8):
        phi, _ = solve_free_space(bump, g, SolverConfig(order=6, thread_count=threads))
        ok = ok and np.array_equal(phi.values, ref.values)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    assert report(
        7, ok,
        f"phi bitwise identical across thread counts 1,2,4,8; "
        f"{elapsed:.0f}s (budget 120s)",
    )


def test_criterion_8_complexity_smoke():
    bump = bump_from_differentiability(3, 6, 0.4, CENTER)
    config = SolverConfig(order=6, thread_count=1)

    def timed(M):
        g = UniformGrid([-1, -1, -1], [1, 1, 1], [M, M, M])
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            solve_free_space(bump, g, config)
            best = min(best, time.perf_counter() - t0)
        return best

    timed(10)  # warm-up: transform plans and caches
    t_small = timed(20)
    t_big = timed(40)
    ratio = t_big / t_small
    ok = ratio <= 12.0
    assert report(
        8, ok,
        f"doubling panels per axis: {t_small * 1e3:.0f}ms -> {t_big * 1e3:.0f}ms, "
        f"ratio {ratio:.1f} (loose bound 12; N log N predicts ~8-9)",
    )


@pytest.mark.slow
def test_criterion_5_optional_fourth_order_saturation():
    # 4th order rate at fine meshes (h in [0.01, 0.02]); long run
    t0 = time.perf_counter()
    panels = [100, 128, 160, 200]
    bump = bump_from_differentiability(3, 6, 0.4, CENTER)
    errs = [_solve_error(bump, M, 4) for M in panels]
    slope = fit_slope([2.0 / M for M in panels], errs)
    elapsed = time.perf_counter() - t0
    ok = abs(slope - 4.1) <= 0.5
    assert report(
        5, ok,
        f"optional long test: order-4 saturation slope {slope:.2f} "
        f"(want 4.1 +/- 0.5) over panels 100..200; {elapsed:.0f}s",
    )
