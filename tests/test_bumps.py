import math

import numpy as np
import pytest
from scipy.integrate import quad

from freepoisson import PolyBump
from freepoisson.greens import green_values
from oracles import bump_from_differentiability, density_radial


def evaluate_bump(bump: PolyBump, x):
    """Density at points (last axis = coordinates)."""
    return bump.density(*np.moveaxis(np.atleast_1d(np.asarray(x, dtype=float)), -1, 0))


def analytic_potential(bump: PolyBump, x):
    """Exact potential at points (last axis = coordinates)."""
    return bump.potential(*np.moveaxis(np.atleast_1d(np.asarray(x, dtype=float)), -1, 0))


# Surface area of the unit sphere in R^d.
SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def radial_mass(bump: PolyBump) -> float:
    return quad(
        lambda r: SURFACE[bump.dim] * r ** (bump.dim - 1) * float(density_radial(bump, r)),
        0.0,
        bump.epsilon,
        epsabs=1e-14,
        epsrel=1e-13,
    )[0]


def potential_by_quadrature(bump: PolyBump, r0: float) -> float:
    eps = bump.epsilon
    B = lambda s: float(density_radial(bump, s))
    if bump.dim == 3:
        inner = quad(lambda s: s * s * B(s), 0, r0, epsabs=1e-15)[0]
        outer = quad(lambda s: s * B(s), r0, eps, epsabs=1e-15)[0]
        return -inner / r0 - outer
    if bump.dim == 2:
        inner = quad(lambda s: s * B(s), 0, r0, epsabs=1e-15)[0]
        outer = quad(lambda s: s * math.log(s) * B(s), r0, eps, epsabs=1e-15)[0]
        return math.log(r0) * inner + outer
    cumulative = lambda s: quad(B, 0, s, epsabs=1e-15)[0]
    return eps / 2.0 - quad(cumulative, r0, eps, epsabs=1e-13)[0]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 3, 5, 7, 9])
def test_unit_integral(dim, p):
    bump = PolyBump(dim, 0.4, p, [0.0] * dim)
    assert radial_mass(bump) == pytest.approx(1.0, abs=1e-12)


def test_gamma_3d_closed_form_vs_quadrature():
    bump = PolyBump(3, 0.4, 7, [0.0, 0.0, 0.0])
    integral = quad(
        lambda r: (1 - (r / 0.4) ** 2) ** 7 * r * r, 0, 0.4, epsabs=1e-16
    )[0]
    assert bump.gamma == pytest.approx(1.0 / (4.0 * math.pi * integral), rel=1e-12)


def test_bump_support_edge_and_peak():
    bump = PolyBump(3, 0.4, 7, [0.1, -0.2, 0.3])
    assert float(density_radial(bump, 0.4)) == 0.0
    assert float(density_radial(bump, 0.5)) == 0.0
    assert float(density_radial(bump, 0.0)) == bump.gamma
    x_on_edge = np.array([0.1 + 0.4, -0.2, 0.3])
    assert evaluate_bump(bump, x_on_edge) == 0.0
    assert evaluate_bump(bump, np.array([0.1, -0.2, 0.3])) == bump.gamma


def test_differentiability_mapping():
    for diff in (0, 2, 4, 6, 8):
        b = bump_from_differentiability(3, diff, 0.4, [0, 0, 0])
        assert b.p == diff + 1


@pytest.mark.parametrize("dim,p", [(1, 2), (2, 3), (3, 7), (3, 1), (2, 9)])
def test_interior_potential_matches_quadrature(dim, p):
    bump = PolyBump(dim, 0.4, p, [0.0] * dim)
    for r0 in (0.05, 0.2, 0.333333, 0.39):
        assert float(bump.potential_radial(r0)) == pytest.approx(
            potential_by_quadrature(bump, r0), abs=1e-12
        )


def test_far_field_is_exactly_the_greens_function():
    for dim in (1, 2, 3):
        bump = PolyBump(dim, 0.3, 5, [0.0] * dim)
        for r in (0.3, 0.45, 0.6, 2.0, 10.0):
            assert float(bump.potential_radial(r)) == green_values(dim, r)


def test_far_field_examples():
    b3 = PolyBump(3, 0.4, 7, [0, 0, 0])
    assert float(b3.potential_radial(0.8)) == pytest.approx(
        -1.0 / (8.0 * math.pi * 0.4), rel=1e-15
    )
    b2 = PolyBump(2, 0.4, 7, [0, 0])
    for r in (0.4, 0.7, 1.3):
        assert float(b2.potential_radial(r)) == pytest.approx(
            math.log(r) / (2.0 * math.pi), rel=1e-15
        )


def test_potential_and_derivative_continuous_at_support_edge():
    for dim in (1, 2, 3):
        bump = PolyBump(dim, 0.4, 4, [0.0] * dim)
        eps = bump.epsilon
        jump = float(bump.potential_radial(eps - 1e-8)) - float(
            bump.potential_radial(eps + 1e-8)
        )
        assert abs(jump) < 5e-8  # value continuous (slope ~ O(1) at the edge)
        d_in = (
            float(bump.potential_radial(eps - 1e-6))
            - float(bump.potential_radial(eps - 2e-6))
        ) / 1e-6
        d_out = (
            float(bump.potential_radial(eps + 2e-6))
            - float(bump.potential_radial(eps + 1e-6))
        ) / 1e-6
        assert d_in == pytest.approx(d_out, abs=1e-4)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("p", range(1, 13))
@pytest.mark.parametrize("eps", [0.1, 0.4, 1.7])
def test_interior_polynomial_meets_the_greens_function_at_the_edge(dim, p, eps):
    # Value and slope at u = (r/eps)^2 = 1 from the coefficients themselves,
    # to roundoff: a wrong constant term or a wrong mass fails here.
    c = PolyBump(dim, eps, p, [0.0] * dim)._potential_coeffs
    value = sum(c[::-1].tolist())  # Horner's rule at u = 1
    assert abs(value - float(green_values(dim, eps))) <= 2e-15 * np.max(np.abs(c))
    mc = np.arange(c.size) * c * (2.0 / eps)  # d/dr of c_m u^m at u = 1
    slope = 1.0 / (SURFACE[dim] * eps ** (dim - 1))  # the Green's function's
    assert abs(np.sum(mc) - slope) <= 2e-15 * np.max(np.abs(mc))


# gamma.hex() as the per-dimension derivations gave it; the benchmark's bumps
# first.  Densities, and so every solve, depend on these bits.
@pytest.mark.parametrize("dim,eps,p,bits", [
    (3, 0.4, 7, "0x1.09aac2ffe1b70p+6"),
    (3, 0.3, 5, "0x1.9ee166108c1acp+6"),
    (2, 0.1, 7, "0x1.fd4bbab8b494cp+7"),
    (1, 0.4, 2, "0x1.2c00000000000p+1"),
    (1, 1.7, 12, "0x1.2f65ec0000000p+0"),
    (2, 0.4, 9, "0x1.3e4f54b370dcfp+4"),
    (2, 0.6, 7, "0x1.c4b517c0a0844p+2"),
    (3, 0.1, 1, "0x1.2a6a5f6839cf2p+9"),
])
def test_gamma_bits_are_pinned(dim, eps, p, bits):
    assert PolyBump(dim, eps, p, [0.0] * dim).gamma.hex() == bits


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_laplacian_of_potential_is_the_density(dim):
    """Centered second differences of the potential converge to the density."""
    rng = np.random.default_rng(dim)
    bump = PolyBump(dim, 0.5, 6, rng.uniform(-0.1, 0.1, size=dim))
    points = rng.uniform(-0.25, 0.25, size=(6, dim)) + np.array(bump.center)

    def laplacian_fd(x, h):
        total = 0.0
        for s in range(dim):
            e = np.zeros(dim)
            e[s] = h
            total += (
                analytic_potential(bump, x + e)
                - 2.0 * analytic_potential(bump, x)
                + analytic_potential(bump, x - e)
            ) / h**2
        return total

    for x in points:
        rho = evaluate_bump(bump, x)
        err_coarse = abs(laplacian_fd(x, 2e-3) - rho)
        err_fine = abs(laplacian_fd(x, 1e-3) - rho)
        # second order: halving the step should shrink the error ~4x
        assert err_fine <= err_coarse / 2.5 + 1e-7


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        PolyBump(3, -0.1, 3, [0, 0, 0])
    with pytest.raises(ValueError):
        PolyBump(3, 0.4, 0, [0, 0, 0])
    with pytest.raises(ValueError):
        PolyBump(2, 0.4, 3, [0.0])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 4, 7])
def test_density_matches_density_radial(dim, p):
    # density works from the squared distance without a square root; it must
    # agree with the radial profile to roundoff and vanish on the same nodes.
    bump = PolyBump(dim, 0.4, p, (0.31, -0.2, 0.05)[:dim])
    axes = [np.linspace(-0.5, 0.9, n) for n in (97, 61, 45)[:dim]]
    coords = np.meshgrid(*axes, indexing="ij", sparse=True)
    radius = np.sqrt(sum((c - c0) ** 2 for c, c0 in zip(coords, bump.center)))
    got = bump.density(*coords)
    want = density_radial(bump, radius)
    assert got.shape == want.shape
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-15 * bump.gamma
    assert np.any(got == 0.0) and np.max(got) > 0.9 * bump.gamma


@pytest.mark.parametrize("p", [1, 7])
def test_density_bitwise_equals_clipped_power(p):
    # The power and the scaling run only inside the support; a grid that
    # straddles the support edge must still give exactly the plain formula.
    bump = PolyBump(3, 0.4, p, (0.1, -0.05, 0.07))
    x, y, z = np.meshgrid(*(np.linspace(-0.5, 0.5, 23),) * 3, indexing="ij", sparse=True)
    u = ((x - 0.1) ** 2 + (y + 0.05) ** 2 + (z - 0.07) ** 2) / 0.4**2
    expect = bump.gamma * np.maximum(1 - u, 0) ** p
    assert 0 < np.count_nonzero(expect) < expect.size
    got = bump.density(x, y, z)
    assert got.shape == expect.shape and np.array_equal(got, expect)
    assert np.array_equal(np.signbit(got), np.signbit(expect))
