import math

import numpy as np
import pytest

from freepoisson import (
    GridFunction,
    SupportViolationError,
    UniformGrid,
)
from freepoisson.dirichlet import _phi_star_in_place, check_support, continuous_eigenvalues
from freepoisson.transforms import _series_in_place
from oracles import dst_coefficients, row_blocks_assembled, zero_function


def phi_star(rho: GridFunction) -> GridFunction:
    """The solver's zero-Dirichlet solve of ``rho``, in place in a node array with zero boundary nodes."""
    support = check_support(rho)
    inside = (slice(1, -1),) * rho.grid.dim
    values = np.zeros(rho.grid.shape)
    values[inside] = rho.interior()
    _phi_star_in_place(values[inside], rho.grid, support.box)
    return _series_in_place(values, rho.grid)


def full_eigenvalues(g: UniformGrid) -> np.ndarray:
    """The continuous eigenvalues on every mode, assembled from blocks of two rows."""
    return row_blocks_assembled(continuous_eigenvalues(g), g.panels[0] - 1, 2)


def test_eigenvalue_table_negative_and_correct():
    g = UniformGrid([-1.0, 0.0], [2.0, 1.0], [6, 5])
    lam = full_eigenvalues(g)
    assert lam.shape == (5, 4)
    assert np.all(lam < 0)
    k1, k2 = 3, 2
    want = -((k1 * math.pi / 3.0) ** 2 + (k2 * math.pi / 1.0) ** 2)
    assert lam[k1 - 1, k2 - 1] == pytest.approx(want, rel=1e-15)


def test_single_mode_is_eigenfunction():
    a, b, c, d = -1.0, 1.0, 0.0, 2.0
    g = UniformGrid([a, c], [b, d], [16, 12])
    lam = (math.pi / (b - a)) ** 2 + (math.pi / (d - c)) ** 2
    mode = lambda x, y: np.sin(math.pi * (x - a) / (b - a)) * np.sin(
        math.pi * (y - c) / (d - c)
    )
    rho = GridFunction.from_callable(g, lambda x, y: -lam * mode(x, y))
    phi = phi_star(rho)
    want = GridFunction.from_callable(g, mode)
    assert np.max(np.abs(phi.interior() - want.interior())) < 1e-13


def test_zero_density_gives_zero():
    g = UniformGrid([0, 0, 0], [1, 1, 1], [4, 4, 4])
    phi = phi_star(zero_function(g))
    assert np.all(phi.values == 0.0)


def test_boundary_is_exactly_zero():
    rng = np.random.default_rng(0)
    g = UniformGrid([0, 0], [1, 1], [9, 7])
    vals = np.zeros(g.shape)
    vals[1:-1, 1:-1] = rng.standard_normal(g.interior_shape)
    phi = phi_star(GridFunction(g, vals))
    assert np.all(phi.values[0, :] == 0.0)
    assert np.all(phi.values[-1, :] == 0.0)
    assert np.all(phi.values[:, 0] == 0.0)
    assert np.all(phi.values[:, -1] == 0.0)


def test_random_density_matches_series_oracle():
    """Mode-by-mode solve of the continuous-spectral system, summed directly."""
    rng = np.random.default_rng(12)
    g = UniformGrid([-1.0, 0.5], [1.0, 2.0], [6, 7])
    vals = np.zeros(g.shape)
    vals[1:-1, 1:-1] = rng.standard_normal(g.interior_shape)
    rho = GridFunction(g, vals)
    phi = phi_star(rho)

    lengths = [g.upper[s] - g.lower[s] for s in range(2)]
    beta = np.zeros(g.interior_shape)
    for k in np.ndindex(beta.shape):
        acc = 0.0
        for i in np.ndindex(beta.shape):
            term = vals[i[0] + 1, i[1] + 1]
            for s in range(2):
                term *= math.sin((k[s] + 1) * math.pi * (i[s] + 1) / g.panels[s])
            acc += term
        beta[k] = acc * (2 / lengths[0]) * (2 / lengths[1]) * g.mesh[0] * g.mesh[1]
    expected = np.zeros(g.interior_shape)
    for i in np.ndindex(expected.shape):
        acc = 0.0
        for k in np.ndindex(expected.shape):
            lam = -sum(
                ((k[s] + 1) * math.pi / lengths[s]) ** 2 for s in range(2)
            )
            term = beta[k] / lam
            for s in range(2):
                term *= math.sin((k[s] + 1) * math.pi * (i[s] + 1) / g.panels[s])
            acc += term
        expected[i] = acc
    assert np.max(np.abs(phi.interior() - expected)) <= 1e-12 * np.max(
        np.abs(expected)
    )


def test_solves_poisson_for_the_sine_interpolant():
    # apply the continuous Laplacian to the reconstructed series and compare
    rng = np.random.default_rng(5)
    g = UniformGrid([0.0, 0.0], [1.0, 1.0], [8, 8])
    vals = np.zeros(g.shape)
    vals[1:-1, 1:-1] = rng.standard_normal(g.interior_shape)
    rho = GridFunction(g, vals)
    phi = phi_star(rho)
    alpha = dst_coefficients(phi)
    lam = full_eigenvalues(g)
    beta = dst_coefficients(rho)
    assert np.max(np.abs(alpha * lam - beta)) <= 1e-12 * np.max(np.abs(beta))


def test_linearity():
    rng = np.random.default_rng(8)
    g = UniformGrid([0, 0], [1, 1], [10, 9])
    v1 = np.zeros(g.shape)
    v2 = np.zeros(g.shape)
    v1[1:-1, 1:-1] = rng.standard_normal(g.interior_shape)
    v2[1:-1, 1:-1] = rng.standard_normal(g.interior_shape)
    p1 = phi_star(GridFunction(g, v1))
    p2 = phi_star(GridFunction(g, v2))
    p12 = phi_star(GridFunction(g, 3.0 * v1 - 2.0 * v2))
    combo = 3.0 * p1.values - 2.0 * p2.values
    assert np.max(np.abs(p12.values - combo)) <= 1e-12 * np.max(np.abs(combo))


def test_nonzero_boundary_density_rejected():
    g = UniformGrid([0, 0], [1, 1], [6, 6])
    vals = np.zeros(g.shape)
    vals[0, 3] = 1.0
    with pytest.raises(SupportViolationError):
        phi_star(GridFunction(g, vals))
