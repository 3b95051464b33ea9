"""Property tests of the free-space solve: linearity, mirror symmetry, axis
permutation and whole-panel translation, each to roundoff, and agreement
with the solve composed from whole-array steps."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from freepoisson import GridFunction, SolverConfig, UniformGrid, solve_free_space
from freepoisson import grid as grid_module
from oracles import solve_by_composition

TOL = 1e-11
# Weights bounded away from zero: subnormal products would lose digits.
WEIGHTS = st.one_of(st.floats(-4.0, -0.25), st.floats(0.25, 4.0))


@st.composite
def problems(draw, min_dim=1):
    """A random grid of ``min_dim``..3 dimensions (8..16 panels per axis,
    random extents), an order, and two random densities on one box of
    nodes that keeps a collar of at least two panels."""
    dim = draw(st.integers(min_dim, 3))
    panels = draw(st.lists(st.integers(8, 16), min_size=dim, max_size=dim))
    lower = draw(st.lists(st.floats(-3.0, 1.0), min_size=dim, max_size=dim))
    extent = draw(st.lists(st.floats(0.25, 4.0), min_size=dim, max_size=dim))
    grid = UniformGrid(lower, [a + e for a, e in zip(lower, extent)], panels)
    box = []
    for m in panels:
        lo = draw(st.integers(2, m - 2))
        box.append(slice(lo, draw(st.integers(lo, m - 2)) + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    densities = []
    for _ in range(2):
        values = np.zeros(grid.shape)
        values[tuple(box)] = rng.standard_normal(values[tuple(box)].shape)
        densities.append(GridFunction(grid, values))
    return grid, SolverConfig(order=draw(st.sampled_from([4, 6]))), densities


def solve(grid, values, config) -> np.ndarray:
    return solve_free_space(GridFunction(grid, values), config=config)[0].values


@settings(max_examples=12)
@given(problems(), WEIGHTS, WEIGHTS)
def test_linearity(problem, a, b):
    grid, config, (rho1, rho2) = problem
    phi1 = solve(grid, rho1.values, config)
    phi2 = solve(grid, rho2.values, config)
    both = solve(grid, a * rho1.values + b * rho2.values, config)
    scale = max(abs(a) * np.max(np.abs(phi1)), abs(b) * np.max(np.abs(phi2)))
    assert np.max(np.abs(both - (a * phi1 + b * phi2))) <= TOL * scale


@settings(max_examples=12)
@given(problems(), st.integers(0, 2))
def test_mirror_symmetry(problem, axis):
    # Node i maps to node M - i, which maps the grid onto itself, so the
    # potential of the flipped density is the flipped potential.
    grid, config, (rho, _) = problem
    axis %= grid.dim
    phi = solve(grid, rho.values, config)
    mirrored = solve(grid, np.flip(rho.values, axis), config)
    assert np.max(np.abs(mirrored - np.flip(phi, axis))) <= TOL * np.max(np.abs(phi))


@settings(max_examples=12)
@given(problems(min_dim=2), st.permutations(range(3)))
def test_axis_permutation(problem, axes):
    # Relabelling the axes permutes the grid's bounds and panels and
    # transposes the density, so the potential is the transposed potential.
    grid, config, (rho, _) = problem
    axes = [s for s in axes if s < grid.dim]
    permuted = UniformGrid(*([v[s] for s in axes] for v in (grid.lower, grid.upper, grid.panels)))
    phi = solve(grid, rho.values, config)
    transposed = solve(permuted, rho.values.transpose(axes), config)
    assert np.max(np.abs(transposed - phi.transpose(axes))) <= TOL * np.max(np.abs(phi))


@settings(max_examples=12)
@given(problems(), st.lists(st.integers(-6, 6), min_size=3, max_size=3))
def test_translation_by_whole_panels(problem, shifts):
    # The same node values on the grid moved by whole panels along every
    # axis describe the translated density, whose potential is the same.
    grid, config, (rho, _) = problem
    h = grid.mesh
    moved = UniformGrid(
        [x + n * hs for x, n, hs in zip(grid.lower, shifts, h)],
        [x + n * hs for x, n, hs in zip(grid.upper, shifts, h)],
        grid.panels,
    )
    phi = solve(grid, rho.values, config)
    assert np.max(np.abs(solve(moved, rho.values, config) - phi)) <= TOL * np.max(np.abs(phi))


@settings(max_examples=24)
@given(problems(), st.sampled_from([0, 2]), st.sampled_from([1, 64, grid_module._BLOCK]))
def test_solve_matches_whole_array_composition(problem, padding, block):
    # The solve works in place in one node array and runs its tables and
    # sweeps block by block; against whole-array steps that changes only
    # the order of the sums.  ``block`` = 1 makes every block one row of
    # axis 0.
    grid, config, (rho, _) = problem
    config = SolverConfig(order=config.order, padding_panels=padding)
    with mock.patch.object(grid_module, "_BLOCK", block):
        phi = solve_free_space(rho, config=config)[0].values
    want = solve_by_composition(rho, config).values
    assert np.max(np.abs(phi - want)) <= 1e-14 * np.max(np.abs(want))
