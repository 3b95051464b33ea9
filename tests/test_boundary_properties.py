"""Property tests of the fast boundary sums against the direct-sum oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from freepoisson import (
    GridFunction,
    UniformGrid,
    boundary_values_fast,
    boundary_values_naive,
)


@st.composite
def densities(draw):
    """A random 2D/3D grid (4..14 panels per axis, random extents) and a
    random density on a box of nodes that keeps a collar of at least one
    panel."""
    dim = draw(st.integers(2, 3))
    panels = draw(st.lists(st.integers(4, 14), min_size=dim, max_size=dim))
    lower = draw(st.lists(st.floats(-3.0, 1.0), min_size=dim, max_size=dim))
    extent = draw(st.lists(st.floats(0.25, 4.0), min_size=dim, max_size=dim))
    grid = UniformGrid(lower, [a + e for a, e in zip(lower, extent)], panels)
    box = []
    for m in panels:
        lo = draw(st.integers(1, m - 1))
        box.append(slice(lo, draw(st.integers(lo, m - 1)) + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.zeros(grid.shape)
    values[tuple(box)] = rng.standard_normal(values[tuple(box)].shape)
    return GridFunction(grid, values)


@settings(max_examples=50)
@given(densities())
def test_fast_equals_naive(rho):
    fast = boundary_values_fast(rho)
    naive = boundary_values_naive(rho)
    scale = naive.abs_max()
    for key, face in naive.faces.items():
        assert np.max(np.abs(fast.faces[key] - face)) <= 1e-11 * scale


@settings(max_examples=25)
@given(densities())
def test_fast_is_bitwise_independent_of_thread_count(rho):
    one = boundary_values_fast(rho, 1)
    two = boundary_values_fast(rho, 2)
    for key, face in one.faces.items():
        assert np.array_equal(face, two.faces[key])
