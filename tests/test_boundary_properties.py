"""Property tests of the fast boundary sums against the direct-sum oracle."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freepoisson import (
    GridFunction,
    UniformGrid,
    boundary_values_fast,
    boundary_values_naive,
)
from freepoisson import grid as grid_module


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


def _one_density(panels, boxes, seed):
    grid = UniformGrid([-1.0] * len(panels), [1.0] * len(panels), panels)
    values = np.zeros(grid.shape)
    box = tuple(slice(lo, hi + 1) for lo, hi in boxes)
    values[box] = np.random.default_rng(seed).standard_normal(values[box].shape)
    return GridFunction(grid, values)


@st.composite
def sided_densities(draw):
    """A 2D/3D density whose support is, per axis, one-sided (all slices in
    one half) or central (around the middle slice, which at even M lies
    M/2 panels from both faces)."""
    dim = draw(st.integers(2, 3))
    panels = draw(st.lists(st.integers(4, 13), min_size=dim, max_size=dim))
    boxes = []
    for m in panels:
        kind = draw(st.sampled_from(["lower", "upper", "central"]))
        if kind == "central":
            lo, hi = draw(st.integers(1, m // 2)), draw(st.integers((m + 1) // 2, m - 1))
        else:
            lo = draw(st.integers(1, (m - 1) // 2))
            hi = draw(st.integers(lo, (m - 1) // 2))
            if kind == "upper":
                lo, hi = m - hi, m - lo
        boxes.append((lo, hi))
    return _one_density(panels, boxes, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(sided_densities())
@example(_one_density([8, 9], [(4, 4), (2, 7)], 0))  # the middle slice of an even M alone
@example(_one_density([10, 7, 12], [(3, 7), (1, 3), (6, 6)], 1))
@example(_one_density([9, 12, 11], [(6, 8), (1, 11), (2, 9)], 2))
def test_fast_with_one_pair_per_group(rho):
    # Each group of kernel spectra holds one pair {d, M - d} of normal
    # distances; only the order in which slices reach the accumulators
    # differs from the default groups.
    default = boundary_values_fast(rho)
    with mock.patch.object(grid_module, "_BLOCK", 1):
        one = boundary_values_fast(rho, 1)
        two = boundary_values_fast(rho, 2)
    naive = boundary_values_naive(rho)
    scale = naive.abs_max()
    for key, face in naive.faces.items():
        assert np.array_equal(one.faces[key], two.faces[key])
        assert np.max(np.abs(one.faces[key] - default.faces[key])) <= 1e-15 * default.abs_max()
        assert np.max(np.abs(one.faces[key] - face)) <= 1e-11 * scale
