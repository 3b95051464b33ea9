from unittest import mock

import numpy as np
import pytest

from freepoisson import (
    AlignmentError,
    GridFunction,
    PolyBump,
    ShapeError,
    UniformGrid,
    max_norm_difference,
    restrict_to_subgrid,
)
from freepoisson import grid as grid_module
from oracles import boundary_from_callable, zero_function


def test_node_coordinate_endpoints():
    g = UniformGrid([0.0], [1.0], [4])
    assert g.axis_coordinates(0)[0] == 0.0
    assert g.axis_coordinates(0)[4] == 1.0


def test_node_coordinate_interior():
    g = UniformGrid([-1.0], [1.0], [20])
    assert g.axis_coordinates(0)[5] == pytest.approx(-0.5, abs=1e-15)


def test_node_coordinate_is_multiply_add():
    g = UniformGrid([-1.0, 0.3], [1.0, 2.7], [7, 13])
    h = g.mesh
    for idx in [(0, 0), (3, 5), (7, 13)]:
        expect = tuple(g.lower[s] + idx[s] * h[s] for s in range(2))
        assert tuple(g.axis_coordinates(s)[i] for s, i in enumerate(idx)) == expect


def test_upper_corner_within_one_ulp():
    # (b - a) / M is not exactly representable here
    g = UniformGrid([0.0], [1.0], [3])
    x = g.axis_coordinates(0)[3]
    assert abs(x - 1.0) <= np.spacing(1.0)


def test_grid_validation():
    with pytest.raises(ShapeError):
        UniformGrid([0.0], [0.0], [4])
    with pytest.raises(ShapeError):
        UniformGrid([0.0], [1.0], [1])
    with pytest.raises(ShapeError):
        UniformGrid([0.0] * 4, [1.0] * 4, [4] * 4)


def test_max_norm_difference_identity_and_constants():
    g = UniformGrid([0, 0], [1, 1], [4, 5])
    f = GridFunction(g, np.ones(g.shape))
    assert max_norm_difference(f, f) == 0.0
    zero = zero_function(g)
    assert max_norm_difference(f, zero) == 1.0


def test_max_norm_difference_random_matches_scan():
    rng = np.random.default_rng(7)
    g = UniformGrid([0, 0], [1, 1], [5, 6])
    a = GridFunction(g, rng.standard_normal(g.shape))
    b = GridFunction(g, rng.standard_normal(g.shape))
    expected = 0.0
    for idx in np.ndindex(g.shape):
        expected = max(expected, abs(a.values[idx] - b.values[idx]))
    assert max_norm_difference(a, b) == expected


def test_max_norm_difference_rejects_mismatched_grids():
    f = zero_function(UniformGrid([0], [1], [4]))
    g = zero_function(UniformGrid([0], [1], [5]))
    with pytest.raises(ShapeError):
        max_norm_difference(f, g)


def test_restrict_identity():
    g = UniformGrid([-1, -1], [1, 1], [8, 8])
    f = GridFunction(g, np.random.default_rng(0).standard_normal(g.shape))
    r = restrict_to_subgrid(f, g)
    assert np.array_equal(r.values, f.values)


def test_restrict_central_window():
    g = UniformGrid([-2.0], [2.0], [40])
    f = GridFunction(g, np.arange(41, dtype=float))
    sub = UniformGrid([-1.0], [1.0], [20])
    r = restrict_to_subgrid(f, sub)
    assert np.array_equal(r.values, np.arange(10, 31, dtype=float))


def test_restrict_strided_mesh():
    # sub mesh twice the parent mesh: nodes coincide every 2nd point
    g = UniformGrid([-2.0], [2.0], [40])
    f = GridFunction(g, np.sin(np.arange(41.0)))
    sub = UniformGrid([-1.0], [1.0], [10])
    r = restrict_to_subgrid(f, sub)
    assert np.array_equal(r.values, f.values[10:31:2])


def test_restrict_misaligned_raises():
    g = UniformGrid([-1.0], [1.0], [10])
    f = zero_function(g)
    with pytest.raises(AlignmentError):
        restrict_to_subgrid(f, UniformGrid([-0.95], [0.85], [9]))
    with pytest.raises(AlignmentError):
        restrict_to_subgrid(f, UniformGrid([-1.0], [1.0], [7]))


def test_restrict_after_embed_is_identity():
    rng = np.random.default_rng(11)
    sub = UniformGrid([-1.0, 0.0], [1.0, 1.0], [10, 5])
    parent = UniformGrid([-1.4, -0.4], [1.4, 1.4], [14, 9])
    embedded = zero_function(parent)
    inner = rng.standard_normal(sub.shape)
    embedded.values[2:13, 2:8] = inner
    r = restrict_to_subgrid(embedded, sub)
    assert np.array_equal(r.values, inner)


def test_gridfunction_shape_check():
    g = UniformGrid([0, 0], [1, 1], [4, 4])
    with pytest.raises(ShapeError):
        GridFunction(g, np.zeros((4, 4)))


def test_boundary_abs_max():
    g = UniformGrid([0, 0], [1, 1], [4, 4])
    f = zero_function(g)
    f.values[0, 2] = -3.0
    f.values[2, 2] = 100.0  # interior, must not count
    assert f.boundary_abs_max() == 3.0


def test_from_callable_matches_coordinates():
    g = UniformGrid([-1, 0], [1, 2], [6, 8])
    f = GridFunction.from_callable(g, lambda x, y: x + 10 * y)
    i, j = 3, 5
    x, y = g.axis_coordinates(0)[i], g.axis_coordinates(1)[j]
    assert f.values[i, j] == pytest.approx(x + 10 * y, rel=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("block", [1, 50, grid_module._BLOCK])
def test_from_callable_blocks_match_whole_grid_evaluation(dim, block):
    # Sampling by blocks of axis-0 rows (one row, a few, the default) gives
    # the samples of one whole-grid call bit for bit, for a bump and for
    # transcendental functions that broadcast a lower-dimensional result.
    g = UniformGrid([-1.0] * dim, [1.0, 1.5, 0.5][:dim], [40, 13, 9][:dim])
    for fn in (PolyBump(dim, 0.8, 5, (0.1, -0.2, 0.05)[:dim]),
               lambda x, *rest: np.sin(3.0 * x) * np.exp(sum(rest, 0.25)),
               lambda x, *rest: np.cos(x) + 0.0 * sum(rest, 0.0)):
        want = np.broadcast_to(fn(*g.coordinate_arrays()), g.shape)
        with mock.patch.object(grid_module, "_BLOCK", block):
            got = GridFunction.from_callable(g, fn).values
        assert np.array_equal(got, want)


def test_boundary_from_callable_wrong_shape_rejected():
    # A result that does not broadcast to a face is a ShapeError naming both
    # shapes, as for GridFunction.from_callable, not numpy's broadcast error.
    g = UniformGrid([-1, -1], [1, 1], [8, 8])
    with pytest.raises(ShapeError, match=r"\(5,\).*\(9,\)"):
        boundary_from_callable(g, lambda x, y: np.zeros(5))


def test_boundary_from_callable_samples_every_face():
    g = UniformGrid([-1, 0, 2], [1, 2.5, 3], [6, 8, 5])
    fn = lambda x, y, z: x + 10 * y + 100 * z
    bv = boundary_from_callable(g, fn)
    full = GridFunction.from_callable(g, fn).values
    for axis in range(3):
        lower = [slice(None)] * 3
        lower[axis] = 0
        assert np.array_equal(bv.faces[(axis, 0)], full[tuple(lower)])
        # the upper face sits exactly on the domain bound
        x = list(g.face_coordinate_arrays(axis, 1))
        assert x[axis] == g.upper[axis]
        assert bv.faces[(axis, 1)].shape == full[tuple(lower)].shape
    assert bv.faces[(2, 1)][2, 3] == fn(g.lower[0] + 2 * g.mesh[0], g.mesh[1] * 3, 3.0)
    assert bv.check_consistency() < 1e-15


@pytest.mark.parametrize("panels", [(6, 7), (4, 5, 6)])
def test_mismatched_edge_rejected(panels):
    # A face perturbed at a node it shares with another face (on an edge or
    # a corner) disagrees with it; a node it owns alone is not compared.
    d = len(panels)
    g = UniformGrid([0.0] * d, [1.0, 2.0, 0.5][:d], panels)
    fn = lambda *xs: 1.0 + xs[0] - 2.0 * xs[-1]
    for key, face in boundary_from_callable(g, fn).faces.items():
        for node in np.ndindex(face.shape):
            bv = boundary_from_callable(g, fn)
            bv.faces[key][node] += 1e-6
            if all(0 < i < n - 1 for i, n in zip(node, face.shape)):
                assert bv.check_consistency() == 0.0
                continue
            assert bv.check_consistency(rtol=1.0) == pytest.approx(1e-6 / bv.abs_max())
            with pytest.raises(ShapeError, match="disagree"):
                bv.check_consistency()
