"""Uniform rectangular grids and the scalar fields living on them.

Grids are node centered: a grid with ``panels = (M_0, ..., M_{d-1})`` carries
``M_s + 1`` nodes per axis, boundary nodes included.  Values are stored in a
dense C-ordered array with the x axis slowest (index order x, y, z), so dumps
and restrictions are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

__all__ = ["UniformGrid", "GridFunction", "BoundaryValues", "max_norm_difference"]

# Elements per block of axis-0 rows, the budget of every phase's blocked
# passes and of the boundary phase's groups of kernel spectra.
_BLOCK = 8 * 96**2


def _row_blocks(shape) -> list[slice]:
    """Slices of axis 0 that cut an array of ``shape`` into blocks of about ``_BLOCK`` elements.

    A block holds at most an eighth of axis 0, so that on small grids too
    a block's temporaries stay a small part of the array.
    """
    step = max(1, min(_BLOCK * shape[0] // int(np.prod(shape)), shape[0] // 8))
    return [slice(start, start + step) for start in range(0, shape[0], step)]


def _row_polynomial(head: np.ndarray, coefficients: list):
    """A mode table factored along axis 0, built one block of axis-0 rows at a time.

    Returns ``table(rows)``, the polynomial in axis 0's table ``head`` with
    ``coefficients`` (highest degree first) on the modes ``rows``, by
    Horner's rule.  A coefficient is a number, a table over the trailing
    axes built once (``np.ix_``) or None for zero.  Each table term is one
    pass over whole trailing planes (a number on top is a pass along axis 0
    only), each power of ``head`` one more, and the full table is never built.
    """
    top, *lower = coefficients

    def table(rows: slice) -> np.ndarray:
        block = np.multiply.outer(head[rows], top)
        for i, c in enumerate(lower):
            if i:
                block *= head[rows].reshape((-1,) + (1,) * (block.ndim - 1))
            if c is not None:  # after a number on top, one pass makes the block
                block = np.add.outer(block, c) if block.ndim == 1 else np.add(block, c, out=block)
        return block

    return table


@dataclass(frozen=True)
class UniformGrid:
    """Rectangular domain with a uniform mesh along each axis.

    Attributes:
        lower: domain corner (a, c, ...), one entry per axis.
        upper: opposite corner (b, d, ...).
        panels: number of mesh panels per axis; nodes run 0..panels[s].

    Mesh widths may differ per axis; there is no aspect-ratio restriction.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    panels: tuple[int, ...]

    def __init__(self, lower, upper, panels):
        lower = tuple(float(v) for v in np.atleast_1d(lower))
        upper = tuple(float(v) for v in np.atleast_1d(upper))
        panels = tuple(np.atleast_1d(panels).tolist())  # numpy integers become int
        if not (len(lower) == len(upper) == len(panels)):
            raise ShapeError("lower, upper and panels must have equal length")
        if len(lower) not in (1, 2, 3):
            raise ShapeError(f"grid dimension must be 1, 2 or 3, got {len(lower)}")
        if not np.isfinite(lower + upper).all():
            raise ShapeError(f"grid bounds must be finite, got lower {lower} and upper {upper}")
        for a, b in zip(lower, upper):
            if not b > a:
                raise ShapeError(f"upper bound {b} must exceed lower bound {a}")
        for m in panels:
            if isinstance(m, bool) or not isinstance(m, int):
                raise ShapeError(f"panel counts must be integers, got {m!r}")
            if m < 2:
                raise ShapeError(f"need at least 2 panels per axis, got {m}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "panels", panels)
        if not np.isfinite(self.mesh).all():
            raise ShapeError(f"mesh widths (upper - lower) / panels must be finite, "
                             f"got {self.mesh}")

    @property
    def dim(self) -> int:
        return len(self.panels)

    @property
    def mesh(self) -> tuple[float, ...]:
        return tuple(
            (b - a) / m for a, b, m in zip(self.lower, self.upper, self.panels)
        )

    @property
    def shape(self) -> tuple[int, ...]:
        """Node array extents, boundary nodes included."""
        return tuple(m + 1 for m in self.panels)

    @property
    def interior_shape(self) -> tuple[int, ...]:
        return tuple(m - 1 for m in self.panels)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """All node coordinates along one axis."""
        h = self.mesh[axis]
        return self.lower[axis] + np.arange(self.panels[axis] + 1) * h

    def coordinate_arrays(self) -> tuple[np.ndarray, ...]:
        """Broadcastable coordinate arrays (one per axis) covering all nodes."""
        axes = [self.axis_coordinates(s) for s in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    def face_coordinate_arrays(self, axis: int, side: int) -> tuple[np.ndarray, ...]:
        """Broadcastable coordinate arrays (one per axis) covering one face's nodes.

        Side 0 is the lower face; its normal coordinate is the domain bound.
        """
        axes = [self.axis_coordinates(s) for s in range(self.dim) if s != axis]
        coords = list(np.meshgrid(*axes, indexing="ij", sparse=True))
        coords.insert(axis, np.array(self.upper[axis] if side else self.lower[axis]))
        return tuple(coords)


def _broadcast_samples(values, shape: tuple[int, ...], where: str, out: np.ndarray) -> np.ndarray:
    """Write a callable's samples into ``out``, a part of an array of ``shape``; return ``out``."""
    values = np.asarray(values, dtype=np.float64)
    try:
        out[...] = np.broadcast_to(values, out.shape)
        return out
    except ValueError:
        raise ShapeError(
            f"callable returned an array of shape {values.shape}, which does "
            f"not broadcast to the {where} {shape}"
        ) from None


@dataclass
class GridFunction:
    """Scalar values at every node of a grid, boundary nodes included."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise ShapeError(
                f"value array shape {self.values.shape} does not match grid "
                f"nodes {self.grid.shape}"
            )

    @classmethod
    def from_callable(cls, grid: UniformGrid, fn) -> "GridFunction":
        """Sample ``fn(x[, y[, z]])`` at all nodes, into a new array.

        ``fn`` must be pointwise and broadcast its arguments: it may be
        called once per block of axis-0 node rows, with that block's x
        coordinates, so that no whole-grid temporary is built.
        """
        x, *rest = grid.coordinate_arrays()
        values = np.empty(grid.shape)
        for rows in _row_blocks(grid.shape):
            where = f"rows {rows.start}..{min(rows.stop, grid.shape[0]) - 1} of the grid nodes"
            _broadcast_samples(fn(x[rows], *rest), grid.shape, where, values[rows])
        return cls(grid, values)

    def interior(self) -> np.ndarray:
        """View of the interior nodes (all axes sliced 1:-1)."""
        return self.values[(slice(1, -1),) * self.grid.dim]

    def boundary_abs_max(self) -> float:
        """Largest |value| over all boundary nodes (NaN if any of them is NaN)."""
        face_maxima = [
            np.max(np.abs(self.values[(slice(None),) * axis + (end,)]))
            for axis in range(self.grid.dim)
            for end in (0, -1)
        ]
        return float(np.max(face_maxima))

    def assert_finite(self) -> "GridFunction":
        """Raise ShapeError unless every value is finite; checked block by block."""
        if not all(np.isfinite(self.values[rows]).all() for rows in _row_blocks(self.grid.shape)):
            raise ShapeError("grid function contains non-finite values")
        return self


def _face_shape(grid: UniformGrid, axis: int) -> tuple[int, ...]:
    return tuple(m + 1 for s, m in enumerate(grid.panels) if s != axis)


@dataclass
class BoundaryValues:
    """Scalar values at every boundary node, stored per face.

    ``faces[(axis, side)]`` holds the full face including shared edges and
    corners; side 0 is the lower face, side 1 the upper.  Nodes shared by
    several faces must carry the same value (to 1e-12 relative).
    """

    grid: UniformGrid
    faces: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        complete = {}
        for axis in range(self.grid.dim):
            for side in (0, 1):
                key = (axis, side)
                want = _face_shape(self.grid, axis)
                arr = np.asarray(
                    self.faces.get(key, np.zeros(want)), dtype=np.float64
                )
                if arr.shape != want:
                    raise ShapeError(
                        f"face {key} has shape {arr.shape}, expected {want}"
                    )
                complete[key] = arr
        self.faces = complete

    def write_into(self, out: np.ndarray) -> np.ndarray:
        """Set the boundary nodes of the node array ``out``; returns ``out``.

        Its interior nodes are left as they are.
        """
        # Write lower faces after upper ones so face (0, 0) wins on shared
        # edges; any face would do once consistency holds.
        for axis in reversed(range(self.grid.dim)):
            for side in (1, 0):
                sl = [slice(None)] * self.grid.dim
                sl[axis] = -1 if side else 0
                out[tuple(sl)] = self.faces[(axis, side)]
        return out

    def check_consistency(self, rtol: float = 1e-12) -> float:
        """Verify shared edge/corner nodes agree across faces.

        Every two faces of different axes are compared on their shared edge
        (corners lie on edges), so the cost is O(face).  Returns the worst
        relative mismatch found; raises ShapeError when it exceeds ``rtol``.
        """
        scale = self.abs_max()
        if scale == 0.0:
            return 0.0
        worst = 0.0
        for a, b in itertools.combinations(range(self.grid.dim), 2):
            for sa, sb in itertools.product((0, 1), repeat=2):
                # face a's axes skip a, so b sits at b - 1; face b's keep a at a
                on_a = np.take(self.faces[(a, sa)], -sb, axis=b - 1)
                on_b = np.take(self.faces[(b, sb)], -sa, axis=a)
                worst = max(worst, float(np.max(np.abs(on_a - on_b))))
        worst /= scale
        if worst > rtol:
            raise ShapeError(
                f"boundary faces disagree on shared nodes ({worst:.3e} relative)"
            )
        return worst

    def abs_max(self) -> float:
        return max(float(np.max(np.abs(f))) for f in self.faces.values())


def max_norm_difference(f: GridFunction, g: GridFunction) -> float:
    """Max over all nodes of |f - g|; the grids must match exactly."""
    if f.grid != g.grid:
        raise ShapeError("grid functions live on different grids")
    return float(np.max(np.abs(f.values - g.values)))

