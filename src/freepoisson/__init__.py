"""High order accurate free-space Poisson solves on uniform rectangular grids.

Computes the convolution of the Laplace Green's function with a smooth,
compactly supported density at every node of a 1D/2D/3D grid in O(N log N)
work: a spectral sine-transform solve with homogeneous boundary values plus a
4th or 6th order discrete-harmonic correction whose Dirichlet data comes from
fast Green's-function convolutions over the boundary.
"""

from .boundary import boundary_values_fast, boundary_values_naive
from .bumps import PolyBump
from .errors import (
    AlignmentError,
    PGridFormatError,
    ShapeError,
    SingularityError,
    SupportViolationError,
)
from .grid import (
    BoundaryValues,
    GridFunction,
    UniformGrid,
    max_norm_difference,
    restrict_to_subgrid,
)
from .pgrid import read_pgrid, write_pgrid
from .solver import SolveReport, SolverConfig, pad_domain, solve_free_space

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "BoundaryValues",
    "GridFunction",
    "PGridFormatError",
    "PolyBump",
    "ShapeError",
    "SingularityError",
    "SolveReport",
    "SolverConfig",
    "SupportViolationError",
    "UniformGrid",
    "boundary_values_fast",
    "boundary_values_naive",
    "max_norm_difference",
    "pad_domain",
    "read_pgrid",
    "restrict_to_subgrid",
    "solve_free_space",
    "write_pgrid",
]
