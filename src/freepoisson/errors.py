"""Exception types and the count check shared across the solver modules."""

import numbers


class ShapeError(ValueError):
    """Raised when grids or arrays have incompatible shapes or extents."""


class AlignmentError(ValueError):
    """Raised when a subgrid's nodes do not coincide with parent-grid nodes."""


class SingularityError(ValueError):
    """Raised when a Green's function would be evaluated at zero distance."""


class SupportViolationError(ValueError):
    """Raised when a density is not zero on (or near) the domain boundary."""


class PGridFormatError(ValueError):
    """Raised when a PGRID file is malformed or uses unknown header keys."""


def check_count(name: str, value, minimum: int = 0) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer >= ``minimum``.

    A ``bool`` is a flag, not a count, so it is rejected although it is an ``int``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
