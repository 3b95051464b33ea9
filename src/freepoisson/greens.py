"""Free-space Green's functions of the Laplace operator in 1, 2 and 3 dimensions.

All kernels are radial:

    d = 1:  G(r) = r / 2
    d = 2:  G(r) = log(r) / (2 pi)
    d = 3:  G(r) = -1 / (4 pi r)

The 2D and 3D kernels are singular at r = 0; callers must never request a
zero-distance value (the zero collar around the density guarantees this in
the boundary accumulation).
"""

from __future__ import annotations

import numpy as np

from .errors import SingularityError

__all__ = ["green_values"]


def green_values(dim: int, r: np.ndarray) -> np.ndarray:
    """Green's function at every distance of an array (all ``>= 0``)."""
    r = np.asarray(r, dtype=np.float64)
    if not r.min(initial=np.inf) > 0:  # one reduction when every distance is positive
        if np.any(r < 0):
            raise ValueError("distances must be nonnegative")
        if dim != 1 and np.any(r == 0.0):
            raise SingularityError(f"Green's function is singular at r=0 for dim {dim}")
    if dim == 1:
        return 0.5 * r
    if dim == 2:
        return np.log(r) / (2.0 * np.pi)
    if dim == 3:
        return -1.0 / (4.0 * np.pi * r)
    raise ValueError(f"dim must be 1, 2 or 3, got {dim}")

