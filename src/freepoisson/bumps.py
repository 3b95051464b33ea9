"""Compactly supported polynomial bump densities and their exact potentials.

The density is the radial profile ``gamma * (1 - (r/eps)^2)^p`` inside radius
``eps`` and zero outside, normalized to unit integral over R^d.  It is p-1
times continuously differentiable, which makes it the natural family for
convergence studies: the smoothness knob is a single integer.

The free-space potential of the bump is radial and piecewise polynomial, so
it serves as an independent oracle.  Outside the support it equals the
Green's function of a unit point mass exactly.  Inside, it is a polynomial
in u = (r/eps)^2 whose coefficients, in every dimension d, come from one
exact rational series a_m = (-1)^m C(p, m) / (2m + d): its sum gives the
mass, a_m / (2m + 2) the coefficient of u^(m+1), and the constant term is
chosen so that the value at r = eps is the Green's function's there.  The
series is summed in exact rational arithmetic at construction time and the
polynomial evaluated by Horner's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .greens import green_values

__all__ = ["PolyBump"]


# Surface area of the unit sphere in R^d, d = 1, 2, 3.
_SPHERE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


@dataclass
class PolyBump:
    """Radial test density ``gamma (1 - |x - center|^2/eps^2)^p`` with unit integral."""

    dim: int
    epsilon: float
    p: int
    center: tuple[float, ...]
    gamma: float = field(init=False)
    _potential_coeffs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.epsilon <= 0:
            raise ValueError("support radius must be positive")
        if self.p < 1 or self.p != int(self.p):
            raise ValueError("smoothness exponent p must be a positive integer")
        self.p = int(self.p)
        self.center = tuple(float(c) for c in np.atleast_1d(self.center))
        if len(self.center) != self.dim:
            raise ValueError(f"center must have {self.dim} coordinates")
        # a_m = (-1)^m C(p, m) / (2m + d): sum a_m is the integral of
        # (1 - s^2)^p s^(d-1) ds over [0, 1], so the mass is gamma S_d eps^d sum a_m
        series = [Fraction((-1) ** m * math.comb(self.p, m), 2 * m + self.dim)
                  for m in range(self.p + 1)]
        eps = self.epsilon
        self.gamma = 1.0 / (float(sum(series)) * _SPHERE[self.dim] * eps**self.dim)
        # Laplace's operator maps u^(m+1) / ((2m+2)(2m+d)) to u^m / eps^2: the
        # interior potential of the term gamma (-1)^m C(p, m) u^m of the density.
        terms = [a / (2 * m + 2) for m, a in enumerate(series)]
        scale = self.gamma * eps * eps
        self._potential_coeffs = np.array(
            # the constant makes the value at u = 1 the Green's function's
            [float(green_values(self.dim, eps)) - scale * float(sum(terms))]
            + [scale * float(t) for t in terms]
        )

    def _square_distance(self, coords) -> np.ndarray:
        """|x - center|^2 as a new array (safe to update in place)."""
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinate arrays")
        return np.asarray(
            sum(
                (np.asarray(c, dtype=np.float64) - c0) ** 2
                for c, c0 in zip(coords, self.center)
            )
        )

    def _radius(self, coords) -> np.ndarray:
        return np.sqrt(self._square_distance(coords))

    def potential_radial(self, r) -> np.ndarray:
        """Free-space potential as a function of distance from the center.

        Equals the point-mass Green's function for r >= eps (closed form, no
        quadrature error); inside, a polynomial in (r/eps)^2.
        """
        r = np.asarray(r, dtype=np.float64)
        inside = r < self.epsilon
        u = (np.minimum(r, self.epsilon) / self.epsilon) ** 2
        interior = np.zeros_like(u)
        for c in self._potential_coeffs[::-1]:
            interior = interior * u + c
        far = green_values(self.dim, np.maximum(r, self.epsilon))
        return np.where(inside, interior, far)

    def density(self, *coords) -> np.ndarray:
        """Density sampled at coordinate arrays (broadcasting).

        Evaluated from the squared distance, u = |x - center|^2 / eps^2, as
        gamma * max(1 - u, 0)^p: no square root, and exactly 0 outside the
        support.  The power and the scaling run only where 1 - u > 0.
        """
        w = self._square_distance(coords)
        w /= self.epsilon**2
        np.subtract(1.0, w, out=w)
        np.maximum(w, 0.0, out=w)
        inside = w > 0
        w[inside] = w[inside] ** self.p * self.gamma
        return w

    def potential(self, *coords) -> np.ndarray:
        """Exact potential sampled at coordinate arrays (broadcasting)."""
        return self.potential_radial(self._radius(coords))

    def __call__(self, *coords) -> np.ndarray:
        return self.density(*coords)

