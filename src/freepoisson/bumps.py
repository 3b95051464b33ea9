"""Compactly supported polynomial bump densities and their exact potentials.

The density is the radial profile ``gamma * (1 - (r/eps)^2)^p`` inside radius
``eps`` and zero outside, normalized to unit integral over R^d.  It is p-1
times continuously differentiable, which makes it the natural family for
convergence studies: the smoothness knob is a single integer.

The free-space potential of the bump is radial and piecewise polynomial, so
it serves as an independent oracle.  Outside the support it equals the
Green's function of a unit point mass exactly; inside, the radial integrals
have polynomial integrands that are expanded in exact rational arithmetic at
construction time and evaluated by Horner's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .greens import green_values

__all__ = ["PolyBump"]


def _unit_integral_rational(dim: int, p: int) -> Fraction:
    """Integral of (1 - |x/eps|^2)^p over R^d, divided by eps^d and pi^(floor(d/2))
    ... expressed so that 1/gamma = value * eps^d * (pi factor below)."""
    if dim == 1:
        return sum(
            Fraction((-1) ** m * math.comb(p, m) * 2, 2 * m + 1) for m in range(p + 1)
        )
    if dim == 2:
        return Fraction(1, p + 1)
    return sum(
        Fraction((-1) ** m * math.comb(p, m) * 4, 2 * m + 3) for m in range(p + 1)
    )


def _pi_power(dim: int) -> float:
    return 1.0 if dim == 1 else math.pi


def _interior_coefficients(dim: int, p: int, eps: float, gamma: float) -> np.ndarray:
    """Float coefficients of the interior potential as a polynomial in u = (r/eps)^2."""
    if dim == 1:
        terms = [
            Fraction((-1) ** m * math.comb(p, m), (2 * m + 1) * (2 * m + 2))
            for m in range(p + 1)
        ]
        coeffs = np.zeros(p + 2)
        coeffs[0] = 0.5 * eps - gamma * eps * eps * float(sum(terms))
        for m, t in enumerate(terms):
            coeffs[m + 1] = gamma * eps * eps * float(t)
        return coeffs
    if dim == 2:
        terms = [
            Fraction((-1) ** (m + 1) * math.comb(p + 1, m), 2 * m)
            for m in range(1, p + 2)
        ]
        coeffs = np.zeros(p + 2)
        coeffs[0] = (math.log(eps) - float(sum(terms))) / (2.0 * math.pi)
        for m, t in enumerate(terms, start=1):
            coeffs[m] = float(t) / (2.0 * math.pi)
        return coeffs
    # dim == 3: -(gamma eps^2) [ sum_m (-1)^m C(p,m) u^(m+1)/(2m+3)
    #                            + (1-u)^(p+1) / (2(p+1)) ]
    rat = [Fraction(0)] * (p + 2)
    for n in range(p + 2):
        rat[n] += Fraction((-1) ** n * math.comb(p + 1, n), 2 * (p + 1))
    for m in range(p + 1):
        rat[m + 1] += Fraction((-1) ** m * math.comb(p, m), 2 * m + 3)
    return np.array([-gamma * eps * eps * float(c) for c in rat])


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
        volume = (
            float(_unit_integral_rational(self.dim, self.p))
            * _pi_power(self.dim)
            * self.epsilon**self.dim
        )
        self.gamma = 1.0 / volume
        self._potential_coeffs = _interior_coefficients(
            self.dim, self.p, self.epsilon, self.gamma
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

