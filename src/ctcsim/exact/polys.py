"""Exact univariate polynomials over the Gaussian rationals.

A polynomial is stored as a tuple of coefficients in increasing degree
order with trailing zeros trimmed, so the representation of every value is
unique.  The zero polynomial is the empty tuple and has degree -1.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from .scalars import GaussianRational, ZERO, as_scalar

__all__ = ["Polynomial", "lagrange_interpolate"]


class Polynomial:
    """Immutable dense polynomial with exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs: Tuple[GaussianRational, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> GaussianRational:
        """Coefficient of z**k, zero beyond the stored degree."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    def is_zero(self) -> bool:
        return not self.coeffs

    def lowest_nonzero_index(self) -> Optional[int]:
        """Index of the lowest-order nonzero coefficient, None for zero."""
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                return k
        return None

    def evaluate(self, z) -> GaussianRational:
        """Evaluate by Horner's rule at an exact point."""
        z = as_scalar(z)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def scale(self, s) -> "Polynomial":
        s = as_scalar(s)
        return Polynomial(c * s for c in self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Polynomial(out)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return Polynomial.zero()
            out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a.is_zero():
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Polynomial(out)
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c.is_zero():
                continue
            text = str(c)
            if ("+" in text[1:]) or ("-" in text[1:]):
                text = f"({text})"
            if k == 0:
                parts.append(text)
            else:
                var = "z" if k == 1 else f"z^{k}"
                parts.append(var if text == "1" else f"{text}*{var}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


def lagrange_interpolate(points: Sequence[tuple], degree_bound: int) -> Polynomial:
    """Return the unique polynomial of degree <= degree_bound through points.

    Points are (abscissa, value) pairs with pairwise distinct exact
    abscissae.  At least degree_bound + 1 points are required.  Internally
    this uses Newton divided differences, which is O(m^2) in the number of
    points; extra points beyond the bound are consistency-checked because
    the interpolant through all of them must still fit under the bound.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    if len(points) < degree_bound + 1:
        raise ValueError(
            f"need at least {degree_bound + 1} points for degree bound "
            f"{degree_bound}, got {len(points)}"
        )
    xs = [as_scalar(p[0]) for p in points]
    if len({(x.re, x.im) for x in xs}) != len(xs):
        raise ValueError("interpolation abscissae must be pairwise distinct")
    dd = [as_scalar(p[1]) for p in points]
    m = len(points)
    # dd[i] becomes the divided difference over xs[i - level .. i].
    for level in range(1, m):
        for i in range(m - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    poly = Polynomial.constant(dd[m - 1])
    for k in range(m - 2, -1, -1):
        poly = poly * Polynomial((-xs[k], 1)) + Polynomial.constant(dd[k])
    if poly.degree > degree_bound:
        raise ValueError(
            f"points are not consistent with degree bound {degree_bound} "
            f"(interpolant has degree {poly.degree})"
        )
    return poly
