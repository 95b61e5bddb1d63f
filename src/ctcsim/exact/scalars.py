"""Exact scalar arithmetic over the Gaussian rationals.

A scalar is a complex number a + b*i whose real and imaginary parts are
arbitrary-precision rationals kept in lowest terms with positive
denominators.  All simulator arithmetic that feeds a verdict goes through
these scalars; floats appear only in clearly marked approximation paths.

The rational backend is gmpy2.mpq when available (much faster), with
fractions.Fraction as a drop-in fallback.  Both normalize to lowest terms
with a positive denominator, which is exactly the invariant we need.

Text forms, used by the circuit language and by JSON reports:

    rational:           3   -1/2   0
    gaussian rational:  3/5   2i   -i   3/5-4/5i   1/2+i

No whitespace is allowed inside a literal, except that a single space is
tolerated (never emitted) just before the trailing "i".
"""

from __future__ import annotations

import re

try:
    from gmpy2 import mpq as Rational

    _HAVE_GMPY2 = True
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rational

    _HAVE_GMPY2 = False

__all__ = [
    "Rational",
    "GaussianRational",
    "ZERO",
    "ONE",
    "IMAG_UNIT",
    "as_scalar",
    "rational_from_text",
    "scalar_from_text",
    "scalar_to_text",
]

_Q0 = Rational(0)
_Q1 = Rational(1)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def rational_from_text(text: str) -> Rational:
    """Parse "a" or "a/b" into an exact rational."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"malformed rational literal: {text!r}")
    if s.startswith("+"):
        s = s[1:]
    try:
        return Rational(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None


class GaussianRational:
    """An immutable complex number with rational real and imaginary parts.

    Instances must be treated as frozen; arithmetic returns new objects.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Rational) else Rational(re)
        self.im = im if isinstance(im, Rational) else Rational(im)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        return GaussianRational(ar * br - ai * bi, ar * bi + ai * br)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        cr, ci = other.re, other.im
        norm = cr * cr + ci * ci
        if norm == 0:
            raise ZeroDivisionError("division of Gaussian rational by zero")
        ar, ai = self.re, self.im
        return GaussianRational((ar * cr + ai * ci) / norm, (ai * cr - ar * ci) / norm)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self):
        """Squared modulus, an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        return scalar_to_text(self)

    def __repr__(self):
        return f"GaussianRational({scalar_to_text(self)!r})"


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Rational)):
        return GaussianRational(x)
    return None


def as_scalar(x) -> GaussianRational:
    """Coerce an int, rational, or GaussianRational into a scalar."""
    s = _coerce(x)
    if s is None:
        raise TypeError(f"cannot interpret {type(x).__name__} as a Gaussian rational")
    return s


ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)
IMAG_UNIT = GaussianRational(0, 1)


def scalar_from_text(text: str) -> GaussianRational:
    """Parse a Gaussian rational literal.

    Accepted shapes: "a", "bi", "a+bi", "a-bi", where a and b are rational
    literals and b may be omitted when it is 1 ("i", "-i", "1/2+i").
    """
    s = text.strip()
    if s == "0":  # most cells of a sparse matrix literal
        return ZERO
    s = re.sub(r" (?=i$)", "", s)
    if not s:
        raise ValueError("empty scalar literal")
    if not s.endswith("i"):
        return GaussianRational(rational_from_text(s), _Q0)
    body = s[:-1]
    # Split off a real term if one precedes the imaginary term.
    split = None
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1].isdigit():
            split = k
            break
    if split is None:
        real_text, imag_text = None, body
    else:
        real_text, imag_text = body[:split], body[split:]
    if imag_text in ("", "+"):
        imag = _Q1
    elif imag_text == "-":
        imag = -_Q1
    else:
        imag = rational_from_text(imag_text)
    real = rational_from_text(real_text) if real_text is not None else _Q0
    return GaussianRational(real, imag)


def scalar_to_text(x: GaussianRational) -> str:
    """Format a scalar so that scalar_from_text round-trips it exactly."""
    re_, im_ = x.re, x.im
    if not im_:
        return str(re_)
    if im_ == 1:
        imag = "i"
    elif im_ == -1:
        imag = "-i"
    else:
        imag = f"{im_}i"
    if not re_:
        return imag
    if im_ > 0 and not imag.startswith("+"):
        imag = "+" + imag
    return f"{re_}{imag}"
