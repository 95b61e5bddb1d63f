"""Exact arithmetic substrate: Gaussian rationals, polynomials, matrices."""

from .scalars import (
    GaussianRational,
    IMAG_UNIT,
    ONE,
    Rational,
    ZERO,
    rational_from_text,
    scalar_from_text,
    scalar_to_text,
)
from .polys import Polynomial, lagrange_interpolate
from .matrices import (
    Matrix,
    PsdVerdict,
    SingularMatrixError,
    char_poly,
    det_and_adjugate,
    hermitian_psd_check,
    nullspace,
)

__all__ = [
    "GaussianRational",
    "IMAG_UNIT",
    "ONE",
    "Rational",
    "ZERO",
    "rational_from_text",
    "scalar_from_text",
    "scalar_to_text",
    "Polynomial",
    "lagrange_interpolate",
    "Matrix",
    "PsdVerdict",
    "SingularMatrixError",
    "char_poly",
    "det_and_adjugate",
    "hermitian_psd_check",
    "nullspace",
]
