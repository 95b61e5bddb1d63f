import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctcsim.exact.scalars import (
    ONE,
    ZERO,
    GaussianRational,
    Rational,
    as_scalar,
    rational_from_text,
    scalar_from_text,
    scalar_to_text,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
).map(lambda f: Rational(f.numerator, f.denominator))

scalars = st.tuples(rationals, rationals).map(
    lambda p: GaussianRational(p[0], p[1])
)


def test_rational_text_examples():
    assert str(Rational(1, 2)) == "1/2"
    assert str(Rational(-3, 6)) == "-1/2"
    assert str(Rational(4, 2)) == "2"
    assert rational_from_text("7/21") == Rational(1, 3)
    assert rational_from_text("-5") == Rational(-5)


def test_scalar_text_examples():
    i = GaussianRational(0, 1)
    assert scalar_from_text("i") == i
    assert scalar_from_text("-i") == -i
    assert scalar_from_text("1/2+3/4i") == GaussianRational(
        Rational(1, 2), Rational(3, 4)
    )
    assert scalar_from_text("2-i") == GaussianRational(2, -1)
    assert scalar_to_text(ZERO) == "0"
    assert scalar_to_text(GaussianRational(0, Rational(-2, 3))) == "-2/3i"


def test_scalar_text_rejects_garbage():
    for bad in ["", "1..2", "i1", "1//2", "+-3", "1/0", "0/0"]:
        with pytest.raises(ValueError):
            scalar_from_text(bad)


def test_zero_spellings_parse_to_zero():
    for text in ["0", " 0 ", "-0", "+0", "00", "0/1", "0i"]:
        assert scalar_from_text(text) == ZERO, text


@given(rationals)
def test_rational_text_round_trip(r):
    assert rational_from_text(str(r)) == r


@given(scalars)
def test_scalar_text_round_trip(z):
    assert scalar_from_text(scalar_to_text(z)) == z


@given(scalars, scalars, scalars)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@given(scalars)
def test_division_inverts_multiplication(z):
    if z.is_zero():
        with pytest.raises(ZeroDivisionError):
            ONE / z
    else:
        assert (ONE / z) * z == ONE
        assert z / z == ONE


@given(scalars, scalars)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


@given(scalars)
def test_abs2_matches_conjugate_product(z):
    prod = z * z.conj()
    assert prod.im == 0
    assert prod.re == z.abs2()
    assert z.abs2() >= 0


def test_as_scalar_coercions():
    assert as_scalar(3) == GaussianRational(3)
    assert as_scalar(Rational(1, 2)) == GaussianRational(Rational(1, 2))
    assert as_scalar(GaussianRational(0, 1)).im == 1
    with pytest.raises(TypeError):
        as_scalar(1.5)


def test_complex_conversion():
    z = GaussianRational(Rational(1, 2), Rational(-3, 4))
    assert complex(z.re, z.im) == 0.5 - 0.75j
