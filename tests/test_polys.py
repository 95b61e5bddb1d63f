import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctcsim.exact.polys import Polynomial, lagrange_interpolate
from ctcsim.exact.scalars import GaussianRational, Rational

coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12).map(
    lambda f: GaussianRational(Rational(f.numerator, f.denominator))
)
polys = st.lists(coeff, min_size=0, max_size=6).map(Polynomial)


def test_degree_and_coeff():
    p = Polynomial([1, 0, GaussianRational(Rational(2, 3))])
    assert p.degree == 2
    assert p.coeff(0) == GaussianRational(1)
    assert p.coeff(1).is_zero()
    assert p.coeff(5).is_zero()
    assert Polynomial.zero().degree == -1
    assert Polynomial([0, 0]).is_zero()


def test_lowest_nonzero_index():
    assert Polynomial([0, 0, 5, 1]).lowest_nonzero_index() == 2
    assert Polynomial([3]).lowest_nonzero_index() == 0
    assert Polynomial.zero().lowest_nonzero_index() is None


def test_trailing_zeros_normalized():
    assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])
    assert Polynomial([1, 2, 0, 0]).degree == 1


@given(polys, polys)
def test_evaluation_is_ring_homomorphism(p, q):
    z = GaussianRational(Rational(2, 7), Rational(1, 3))
    assert (p + q).evaluate(z) == p.evaluate(z) + q.evaluate(z)
    assert (p * q).evaluate(z) == p.evaluate(z) * q.evaluate(z)


@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


def test_variable_powers():
    x = Polynomial((0, 1))
    assert (x * x * x).coeff(3) == GaussianRational(1)
    assert (x * x * x).degree == 3


@given(polys)
def test_interpolation_recovers_polynomial(p):
    n = max(p.degree, 0)
    pts = [
        (GaussianRational(k), p.evaluate(GaussianRational(k)))
        for k in range(1, n + 2)
    ]
    assert lagrange_interpolate(pts, n) == p


def test_interpolation_exact_example():
    # p(z) = z^2/2 - 3 through three integer abscissae
    p = Polynomial([-3, 0, GaussianRational(Rational(1, 2))])
    pts = [(GaussianRational(k), p.evaluate(GaussianRational(k))) for k in (1, 2, 3)]
    q = lagrange_interpolate(pts, 2)
    assert q == p
    assert q.coeff(2) == GaussianRational(Rational(1, 2))


def test_interpolation_degree_bound_enforced():
    # four points on a cubic cannot fit a quadratic
    x = Polynomial((0, 1))
    cubic = x * x * x
    pts = [
        (GaussianRational(k), cubic.evaluate(GaussianRational(k)))
        for k in (1, 2, 3, 4)
    ]
    with pytest.raises(ValueError):
        lagrange_interpolate(pts, 2)


def test_interpolation_rejects_duplicate_abscissae():
    pts = [(GaussianRational(1), GaussianRational(1))] * 2
    with pytest.raises(ValueError):
        lagrange_interpolate(pts, 1)


def test_str_forms():
    p = Polynomial([GaussianRational(Rational(-1, 2)), 0, 1])
    text = str(p)
    assert "z" in text and "1/2" in text
