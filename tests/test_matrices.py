import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    cofactor_det,
    field_nullspace,
    field_rref,
    inverse,
    kron,
    psd_by_char_poly,
    random_quantum_program,
)
from ctcsim.exact.matrices import (
    Matrix,
    SingularMatrixError,
    _grid_adjugate,
    _grid_kernel,
    _int_grids,
    char_poly,
    det_and_adjugate,
    hermitian_psd_check,
    nullspace,
)
from ctcsim.exact.polys import Polynomial
from ctcsim.exact.scalars import IMAG_UNIT, ONE, ZERO, GaussianRational, Rational
from ctcsim.superop import program_to_natural

entry = st.tuples(
    st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3)
).map(lambda t: GaussianRational(Rational(t[0], t[2]), Rational(t[1], t[2])))


def square(n):
    return st.lists(entry, min_size=n * n, max_size=n * n).map(
        lambda es: Matrix(n, n, es)
    )


square_any = st.integers(1, 4).flatmap(square)

rational = st.tuples(st.integers(-6, 6), st.integers(1, 3)).map(lambda t: Rational(*t))


@st.composite
def low_rank_product(draw, rows=st.integers(1, 9), cols=st.integers(1, 9)):
    """B @ C with inner dimension 0-5, so the rank is usually short.  C has
    entries in {-1, 0, 1}, so a dependent column often comes before an
    independent one; B is real in about half of the draws."""
    r, c, k = draw(rows), draw(cols), draw(st.integers(0, 5))
    real = draw(st.booleans())
    b = draw(st.lists(entry, min_size=r * k, max_size=r * k))
    d = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=k * c, max_size=k * c))
    if real:
        b = [GaussianRational(e.re) for e in b]
    return Matrix(r, k, b) @ Matrix(k, c, d)


def determinant(m: Matrix) -> GaussianRational:
    """det_and_adjugate's determinant, zero where it reports a singular matrix."""
    try:
        return det_and_adjugate(m)[0]
    except SingularMatrixError:
        return ZERO


@given(square_any)
def test_determinant_matches_cofactor_oracle(m):
    assert determinant(m) == cofactor_det(m.to_rows())


def test_cofactor_determinant_of_the_empty_matrix_is_one():
    assert cofactor_det([]) == ONE


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(square(n), square(n))))
def test_determinant_is_multiplicative(pair):
    a, b = pair
    assert determinant(a @ b) == determinant(a) * determinant(b)


@given(square_any)
def test_adjugate_identity(m):
    try:
        det, adj = det_and_adjugate(m)
    except SingularMatrixError:
        assert cofactor_det(m.to_rows()).is_zero()
        return
    n = m.rows
    assert m @ adj == Matrix.identity(n).scale(det)
    assert adj @ m == Matrix.identity(n).scale(det)


@given(square_any)
def test_inverse_round_trip(m):
    try:
        inv = inverse(m)
    except SingularMatrixError:
        assert cofactor_det(m.to_rows()).is_zero()
        return
    assert m @ inv == Matrix.identity(m.rows)
    assert inv @ m == Matrix.identity(m.rows)


def test_singular_reports_step():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError) as info:
        det_and_adjugate(m)
    assert info.value.step == 1


@given(st.integers(1, 6).flatmap(lambda n: low_rank_product(st.just(n), st.just(n))))
def test_singular_step_is_first_column_without_pivot(m):
    _, pivots = field_rref(m)
    missing = [c for c in range(m.cols) if c not in pivots]
    try:
        det, adj = det_and_adjugate(m)
    except SingularMatrixError as exc:
        assert exc.step == missing[0]
        return
    assert not missing
    assert m @ adj == Matrix.identity(m.rows).scale(det)


@st.composite
def gaussian_grids(draw):
    """Square Gaussian-integer grids, n = 0..6, mostly sparse.

    A zero leading entry forces a row swap, a repeated row makes the grid
    singular, and the imaginary parts make most determinants complex.
    """
    n = draw(st.integers(0, 6))
    part = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    re = [draw(st.lists(part, min_size=n, max_size=n)) for _ in range(n)]
    im = [draw(st.lists(part, min_size=n, max_size=n)) for _ in range(n)]
    if n and draw(st.booleans()):
        re[0][0] = im[0][0] = 0
    if n > 1 and draw(st.booleans()):
        t = draw(st.integers(1, n - 1))
        re[t], im[t] = list(re[0]), list(im[0])
    return re, im


@example(([[0, 1], [1, 0]], [[0, 0], [0, 0]]))
@example(([[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 0, 0], [0, 0, 0], [0, 0, 1]]))
@example(([[1, 2], [1, 2]], [[1, 0], [1, 0]]))
@example(([], []))
@given(gaussian_grids())
def test_grid_adjugate_inverts_up_to_the_determinant(grid):
    """G adj(G) = det(G) I in Gaussian integers, det matches the cofactor
    oracle, and det_and_adjugate reads the same values off the same grid."""
    re, im = grid
    n = len(re)
    m = Matrix(n, n, (GaussianRational(x, y) for rr, ri in zip(re, im) for x, y in zip(rr, ri)))
    det = cofactor_det(m.to_rows())
    try:
        (dr, di), adj = _grid_adjugate([(list(r), list(i)) for r, i in zip(re, im)])
    except SingularMatrixError:
        assert det.is_zero()
        with pytest.raises(SingularMatrixError):
            det_and_adjugate(m)
        return
    assert GaussianRational(dr, di) == det
    for i in range(n):
        for j in range(n):
            sr = sum(re[i][k] * adj[k][0][j] - im[i][k] * adj[k][1][j] for k in range(n))
            si = sum(re[i][k] * adj[k][1][j] + im[i][k] * adj[k][0][j] for k in range(n))
            assert (sr, si) == ((dr, di) if i == j else (0, 0))
    adj = Matrix(n, n, (GaussianRational(x, y) for rr, ri in adj for x, y in zip(rr, ri)))
    assert det_and_adjugate(m) == (det, adj)


@given(square_any)
def test_char_poly_at_zero_is_det_of_negation(m):
    # p(z) = det(zI - M), so p(0) = det(-M)
    p = char_poly(m)
    assert p.degree == m.rows
    assert p.coeff(p.degree) == GaussianRational(1)
    assert p.coeff(0) == cofactor_det((-m).to_rows())


@given(square_any)
def test_char_poly_trace_coefficient(m):
    p = char_poly(m)
    n = m.rows
    assert p.coeff(n - 1) == -m.trace()


def test_char_poly_known_2x2():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    # z^2 - 5z - 2
    assert char_poly(m) == Polynomial([-2, -5, 1])


# the samples at t = 0, 1 and 2 are singular
@example(Matrix.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 2]]), Rational(1, 2))
@given(square_any, rational)
def test_char_poly_evaluates_to_the_determinant(m, t):
    shifted = Matrix.identity(m.rows).scale(t) - m
    assert char_poly(m).evaluate(t) == cofactor_det(shifted.to_rows())


@given(square_any)
def test_nullspace_vectors_are_annihilated(m):
    basis = nullspace(m)
    n = m.rows
    rank_defect = len(basis)
    if cofactor_det(m.to_rows()).is_zero():
        assert rank_defect >= 1
    else:
        assert rank_defect == 0
    for v in basis:
        out = m @ Matrix(n, 1, v)
        assert all(out.entry(i, 0).is_zero() for i in range(n))


# column 1 is free and left of the pivot in column 2, whose value 3 differs
# from the pivot before it, so the free column must be rescaled
@example(Matrix.from_rows([[1, 2, 0], [0, 0, 3], [1, 2, 1]]))
@given(low_rank_product())
def test_nullspace_matches_field_oracle_on_low_rank_products(m):
    assert nullspace(m) == field_nullspace(m)


@given(st.integers(0, 100_000))
def test_nullspace_matches_field_oracle_on_channels(seed):
    k = program_to_natural(random_quantum_program(random.Random(seed))).k_matrix
    eye = Matrix.identity(k.rows)
    for m in (k - eye, k.dagger() - eye):
        assert nullspace(m) == field_nullspace(m)


@st.composite
def kernel_sources(draw):
    """n x n rational matrices, n = 1-6: zero, a dense complex draw (full
    rank almost always) or a low-rank product, real in about half of its
    draws, so the final pivot is complex in many draws and real in some."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["zero", "dense", "low-rank"]))
    if kind == "zero":
        return Matrix.zeros(n, n)
    if kind == "dense":
        return draw(square(n))
    return draw(low_rank_product(st.just(n), st.just(n)))


# rank one with the complex pivot 1 + i
@example(Matrix.from_rows([[1 + IMAG_UNIT, 2], [2 + 2 * IMAG_UNIT, 4]]))
@example(Matrix.zeros(3, 3))
@example(Matrix.identity(4))
@given(kernel_sources())
def test_grid_kernel_over_its_pivot_is_the_field_nullspace(m):
    re_rows, im_rows, _ = _int_grids(m)
    (pr, pi), cols = _grid_kernel(re_rows, im_rows, m.cols)
    pivot = GaussianRational(pr, pi)
    scaled = [[GaussianRational(a, b) / pivot for a, b in zip(vr, vi)] for vr, vi in cols]
    assert scaled == field_nullspace(m)


def test_nullspace_known_projector():
    # rank-1 projector onto (1,1)/sqrt(2): kernel spanned by (1,-1)
    h = GaussianRational(Rational(1, 2))
    m = Matrix.from_rows([[h, h], [h, h]]) - Matrix.identity(2)
    basis = nullspace(m + Matrix.identity(2) - Matrix.identity(2))
    assert len(basis) == 1


def test_psd_verdicts():
    ok = hermitian_psd_check(Matrix.from_rows([[2, 1], [1, 2]]))
    assert ok and ok.reason is None
    bad = hermitian_psd_check(Matrix.from_rows([[1, 2], [2, 1]]))
    assert not bad and bad.reason
    not_herm = hermitian_psd_check(Matrix.from_rows([[1, 1], [0, 1]]))
    assert not not_herm
    zero = hermitian_psd_check(Matrix.zeros(3, 3))
    assert zero


def test_psd_complex_example():
    i = GaussianRational(0, 1)
    m = Matrix.from_rows([[1, -i], [i, 1]])
    assert hermitian_psd_check(m)
    # same off-diagonal but the diagonal is now too small
    m2 = Matrix.from_rows([[1, -i], [i, GaussianRational(Rational(1, 2))]])
    assert not hermitian_psd_check(m2)


@st.composite
def hermitian(draw):
    """Complex Hermitian n x n matrices, n = 1-6: B^dagger D B - t I with B
    of r <= n rows and D a real diagonal.  With D >= 0 and t = 0 this is a
    Gram matrix, singular when r < n; a negative weight or a positive t
    can make it indefinite, often still rank-deficient.  Sometimes one
    diagonal entry is zeroed while its row stays nonzero."""
    n = draw(st.integers(1, 6))
    r = draw(st.integers(0, n))
    b = Matrix(r, n, draw(st.lists(entry, min_size=r * n, max_size=r * n)))
    weights = draw(st.lists(st.sampled_from([1, 2, Rational(1, 2), -1]), min_size=r, max_size=r))
    d = Matrix(r, r, (weights[i] if i == j else 0 for i in range(r) for j in range(r)))
    t = draw(st.one_of(st.just(0), rational))
    h = b.dagger() @ d @ b - Matrix.identity(n).scale(t)
    if n == 1 or not draw(st.booleans()):
        return h
    rows = h.to_rows()
    z = draw(st.integers(0, n - 1))
    rows[z][z] = ZERO
    if all(e.is_zero() for e in rows[z]):
        w = (z + 1) % n
        rows[z][w] = rows[w][z] = GaussianRational(1)
    return Matrix.from_rows(rows)


# one example per branch: a negative pivot after a positive one, a zero
# pivot with a nonzero row, zero pivots with zero rows, and a complex
# singular PSD matrix
@example(Matrix.from_rows([[1, 2], [2, 1]]))
@example(Matrix.from_rows([[0, 1], [1, 1]]))
@example(Matrix.zeros(3, 3))
@example(Matrix.from_rows([[1, -IMAG_UNIT], [IMAG_UNIT, 1]]))
@given(hermitian())
def test_psd_check_matches_char_poly_oracle(m):
    verdict = hermitian_psd_check(m)
    assert verdict.ok == psd_by_char_poly(m)
    assert verdict.reason == (None if verdict.ok else "negative-eigenvalue")


# an imaginary diagonal entry, and a symmetric matrix that is not Hermitian
@example(Matrix.from_rows([[IMAG_UNIT, 0], [0, 1]]))
@example(Matrix.from_rows([[1, IMAG_UNIT], [IMAG_UNIT, 1]]))
@given(st.one_of(hermitian(), square_any))
def test_psd_check_reads_hermiticity_off_the_grid(m):
    """The integer comparison reports not-hermitian exactly when m differs
    from its conjugate transpose."""
    verdict = hermitian_psd_check(m)
    assert (verdict.reason == "not-hermitian") == (m != m.dagger())


@given(square(3))
def test_gram_matrices_are_psd(m):
    assert hermitian_psd_check(m.dagger() @ m)


def test_kron_and_transpose_interact():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert kron(a, b).transpose() == kron(a.transpose(), b.transpose())
    assert kron(a, b).trace() == a.trace() * b.trace()


def test_operations_build_exact_scalar_entries():
    a = Matrix.from_rows([[1, Rational(1, 2)], [GaussianRational(0, 1), -3]])
    b = Matrix.from_rows([[GaussianRational(Rational(2, 3), 1), 0], [5, Rational(-1, 4)]])
    built = [
        a,
        a + b,
        a - b,
        -a,
        a.scale(3),
        a.scale(Rational(1, 3)),
        2 * a,
        a @ b,
        a.transpose(),
        a.conj(),
        a.dagger(),
        Matrix.identity(3),
        Matrix.zeros(2, 3),
        Matrix(1, 2, [GaussianRational(1), 1]),
    ]
    for m in built:
        assert all(type(e) is GaussianRational for e in m.entries)
    with pytest.raises(TypeError):
        Matrix(1, 1, [0.5])
    with pytest.raises(TypeError):
        Matrix(1, 2, [GaussianRational(1), 0.5])


def test_matmul_shape_mismatch():
    a = Matrix.zeros(2, 3)
    b = Matrix.zeros(2, 3)
    with pytest.raises(ValueError):
        a @ b


def test_large_random_inverse_stays_exact():
    rng = random.Random(7)
    n = 6
    entries = [
        GaussianRational(Rational(rng.randint(-9, 9), rng.randint(1, 4)),
                         Rational(rng.randint(-9, 9), rng.randint(1, 4)))
        for _ in range(n * n)
    ]
    m = Matrix(n, n, entries)
    try:
        inv = inverse(m)
    except SingularMatrixError:
        pytest.skip("random matrix happened to be singular")
    assert m @ inv == Matrix.identity(n)
