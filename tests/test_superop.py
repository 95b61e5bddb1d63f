import random
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (
    natural_by_kron,
    program_to_natural_dense,
    random_quantum_program,
    random_rank_one_density,
)
from ctcsim.dsl import parse_program
from ctcsim.exact import matrices
from ctcsim.exact.matrices import Matrix, hermitian_psd_check
from ctcsim.exact.scalars import GaussianRational, Rational
from ctcsim.fixpoint import to_complex_array
from ctcsim.gallery import QUANTUM_DEMOS
from ctcsim.superop import (
    DensityMatrix,
    KrausCompletenessWarning,
    Superoperator,
    choi_matrix,
    induced_kraus,
    kraus_to_natural,
    program_to_natural,
    unvec,
    vec,
)

HALF = GaussianRational(Rational(1, 2))


def test_vec_row_stacking_order():
    a, b, c, d = (GaussianRational(k) for k in (1, 2, 3, 4))
    m = Matrix.from_rows([[a, b], [c, d]])
    v = vec(m)
    assert v.rows == 4 and v.cols == 1
    assert [v.entry(i, 0) for i in range(4)] == [a, b, c, d]


@given(st.integers(0, 10_000), st.integers(1, 3))
def test_unvec_inverts_vec(seed, n):
    rng = random.Random(seed)
    m = Matrix(
        n,
        n,
        (GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(n * n)),
    )
    assert unvec(vec(m), n) == m


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(2, Matrix.from_rows([[1, 0], [0, 1]]))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(2, Matrix.from_rows([[1, 1], [0, 0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(2, Matrix.from_rows([[2, 0], [0, -1]]))  # not PSD
    rho = DensityMatrix.basis_state(2, 1)
    assert rho.matrix.entry(1, 1) == GaussianRational(1)
    mixed = DensityMatrix.maximally_mixed(4)
    assert mixed.matrix.trace() == GaussianRational(1)


@pytest.mark.parametrize(
    "rows, message",
    [
        # not Hermitian wins over a wrong trace and a negative eigenvalue
        ([[1, 1], [0, -1]], "must be Hermitian"),
        # a wrong trace wins over a negative eigenvalue
        ([[1, 0], [0, -1]], "must have trace 1, got 0"),
        ([[2, 0], [0, -1]], r"must be PSD \(negative-eigenvalue\)"),
    ],
    ids=["hermitian", "trace", "psd"],
)
def test_density_matrix_errors_keep_their_precedence(rows, message):
    with pytest.raises(ValueError, match=message):
        DensityMatrix(2, Matrix.from_rows(rows))


def test_density_matrix_checks_hermiticity_once(monkeypatch):
    """Hermiticity is compared once, on the integer grid that the PSD
    elimination then runs on."""
    calls = []
    real = matrices._grid_psd

    def counted(re_rows, im_rows):
        calls.append(len(re_rows))
        return real(re_rows, im_rows)

    monkeypatch.setattr(matrices, "_grid_psd", counted)
    DensityMatrix.maximally_mixed(4)
    assert calls == [4]


def kraus_of(name):
    return induced_kraus(parse_program(QUANTUM_DEMOS[name]))


def test_grandfather_kraus_operators():
    a0, a1 = kraus_of("grandfather")
    assert a0 == Matrix.from_rows([[0, 1], [0, 0]])
    assert a1 == Matrix.from_rows([[0, 0], [1, 0]])


def test_grandfather_natural_matrix():
    k = program_to_natural(parse_program(QUANTUM_DEMOS["grandfather"])).k_matrix
    assert k == Matrix.from_rows(
        [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]
    )


def test_dephase_natural_matrix():
    k = program_to_natural(parse_program(QUANTUM_DEMOS["dephase"])).k_matrix
    assert k == Matrix.from_rows(
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]
    )


def test_reset_natural_matrix():
    k = program_to_natural(parse_program(QUANTUM_DEMOS["reset"])).k_matrix
    assert k == Matrix.from_rows(
        [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )


def test_incomplete_kraus_family_warns():
    half_x = Matrix.from_rows([[0, HALF], [HALF, 0]])
    with pytest.warns(KrausCompletenessWarning):
        s = kraus_to_natural([half_x])
    assert not s.is_trace_preserving()


@given(st.integers(0, 100_000))
def test_grid_natural_matrix_matches_kron_on_complete_families(seed):
    rng = random.Random(seed)
    kraus = induced_kraus(random_quantum_program(rng, q=rng.randint(1, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", KrausCompletenessWarning)
        k = kraus_to_natural(kraus).k_matrix
    assert k == natural_by_kron(kraus)


@given(st.integers(0, 100_000))
def test_grid_natural_matrix_matches_kron_on_incomplete_families(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)

    def part():
        return Rational(rng.randint(-4, 4), rng.randint(1, 6))

    kraus = [
        Matrix(n, n, (GaussianRational(part(), part()) for _ in range(n * n)))
        for _ in range(rng.randint(1, 3))
    ]
    gram = Matrix.zeros(n, n)
    for a in kraus:
        gram = gram + a.dagger() @ a
    assume(not gram.is_identity())
    with pytest.warns(KrausCompletenessWarning):
        k = kraus_to_natural(kraus).k_matrix
    assert k == natural_by_kron(kraus)


@given(st.integers(0, 100_000))
def test_kraus_and_dense_routes_agree(seed):
    rng = random.Random(seed)
    q = rng.randint(1, 2)
    r = rng.randint(0, 3 - q)
    prog = random_quantum_program(rng, q=q, r=r)
    assert program_to_natural(prog).k_matrix == program_to_natural_dense(prog).k_matrix


@given(st.integers(0, 100_000))
def test_channel_preserves_trace_on_basis_operators(seed):
    rng = random.Random(seed)
    s = program_to_natural(random_quantum_program(rng))
    n = s.input_dim
    assert s.is_trace_preserving()
    one = GaussianRational(1)
    zero = GaussianRational(0)
    for i in range(n):
        for j in range(n):
            e = Matrix(
                n, n, (one if (a, b) == (i, j) else zero for a in range(n) for b in range(n))
            )
            assert s.apply_matrix(e).trace() == (one if i == j else zero)


@given(st.integers(0, 100_000))
def test_choi_matrix_is_psd_with_trace_n(seed):
    rng = random.Random(seed)
    s = program_to_natural(random_quantum_program(rng))
    j = choi_matrix(s)
    assert hermitian_psd_check(j)
    assert j.trace() == GaussianRational(s.input_dim)


@given(st.integers(0, 100_000))
def test_spectral_radius_at_most_one(seed):
    rng = random.Random(seed)
    s = program_to_natural(random_quantum_program(rng))
    eigs = np.linalg.eigvals(to_complex_array(s.k_matrix))
    assert np.max(np.abs(eigs)) <= 1 + 1e-9


@given(st.integers(0, 100_000))
def test_apply_channel_outputs_density_matrices(seed):
    rng = random.Random(seed)
    prog = random_quantum_program(rng)
    s = program_to_natural(prog)
    rho = random_rank_one_density(rng, s.input_dim)
    out = DensityMatrix(s.input_dim, s.apply_matrix(rho.matrix))
    assert out.matrix.trace() == GaussianRational(1)


def test_apply_channel_dimension_check():
    s = program_to_natural(parse_program(QUANTUM_DEMOS["grandfather"]))
    with pytest.raises(ValueError):
        s.apply_matrix(DensityMatrix.maximally_mixed(4).matrix)


def test_superoperator_shape_check():
    with pytest.raises(ValueError):
        Superoperator(2, Matrix.identity(3))
