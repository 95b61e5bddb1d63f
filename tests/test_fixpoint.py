import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    cesaro_by_iteration,
    fixed_space_basis,
    inverse,
    projector_by_field_kernels,
    random_quantum_program,
    random_rank_one_density,
    resolvent_by_entry,
)
from ctcsim.dsl import parse_program
from ctcsim.errors import ContractViolationError, ResourceLimitError
from ctcsim.exact.matrices import Matrix, hermitian_psd_check
from ctcsim.exact.polys import Polynomial
from ctcsim.exact.scalars import GaussianRational, Rational
from ctcsim.fixpoint import (
    cesaro_oracle,
    compute_fixed_point,
    fixed_point_projector,
    projector_limit,
    symbolic_resolvent,
    to_complex_array,
    verify_fixed_point,
)
from ctcsim.gallery import QUANTUM_DEMOS
from ctcsim.semantics import quantum_decide
from ctcsim.superop import (
    DensityMatrix,
    KrausCompletenessWarning,
    Superoperator,
    choi_matrix,
    induced_kraus,
    kraus_to_natural,
    program_to_natural,
)

HALF = GaussianRational(Rational(1, 2))


def channel_of(name):
    return program_to_natural(parse_program(QUANTUM_DEMOS[name]))


def test_identity_channel_resolvent():
    s = symbolic_resolvent(Matrix.identity(4))
    # det(I - (1-z)I) = z^4
    assert s.denominator == Polynomial([0, 0, 0, 0, 1])
    proj = projector_limit(s)
    assert proj.r_matrix == Matrix.identity(4)


def test_grandfather_resolvent_denominator():
    k = channel_of("grandfather").k_matrix
    s = symbolic_resolvent(k)
    # det(I - (1-z)K) = 1 - (1-z)^2 = 2z - z^2
    assert s.denominator == Polynomial([0, 2, -1])


def test_grandfather_projector_matrix():
    proj = fixed_point_projector(channel_of("grandfather"))
    z = GaussianRational(0)
    expected = Matrix.from_rows(
        [
            [HALF, z, z, HALF],
            [z, z, z, z],
            [z, z, z, z],
            [HALF, z, z, HALF],
        ]
    )
    assert proj.r_matrix == expected


def test_resolvent_pointwise_values():
    k = channel_of("grandfather").k_matrix
    s = symbolic_resolvent(k)
    third = Rational(1, 3)
    for z in (Rational(1, 2), third, Rational(5, 7)):
        lhs = s.evaluate(z)
        grid = Matrix.identity(4) - k.scale(GaussianRational(1 - z))
        rhs = inverse(grid).scale(GaussianRational(z))
        assert lhs == rhs


@given(st.integers(0, 100_000))
def test_resolvent_matches_direct_inverse(seed):
    rng = random.Random(seed)
    prog = random_quantum_program(rng, q=1)
    k = program_to_natural(prog).k_matrix
    s = symbolic_resolvent(k)
    z = Rational(1, 2)
    grid = Matrix.identity(4) - k.scale(GaussianRational(1 - z))
    assert s.evaluate(z) == inverse(grid).scale(GaussianRational(z))


@st.composite
def resolvent_sources(draw):
    """Rational n x n matrices, n = 1..4.  Diagonal entries -1 and -1/2 on a
    triangular matrix are eigenvalues that make I - (1 - z) M singular at
    z = 2 and z = 3, so the resolvent must skip those abscissae."""
    n = draw(st.integers(1, 4))
    entry = st.fractions(-2, 2, max_denominator=4)
    diagonal = st.sampled_from([Rational(-1), Rational(-1, 2)]) | entry
    triangular = draw(st.booleans())
    rows = [
        [
            draw(diagonal if i == j else entry) if j >= i or not triangular else 0
            for j in range(n)
        ]
        for i in range(n)
    ]
    return Matrix.from_rows([[Rational(v) for v in row] for row in rows])


@given(resolvent_sources())
@example(Matrix.from_rows([[-1, 1], [0, Rational(-1, 2)]]))
def test_shared_basis_matches_per_entry_interpolation(m):
    s = symbolic_resolvent(m)
    denominator, numerators = resolvent_by_entry(m)
    assert s.denominator == denominator
    assert s.numerators == numerators


def test_resolvent_matches_truncated_neumann():
    # at z = 1/2 the series z * sum (1-z)^t M^t converges geometrically,
    # so 64 terms pin the float value down to machine precision
    k = channel_of("entangler").k_matrix
    s = symbolic_resolvent(k)
    m = to_complex_array(k)
    n = m.shape[0]
    acc = np.zeros_like(m)
    term = np.eye(n, dtype=complex)
    for _ in range(64):
        acc += term
        term = 0.5 * (m @ term)
    exact = to_complex_array(s.evaluate(Rational(1, 2)))
    assert np.max(np.abs(exact - 0.5 * acc)) < 1e-12


def test_divergent_resolvent_is_a_contract_violation():
    # a Jordan block on eigenvalue 1 cannot come from a channel: the
    # resolvent entry above the diagonal grows like 1/z
    j = Matrix.from_rows(
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    s = symbolic_resolvent(j)
    with pytest.raises(ContractViolationError, match="diverges"):
        projector_limit(s)


def test_jordan_block_is_rejected_by_the_kernel_pair():
    # right kernel {e0, e2, e3}, left kernel {e1, e2, e3}: W^dagger V is
    # singular, so eigenvalue 1 is not semisimple
    j = Matrix.from_rows(
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    with pytest.raises(ContractViolationError, match="semisimple"):
        fixed_point_projector(Superoperator(2, j))


@pytest.mark.parametrize("side", [0, 1])
def test_unfixed_kernel_vector_fails_the_certificate(monkeypatch, side):
    """A kernel basis that K does not fix must raise, not yield a wrong R,
    while the true basis passes."""
    import ctcsim.fixpoint as fixpoint

    calls = []
    real = fixpoint._grid_kernel

    def corrupted(re_rows, im_rows, nc):
        pivot, cols = real(re_rows, im_rows, nc)
        if len(calls) == side:
            cols[0] = ([1] + [0] * (nc - 1), [0] * nc)
        calls.append(nc)
        return pivot, cols

    # rotation: K has denominator 25, so the integer certificate must scale
    # the kernel by it, and e0 is fixed from neither side
    channel = channel_of("rotation")
    fixed_point_projector(channel)
    monkeypatch.setattr(fixpoint, "_grid_kernel", corrupted)
    with pytest.raises(ContractViolationError, match="not fixed by the channel"):
        fixed_point_projector(channel)
    assert len(calls) == 2


@given(st.integers(0, 100_000))
def test_kernel_pair_matches_resolvent_limit(seed):
    """The production projector equals the paper's z -> 0 resolvent limit."""
    rng = random.Random(seed)
    k = program_to_natural(random_quantum_program(rng, q=1)).k_matrix
    proj = fixed_point_projector(Superoperator(2, k))
    assert proj.r_matrix == projector_limit(symbolic_resolvent(k)).r_matrix


@example(seed=40, q=2)
@example(seed=627, q=2)
@given(st.integers(0, 100_000), st.integers(1, 2))
def test_projector_matches_rational_kernel_oracle(seed, q):
    """R on the integer grid equals V (W^dagger V)^(-1) W^dagger in rationals;
    q = 2 reaches fixed spaces of dimension up to 16.  Few programs need a
    row swap to eliminate W^dagger V (seed 40) or give it a complex
    determinant (seed 627), so those two are pinned."""
    rng = random.Random(seed)
    phi = program_to_natural(random_quantum_program(rng, q=q))
    assert fixed_point_projector(phi).r_matrix == projector_by_field_kernels(phi.k_matrix)


# ways to rescale column t of V, one entry (x, y) at a time
RESCALINGS = {
    # by the Gaussian integer (1 + t) + 2i: det(W^dagger V) turns complex
    "gaussian": lambda t, x, y: ((1 + t) * x - 2 * y, (1 + t) * y + 2 * x),
    # column 0 negated: det(W^dagger V) turns real and negative
    "negated": lambda t, x, y: (-x, -y) if t == 0 else (x, y),
    # column 0 times i: det(W^dagger V) turns imaginary
    "times-i": lambda t, x, y: (-y, x) if t == 0 else (x, y),
}


@pytest.mark.parametrize("name", ["grandfather", "rotation", "entangler", "dephase"])
def test_projector_ignores_complex_rescaling_of_the_kernels(monkeypatch, name):
    """Rescaling V's columns by Gaussian integers leaves R unchanged but
    moves det(W^dagger V) off the positive reals, so the one division per
    entry must use the conjugate of that determinant, and the trace and
    Choi certificates on R's numerator must carry its phase."""
    import ctcsim.fixpoint as fixpoint

    real_kernel, real_adjugate = fixpoint._grid_kernel, fixpoint._grid_adjugate
    dets = []

    def recorded(rows):
        det, adj = real_adjugate(rows)
        dets.append(det)
        return det, adj

    monkeypatch.setattr(fixpoint, "_grid_adjugate", recorded)
    channel = channel_of(name)
    expected = fixed_point_projector(channel).r_matrix
    (plain_re, plain_im), = dets
    # every demo's primitive kernel pair has a positive determinant
    assert plain_re > 0 and not plain_im
    for scaling, scale in RESCALINGS.items():
        calls = []

        def rescaled(re_rows, im_rows, nc):
            pivot, cols = real_kernel(re_rows, im_rows, nc)
            if not calls:
                cols = [tuple(map(list, zip(*(scale(t, x, y) for x, y in zip(vr, vi)))))
                        for t, (vr, vi) in enumerate(cols)]
            calls.append(nc)
            return pivot, cols

        monkeypatch.setattr(fixpoint, "_grid_kernel", rescaled)
        assert fixed_point_projector(channel).r_matrix == expected, scaling
        assert len(calls) == 2
        det_re, det_im = dets[-1]
        if scaling == "negated":
            assert det_re < 0 and not det_im
        elif scaling == "times-i":
            assert not det_re and det_im
        else:
            assert det_im


def old_certificate(side: int, r: Matrix) -> str:
    """The Fraction route the grid certificate replaced, kept as its
    oracle: the error fixed_point_projector raises for projector r, or ""
    when r is trace-preserving and completely positive."""
    rs = Superoperator(side, r)
    if not rs.is_trace_preserving():
        return "fixed-point projector is not trace-preserving"
    verdict = hermitian_psd_check(choi_matrix(rs))
    if not verdict:
        return f"fixed-point projector is not completely positive ({verdict.reason})"
    return ""


def transposed_after(phi: Superoperator) -> Superoperator:
    """rho -> Phi(rho)^T: positive and trace-preserving, not always CP."""
    n, k = phi.input_dim, phi.k_matrix
    size = n * n
    swap = [(a % n) * n + a // n for a in range(size)]
    entries = (k.entry(swap[a], b) for a in range(size) for b in range(size))
    return Superoperator(n, Matrix(size, size, entries))


def lossy(program) -> Superoperator:
    """The program's Kraus family with its last operator dropped, or a lone
    operator shrunk: CP but not trace-preserving."""
    kraus = induced_kraus(program)
    kraus = kraus[:-1] if len(kraus) > 1 else [kraus[0].scale(Rational(3, 5))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KrausCompletenessWarning)
        return kraus_to_natural(kraus)


@example(seed=0, q=1, variant="transpose")
@example(seed=0, q=1, variant="lossy")
@given(
    st.integers(0, 100_000), st.integers(1, 2), st.sampled_from(["channel", "transpose", "lossy"])
)
def test_grid_certificate_matches_the_matrix_route(seed, q, variant):
    """fixed_point_projector's TP and CP verdicts, read off R's Gaussian-
    integer numerator, equal is_trace_preserving and the PSD check of
    choi_matrix on the field-kernel R, with the same error message."""
    program = random_quantum_program(random.Random(seed), q=q)
    phi = program_to_natural(program)
    if variant == "transpose":
        phi = transposed_after(phi)
    elif variant == "lossy":
        phi = lossy(program)
    r = projector_by_field_kernels(phi.k_matrix)
    try:
        got, message = fixed_point_projector(phi).r_matrix, ""
    except ContractViolationError as exc:
        message = str(exc)
    assert message == old_certificate(phi.input_dim, r)
    if not message:
        assert got == r


def test_projector_limit_needs_square_dimension():
    m = Matrix.from_rows([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="perfect square"):
        projector_limit(symbolic_resolvent(m))


def test_non_trace_preserving_source_rejected():
    # 2I fixes nothing (d = 0), so R = 0 and the trace check refuses it
    doubled = Superoperator(2, Matrix.identity(4).scale(2))
    with pytest.raises(ContractViolationError, match="trace-preserving"):
        fixed_point_projector(doubled)


def test_incomplete_kraus_family_is_refused_as_not_trace_preserving():
    with pytest.warns(KrausCompletenessWarning):
        lossy = kraus_to_natural([Matrix.from_rows([[1, 0], [0, 0]])])
    with pytest.raises(ContractViolationError, match="projector is not trace-preserving"):
        fixed_point_projector(lossy)


def test_transpose_map_is_refused_as_not_completely_positive():
    # vec(rho^T) swaps the two off-diagonal entries: positive and trace-
    # preserving, but its fixed-space projector has a non-PSD Choi matrix
    transpose = Matrix.from_rows([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    with pytest.raises(
        ContractViolationError, match=r"not completely positive \(negative-eigenvalue\)"
    ):
        fixed_point_projector(Superoperator(2, transpose))


def test_non_hermitian_choi_matrix_is_refused_as_not_completely_positive():
    # K fixes vec(|0><1|) but not vec(|1><0|): R is trace-preserving, and
    # its Choi matrix pairs a 1 with a 0 across the diagonal
    half_dephase = Superoperator(2, Matrix.from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]
    ))
    message = old_certificate(2, projector_by_field_kernels(half_dephase.k_matrix))
    assert message.endswith("(not-hermitian)")
    with pytest.raises(ContractViolationError, match=re.escape(message)):
        fixed_point_projector(half_dephase)


def test_dimension_cap():
    big = Superoperator(16, Matrix.identity(256))
    with pytest.raises(ResourceLimitError, match="allow_large"):
        fixed_point_projector(big)


def test_allow_large_warns_and_computes(monkeypatch):
    monkeypatch.setattr("ctcsim.fixpoint.DIM_CAP", 2)
    small = Superoperator(4, Matrix.identity(16))
    with pytest.raises(ResourceLimitError, match="2x2"):
        fixed_point_projector(small)
    with pytest.warns(RuntimeWarning, match="several seconds") as caught:
        proj = fixed_point_projector(small, allow_large=True)
    assert proj.r_matrix == Matrix.identity(16)
    # the warning names the caller's line, not one inside the package
    assert caught[0].filename == __file__
    program = parse_program(QUANTUM_DEMOS["grandfather"])
    with pytest.warns(RuntimeWarning, match="several seconds") as caught:
        verdict = quantum_decide(program, allow_large=True)
    assert verdict.certified
    assert [w.filename for w in caught] == [__file__]


def test_grandfather_fixed_point_is_even_mixture():
    proj = fixed_point_projector(channel_of("grandfather"))
    rho = compute_fixed_point(proj, DensityMatrix.basis_state(2, 0))
    assert rho.matrix == Matrix.identity(2).scale(HALF)
    assert verify_fixed_point(proj.source, rho)


def test_dephase_keeps_diagonal_seeds():
    phi = channel_of("dephase")
    proj = fixed_point_projector(phi)
    one = compute_fixed_point(proj, DensityMatrix.basis_state(2, 1))
    assert one.matrix == DensityMatrix.basis_state(2, 1).matrix
    plus = DensityMatrix(2, Matrix.from_rows([[HALF, HALF], [HALF, HALF]]))
    projected = compute_fixed_point(proj, plus)
    assert projected.matrix == Matrix.identity(2).scale(HALF)


def test_reset_channel_forces_zero():
    proj = fixed_point_projector(channel_of("reset"))
    rho = compute_fixed_point(proj, DensityMatrix.maximally_mixed(2))
    assert rho.matrix == DensityMatrix.basis_state(2, 0).matrix


def test_fixed_space_dimensions():
    # R is a projector, so its trace is the dimension of the fixed space
    def dim(phi):
        return fixed_point_projector(phi).r_matrix.trace()

    assert dim(channel_of("grandfather")) == 1
    assert dim(channel_of("dephase")) == 2
    assert dim(channel_of("rotation")) == 2
    assert dim(Superoperator(2, Matrix.identity(4))) == 4


@given(st.integers(0, 100_000))
def test_fixed_space_basis_elements_are_fixed(seed):
    rng = random.Random(seed)
    phi = program_to_natural(random_quantum_program(rng))
    for b in fixed_space_basis(phi):
        assert phi.apply_matrix(b) == b


@given(st.integers(0, 100_000))
def test_projector_fixes_what_the_nullspace_finds(seed):
    """R fixes every vector of the fixed space (R V = V)."""
    rng = random.Random(seed)
    phi = program_to_natural(random_quantum_program(rng, q=1))
    proj = fixed_point_projector(phi)
    from ctcsim.superop import vec

    for b in fixed_space_basis(phi):
        assert proj.r_matrix @ vec(b) == vec(b)


@given(st.integers(0, 100_000))
def test_projected_seeds_are_exact_fixed_points(seed):
    rng = random.Random(seed)
    prog = random_quantum_program(rng, q=1)
    phi = program_to_natural(prog)
    proj = fixed_point_projector(phi)
    sigma = random_rank_one_density(rng, phi.input_dim)
    rho = compute_fixed_point(proj, sigma)
    assert verify_fixed_point(phi, rho)


def test_cesaro_oracle_approaches_exact_limit():
    phi = channel_of("grandfather")
    proj = fixed_point_projector(phi)
    sigma = DensityMatrix.basis_state(2, 0)
    exact = to_complex_array(compute_fixed_point(proj, sigma).matrix)
    approx = cesaro_oracle(phi, sigma, 20_000)
    assert np.max(np.abs(exact - approx)) < 1e-3


@pytest.mark.parametrize("name", sorted(QUANTUM_DEMOS))
def test_doubled_cesaro_average_matches_the_iteration(name):
    phi = channel_of(name)
    dim = phi.input_dim
    sigma = DensityMatrix.basis_state(dim, dim - 1)
    for t in (1, 2, 3, 7, 1000):
        dev = np.max(np.abs(cesaro_oracle(phi, sigma, t) - cesaro_by_iteration(phi, sigma, t)))
        assert dev <= 1e-9, (t, dev)


def test_cesaro_oracle_validates_count():
    phi = channel_of("grandfather")
    with pytest.raises(ValueError):
        cesaro_oracle(phi, DensityMatrix.maximally_mixed(2), 0)


def test_trivial_one_dimensional_channel():
    proj = fixed_point_projector(Superoperator(1, Matrix.identity(1)))
    assert proj.r_matrix == Matrix.identity(1)


def test_compute_fixed_point_dimension_check():
    proj = fixed_point_projector(channel_of("grandfather"))
    with pytest.raises(ValueError):
        compute_fixed_point(proj, DensityMatrix.maximally_mixed(4))
