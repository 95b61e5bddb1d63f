"""Exact channel representations for the causally consistent register.

A quantum program induces a channel on its CTC register: run the circuit
unitary on CTC tensor ancilla, then trace out the ancilla block.  Working
with the channel as an N^2 x N^2 matrix acting on row-stacked density
matrices keeps everything linear-algebraic and exact.

Conventions: vec stacks rows, so vec(|x><y|) = |x>|y>, and the natural
matrix of a Kraus family {A_j} is sum_j A_j (x) conj(A_j).  The ancilla
occupies the low-order index block throughout, matching circuits.py.

program_to_natural builds the channel from the induced Kraus family, one
operator per ancilla readout value; the same family gives the acceptance
measurement in semantics.py.  kraus_to_natural assembles the natural
matrix on an integer grid: exact.matrices._int_grids clears the stacked
family to one shared denominator D, the sum runs over Gaussian integers,
and _divided builds each entry of the result by one division by D^2.
choi_matrix and the CP certificate in fixpoint.py share one index map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .circuits import CTCProgram, circuit_isometry
from .circuits import circuit_unitary  # noqa: F401  perfbench/tracing.py TARGETS wrap it under this name
from .exact.matrices import Matrix, _divided, _int_grids, hermitian_psd_check
from .exact.scalars import GaussianRational, ONE, ZERO

__all__ = [
    "DensityMatrix",
    "Superoperator",
    "KrausCompletenessWarning",
    "vec",
    "unvec",
    "kraus_to_natural",
    "induced_kraus",
    "program_to_natural",
    "choi_matrix",
]


class KrausCompletenessWarning(UserWarning):
    """The Kraus operators do not sum to identity; the map is not TP."""


def vec(a: Matrix) -> Matrix:
    """Row-stacking: the rows of a, concatenated into one column."""
    return Matrix(a.rows * a.cols, 1, a.entries)


def unvec(v: Matrix, n: int) -> Matrix:
    if v.cols != 1 or v.rows != n * n:
        raise ValueError(f"expected a column of length {n * n}, got {v.rows}x{v.cols}")
    return Matrix(n, n, v.entries)


@dataclass(frozen=True)
class DensityMatrix:
    """An exactly verified density matrix: Hermitian, PSD, trace one."""

    dim: int
    matrix: Matrix

    def __post_init__(self):
        m = self.matrix
        if m.rows != self.dim or m.cols != self.dim:
            raise ValueError(f"expected {self.dim}x{self.dim}, got {m.rows}x{m.cols}")
        # the PSD check tests Hermiticity first, so it runs once
        verdict = hermitian_psd_check(m)
        if verdict.reason == "not-hermitian":
            raise ValueError("density matrix must be Hermitian")
        if m.trace() != ONE:
            raise ValueError(f"density matrix must have trace 1, got {m.trace()}")
        if not verdict:
            raise ValueError(f"density matrix must be PSD ({verdict.reason})")

    @classmethod
    def basis_state(cls, dim: int, k: int) -> "DensityMatrix":
        if not 0 <= k < dim:
            raise ValueError(f"basis index {k} out of range for dimension {dim}")
        return cls(
            dim,
            Matrix(
                dim,
                dim,
                (ONE if i == k and j == k else ZERO for i in range(dim) for j in range(dim)),
            ),
        )

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        w = GaussianRational(1) / GaussianRational(dim)
        return cls(
            dim,
            Matrix(dim, dim, (w if i == j else ZERO for i in range(dim) for j in range(dim))),
        )


@dataclass(frozen=True)
class Superoperator:
    """A channel as the N^2 x N^2 matrix with K vec(rho) = vec(Phi(rho))."""

    input_dim: int
    k_matrix: Matrix

    def __post_init__(self):
        n2 = self.input_dim * self.input_dim
        if self.k_matrix.rows != n2 or self.k_matrix.cols != n2:
            raise ValueError(
                f"natural representation must be {n2}x{n2}, got "
                f"{self.k_matrix.rows}x{self.k_matrix.cols}"
            )

    def apply_matrix(self, rho: Matrix) -> Matrix:
        """Phi(rho) for an arbitrary (not necessarily density) matrix."""
        if rho.rows != self.input_dim or rho.cols != self.input_dim:
            raise ValueError("dimension mismatch")
        return unvec(self.k_matrix @ vec(rho), self.input_dim)

    def is_trace_preserving(self) -> bool:
        """vec(I)^T K == vec(I)^T, which says trace(Phi(rho)) = trace(rho)."""
        n = self.input_dim
        vec_i_t = Matrix(
            1, n * n, (ONE if idx // n == idx % n else ZERO for idx in range(n * n))
        )
        return vec_i_t @ self.k_matrix == vec_i_t


def kraus_to_natural(kraus: Sequence[Matrix]) -> Superoperator:
    """Natural matrix of the map rho -> sum_j A_j rho A_j^dagger.

    The family is scaled by the least common denominator D of all its
    entries, so that every D * A_j is a Gaussian-integer grid.  The sum
    K = sum_j A_j (x) conj(A_j) then runs in integers, completeness is
    read off that integer sum, and K's entries are divided by D^2 once
    at the end.

    Warns (KrausCompletenessWarning) when sum A_j^dagger A_j != I, since
    the result then fails trace preservation.
    """
    if not kraus:
        raise ValueError("need at least one Kraus operator")
    n = kraus[0].rows
    for a in kraus:
        if a.rows != n or a.cols != n:
            raise ValueError("Kraus operators must be square and of equal dimension")
    # the family cleared as one stacked grid: row j * n + i is row i of D * A_j
    gr, gi, den = _int_grids(Matrix(len(kraus) * n, n, (e for a in kraus for e in a.entries)))
    # the nonzero entries of each D * A_j as (row, col, re, im)
    grids = [[] for _ in kraus]
    for i, row in enumerate(zip(gr, gi)):
        grids[i // n].extend((i % n, j, x, y) for j, (x, y) in enumerate(zip(*row)) if x or y)
    # K[i1 * n + i2, j1 * n + j2] = sum_j A_j[i1, j1] * conj(A_j[i2, j2])
    size = n * n
    kr = [0] * (size * size)
    ki = [0] * (size * size)
    for cells in grids:
        for i1, j1, ar, ai in cells:
            for i2, j2, br, bi in cells:
                idx = (i1 * n + i2) * size + j1 * n + j2
                kr[idx] += ar * br + ai * bi
                ki[idx] += ai * br - ar * bi
    # summing the rows of K at the diagonal indices k * n + k gives
    # conj(sum_j A_j^dagger A_j) in row-stacked form, so completeness
    # reads D^2 at the diagonal columns and 0 elsewhere
    d2 = den * den
    diagonal = range(0, size * size, (n + 1) * size)
    complete = all(
        sum(kr[r + c] for r in diagonal) == (d2 if c % (n + 1) == 0 else 0)
        and not sum(ki[r + c] for r in diagonal)
        for c in range(size)
    )
    if not complete:
        warnings.warn(
            "Kraus family is not complete: sum A^dagger A != I",
            KrausCompletenessWarning,
            stacklevel=2,
        )
    return Superoperator(n, Matrix(size, size, _divided([(kr, ki)], (d2, 0))[0]))


def induced_kraus(program: CTCProgram) -> List[Matrix]:
    """Kraus family of the CTC-register channel: one operator per ancilla
    readout value y, with entries A_y[x', x] = U[x' * 2^r + y, x * 2^r],
    read as V[x' * 2^r + y, x] from the isometry V, so U is never built."""
    if program.kind != "quantum":
        raise ValueError("only quantum programs induce a Kraus family")
    circuit = program.circuit
    v = circuit_isometry(circuit)
    q, r = circuit.ctc_qubits, circuit.cr_qubits
    n, anc = 1 << q, 1 << r
    out = []
    for y in range(anc):
        out.append(
            Matrix(
                n,
                n,
                (v.entry(xp * anc + y, x) for xp in range(n) for x in range(n)),
            )
        )
    return out


def program_to_natural(program: CTCProgram) -> Superoperator:
    """Exact natural representation of the channel a quantum program
    induces on its CTC register (ancilla starts at |0..0> and is traced
    out after the circuit unitary)."""
    with warnings.catch_warnings():
        # the family from a genuine unitary is complete by construction
        warnings.simplefilter("error", KrausCompletenessWarning)
        return kraus_to_natural(induced_kraus(program))


def _choi_index(n: int) -> List[List[Tuple[int, int]]]:
    """Where each Choi entry of an n-dimensional channel sits in its natural
    matrix: with row-stacking, Phi(|i><j|)[k, l] is K[k*n + l, i*n + j], so
    Choi entry (i*n + k, j*n + l) is read at (k*n + l, i*n + j)."""
    return [[((a % n) * n + b % n, (a // n) * n + b // n) for b in range(n * n)]
            for a in range(n * n)]


def choi_matrix(s: Superoperator) -> Matrix:
    """sum_ij |i><j| tensor Phi(|i><j|), assembled straight from k_matrix."""
    k = s.k_matrix
    index = _choi_index(s.input_dim)
    return Matrix(k.rows, k.cols, (k.entry(r, c) for row in index for r, c in row))
