"""Exact dense matrices over the Gaussian rationals.

Representation: row-major tuple of GaussianRational entries.  Matrices are
immutable; every operation returns a new matrix and equality is exact.
The constructor keeps entries that are already GaussianRational as they
are and coerces the rest (ints and rationals) through as_scalar, so the
matrices that operations build from scalars cost no conversion.

Determinants, adjugates, nullspaces and the positive-semidefiniteness
check run by fraction-free (Bareiss 1968) elimination on integer grids:
_int_grids clears denominators and _divided divides a grid back, once per
entry.  One Gauss-Jordan kernel, _ffgj, serves the adjugate
(_grid_adjugate, on [M | I] with pivots in the first n columns) and the
nullspace (_grid_kernel, with pivots anywhere).  When the imaginary grid
is all zero, as for every stochastic class and every real channel, _ffgj
runs the integer loop _ffgj_real; otherwise it runs the Gaussian-integer
loop.  ctcsim.superop (the natural matrix), ctcsim.fixpoint (the
projector) and ctcsim.semantics (the class solves and the acceptance
operator) call these grid routines directly.  The PSD check, _grid_psd, is
the symmetric variant, down the diagonal, after Hermiticity is compared on
the integers.  Each division is exact (Sylvester's identity) and checked
with divmod, so a kernel bug surfaces as a loud error, not a wrong answer.
The characteristic polynomial, interpolated from determinants, is the
tests' oracle for the PSD check, not any decision's.

There is no matrix of polynomials: the resolvent oracle in ctcsim.fixpoint
keeps its n^2 numerators as a row-major tuple of Polynomials, built
through one shared Lagrange basis.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from .polys import Polynomial, lagrange_interpolate
from .scalars import GaussianRational, ONE, Rational, ZERO, as_scalar

__all__ = [
    "Matrix",
    "SingularMatrixError",
    "PsdVerdict",
    "det_and_adjugate",
    "char_poly",
    "hermitian_psd_check",
    "nullspace",
]


class SingularMatrixError(ValueError):
    """Raised when an adjugate is requested of a singular matrix.

    The step attribute records the elimination stage (0-indexed pivot
    column) at which rank deficiency was detected.
    """

    def __init__(self, step: int):
        super().__init__(f"matrix is singular (no pivot at elimination step {step})")
        self.step = step


class Matrix:
    """Immutable dense matrix with exact complex-rational entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        es = tuple(entries)
        for e in es:
            if type(e) is not GaussianRational:
                es = tuple(map(as_scalar, es))
                break
        if len(es) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(es)}")
        self.rows = rows
        self.cols = cols
        self.entries = es

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "Matrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(r) != cols for r in data):
            raise ValueError("ragged rows")
        return cls(rows, cols, (e for r in data for e in r))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, (ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    def entry(self, i: int, j: int) -> GaussianRational:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> List[List[GaussianRational]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        return Matrix(
            self.rows, self.cols, (a + b for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        return Matrix(
            self.rows, self.cols, (a - b for a, b in zip(self.entries, other.entries))
        )

    def __neg__(self):
        return Matrix(self.rows, self.cols, (-a for a in self.entries))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return NotImplemented
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, s) -> "Matrix":
        s = as_scalar(s)
        return Matrix(self.rows, self.cols, (a * s for a in self.entries))

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: ({self.rows}x{self.cols}) @ "
                f"({other.rows}x{other.cols})"
            )
        n, m, p = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = []
        q0 = Rational(0)
        for i in range(n):
            arow = a[i * m : (i + 1) * m]
            for j in range(p):
                sr = q0
                si = q0
                for k in range(m):
                    x = arow[k]
                    xr, xi = x.re, x.im
                    if not xr and not xi:
                        continue
                    y = b[k * p + j]
                    yr, yi = y.re, y.im
                    if not yr and not yi:
                        continue
                    sr += xr * yr - xi * yi
                    si += xr * yi + xi * yr
                out.append(GaussianRational(sr, si))
        return Matrix(n, p, out)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            (self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def conj(self) -> "Matrix":
        return Matrix(self.rows, self.cols, (a.conj() for a in self.entries))

    def dagger(self) -> "Matrix":
        """Conjugate transpose."""
        return self.transpose().conj()

    def trace(self) -> GaussianRational:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return sum(
            (self.entries[i * self.cols + i] for i in range(self.rows)), ZERO
        )

    def is_identity(self) -> bool:
        if not self.is_square:
            return False
        n = self.cols
        return all(
            self.entries[i * n + j] == (1 if i == j else 0)
            for i in range(n)
            for j in range(n)
        )

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.to_rows()
        )
        return f"Matrix[{body}]"


# -- fraction-free kernels ---------------------------------------------

def _int_grids(m: Matrix) -> Tuple[List[List[int]], List[List[int]], int]:
    """Clear denominators: return integer re/im grids and the denominator."""
    c = m.cols
    parts = [x for e in m.entries for x in (e.re, e.im)]
    # a zero part's denominator is 1, so only the nonzero parts are read
    den = math.lcm(*{int(x.denominator) for x in parts if x})
    flat = [int(x.numerator) * (den // int(x.denominator)) if x else 0 for x in parts]
    rows = [flat[2 * c * i : 2 * c * (i + 1)] for i in range(m.rows)]
    return [r[0::2] for r in rows], [r[1::2] for r in rows], den


class _KernelBug(RuntimeError):
    pass


def _divc(tr, ti, dr, di):
    """Exact division of Gaussian integers; raises if not divisible."""
    if not di:
        qr, r1 = divmod(tr, dr)
        qi, r2 = divmod(ti, dr)
    else:
        norm = dr * dr + di * di
        qr, r1 = divmod(tr * dr + ti * di, norm)
        qi, r2 = divmod(ti * dr - tr * di, norm)
    if r1 or r2:
        raise _KernelBug("inexact division in fraction-free elimination")
    return qr, qi


def _ffgj(R: List[List[int]], I: List[List[int]], limit: int) -> Tuple[List[int], int]:
    """Fraction-free Gauss-Jordan (Bareiss 1968) on integer grids, in place.

    Columns 0 .. limit-1 are scanned left to right and may hold a pivot;
    a column with no nonzero entry below the settled rows is skipped.
    Columns from limit on are only carried along, as for [M | I].
    Returns the pivot columns and the sign of the row permutation.

    On return, settled row t holds the final pivot p at column pivots[t],
    zero at every other pivot column, and p times the reduced row-echelon
    form everywhere else; the rows below them are zero in every column
    before limit.  Every division is exact by the Sylvester identity and
    checked; an all-zero I runs _ffgj_real instead, which leaves I as is.
    """
    if not any(map(any, I)):
        return _ffgj_real(R, limit)
    nr = len(R)
    m = len(R[0]) if nr else 0
    sign = 1
    pr, pi = 1, 0
    pivots: List[int] = []
    free: List[int] = []
    for c in range(limit):
        k = len(pivots)
        piv = next((i for i in range(k, nr) if R[i][c] or I[i][c]), None)
        if piv is None:
            free.append(c)
            continue
        if piv != k:
            R[k], R[piv] = R[piv], R[k]
            I[k], I[piv] = I[piv], I[k]
            sign = -sign
        rkR, rkI = R[k], I[k]
        cr, ci = rkR[c], rkI[c]
        # skipped columns left of c are not settled: the rows above k carry
        # entries there, so they are updated with everything right of c
        cols = free + list(range(c + 1, m))
        for i in range(nr):
            if i == k:
                continue
            riR, riI = R[i], I[i]
            fr, fi = riR[c], riI[c]
            if fr or fi:
                for j in cols:
                    ar, ai = riR[j], riI[j]
                    br, bi = rkR[j], rkI[j]
                    tr = cr * ar - ci * ai - fr * br + fi * bi
                    ti = cr * ai + ci * ar - fr * bi - fi * br
                    riR[j], riI[j] = _divc(tr, ti, pr, pi)
            else:
                for j in cols:
                    ar, ai = riR[j], riI[j]
                    if ar or ai:
                        tr = cr * ar - ci * ai
                        ti = cr * ai + ci * ar
                        riR[j], riI[j] = _divc(tr, ti, pr, pi)
            if i < k:
                # settled pivot rescales from the old pivot to the new
                pc = pivots[i]
                riR[pc], riI[pc] = cr, ci
            riR[c] = 0
            riI[c] = 0
        pivots.append(c)
        pr, pi = cr, ci
    return pivots, sign


def _ffgj_real(R: List[List[int]], limit: int) -> Tuple[List[int], int]:
    """_ffgj on a real integer grid: the same pivots, sign and settled rows,
    with one product per term and one divmod per update."""
    nr = len(R)
    m = len(R[0]) if nr else 0
    sign, p = 1, 1
    pivots: List[int] = []
    free: List[int] = []
    for c in range(limit):
        k = len(pivots)
        piv = next((i for i in range(k, nr) if R[i][c]), None)
        if piv is None:
            free.append(c)
            continue
        if piv != k:
            R[k], R[piv] = R[piv], R[k]
            sign = -sign
        rk, cp = R[k], R[k][c]
        cols = free + list(range(c + 1, m))
        for i in range(nr):
            if i == k:
                continue
            ri = R[i]
            f = ri[c]
            if f:
                for j in cols:
                    ri[j], r = divmod(cp * ri[j] - f * rk[j], p)
                    if r:
                        raise _KernelBug("inexact division in fraction-free elimination")
            else:
                for j in cols:
                    if ri[j]:
                        ri[j], r = divmod(cp * ri[j], p)
                        if r:
                            raise _KernelBug("inexact division in fraction-free elimination")
            if i < k:
                ri[pivots[i]] = cp
            ri[c] = 0
        pivots.append(c)
        p = cp
    return pivots, sign


def det_and_adjugate(m: Matrix) -> Tuple[GaussianRational, Matrix]:
    """Determinant and adjugate in one elimination pass.

    The adjugate satisfies m @ adj == det * identity even though it is
    computed from the inverse-style elimination, so the matrix must be
    nonsingular here: a singular one raises SingularMatrixError.
    """
    if not m.is_square:
        raise ValueError("adjugate of a non-square matrix")
    n = m.rows
    R, I, den = _int_grids(m)
    (pr, pi), grid = _grid_adjugate(list(zip(R, I)))
    # det(den m) = den^n det(m) and adj(den m) = den^(n-1) adj(m)
    adj = _divided(grid, (den ** max(n - 1, 0), 0))
    det = GaussianRational(Rational(pr, den ** n), Rational(pi, den ** n))
    return det, Matrix(n, n, (e for row in adj for e in row))


def char_poly(m: Matrix) -> Polynomial:
    """Characteristic polynomial det(t * identity - m), monic, exact.

    No decision uses it; it is the tests' oracle for the PSD check.  It
    interpolates det(t * identity - m) through t = 0..n, each value taken
    from det_and_adjugate, with a singular sample read as zero.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    points = []
    for t in range(n + 1):
        try:
            det = det_and_adjugate(Matrix.identity(n).scale(t) - m)[0]
        except SingularMatrixError:
            det = ZERO
        points.append((t, det))
    return lagrange_interpolate(points, n)


class PsdVerdict:
    """Outcome of a positive-semidefiniteness check; truthy iff it holds."""

    __slots__ = ("ok", "reason")

    def __init__(self, ok: bool, reason: Optional[str] = None):
        self.ok = ok
        self.reason = reason

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"PsdVerdict(ok={self.ok}, reason={self.reason!r})"


def hermitian_psd_check(m: Matrix) -> PsdVerdict:
    """Decide exactly whether a Hermitian matrix is positive semidefinite.

    Runs fraction-free symmetric elimination (Bareiss 1968) on the
    denominator-cleared matrix, pivoting down the diagonal in natural
    order.  Each remaining entry is the determinant of the principal minor
    pivoted so far, which is positive, times the matching entry of its
    Schur complement, so every sign read is exact.  A negative pivot, or a
    zero pivot whose remaining row is nonzero, proves a negative
    eigenvalue; a zero pivot with a zero row drops its index.  Only the
    upper triangle is updated, and an entry that is zero in both its row
    and the pivot row is skipped, so low-rank matrices stay cheap.  A
    non-Hermitian input yields a false verdict with a reason, not an
    exception.
    """
    if not m.is_square:
        return PsdVerdict(False, "not-square")
    return _grid_psd(*_int_grids(m)[:2])


def _grid_psd(R: List[List[int]], I: List[List[int]]) -> PsdVerdict:
    """hermitian_psd_check on a square Gaussian-integer grid, in place: a
    positive multiple of a matrix gets that matrix's verdict.  Hermiticity
    is compared on the integers first."""
    n = len(R)
    for i in range(n):
        riR, riI = R[i], I[i]
        if any(riR[j] != R[j][i] or riI[j] != -I[j][i] for j in range(i, n)):
            return PsdVerdict(False, "not-hermitian")
    prev = 1
    for k in range(n):
        rkR, rkI = R[k], I[k]
        if rkI[k]:
            raise _KernelBug("complex diagonal in Hermitian elimination")
        p = rkR[k]
        if p < 0:
            return PsdVerdict(False, "negative-eigenvalue")
        if not p:
            if any(rkR[j] or rkI[j] for j in range(k + 1, n)):
                return PsdVerdict(False, "negative-eigenvalue")
            continue
        for i in range(k + 1, n):
            riR, riI = R[i], I[i]
            # a_ik is conj(a_ki), read from the pivot row
            fr, fi = rkR[i], -rkI[i]
            for j in range(i, n):
                ar, ai = riR[j], riI[j]
                br, bi = rkR[j], rkI[j]
                if ar or ai or br or bi:
                    tr = p * ar - fr * br + fi * bi
                    ti = p * ai - fr * bi - fi * br
                    riR[j], riI[j] = _divc(tr, ti, prev, 0)
        prev = p
    return PsdVerdict(True)


def _grid_kernel(R: List[List[int]], I: List[List[int]], nc: int):
    """Gaussian-integer right kernel of an integer grid, by _ffgj in place.

    Returns the final pivot p, (1, 0) if there is none, and one (real,
    imaginary) column per free column f: p at f, zero at the other free
    columns and minus settled row t's entry at pivots[t].  That is p times
    nullspace's vector, found with no division.
    """
    pivots, _ = _ffgj(R, I, nc)
    p = (R[0][pivots[0]], I[0][pivots[0]]) if pivots else (1, 0)
    taken = set(pivots)
    cols = []
    for fc in range(nc):
        if fc in taken:
            continue
        vr, vi = [0] * nc, [0] * nc
        vr[fc], vi[fc] = p
        for t, pc in enumerate(pivots):
            vr[pc], vi[pc] = -R[t][fc], -I[t][fc]
        cols.append((vr, vi))
    return p, cols


def _grid_adjugate(rows):
    """det(G) as (re, im) and adj(G) as (re, im) rows, by _ffgj on [G | I]
    with G's rows extended in place (final pivot sign * det(G), right block
    sign * adj(G)); a singular G raises SingularMatrixError."""
    n = len(rows)
    R, I = [r for r, _ in rows], [i for _, i in rows]
    for i in range(n):
        R[i].extend(1 if j == i else 0 for j in range(n))
        I[i].extend(0 for _ in range(n))
    pivots, sign = _ffgj(R, I, n)
    if len(pivots) < n:
        raise SingularMatrixError(min(set(range(n)).difference(pivots)))
    det = (sign * R[0][0], sign * I[0][0]) if n else (1, 0)
    return det, [([sign * x for x in r[n:]], [sign * y for y in i[n:]]) for r, i in zip(R, I)]


def _grid_product(a, b, cols: int):
    """A B for Gaussian-integer grids as (re, im) row pairs, B with cols
    columns; zeros of A and of B are skipped, so sparse grids stay cheap."""
    bnz = [[(j, u, v) for j, (u, v) in enumerate(zip(*row)) if u or v] for row in b]
    out = []
    for xr, xi in a:
        sr, si = [0] * cols, [0] * cols
        for k, (x, y) in enumerate(zip(xr, xi)):
            if x or y:
                for j, u, v in bnz[k]:
                    sr[j] += x * u - y * v
                    si[j] += x * v + y * u
        out.append((sr, si))
    return out


def _divided(vectors, p) -> List[List[GaussianRational]]:
    """Gaussian-integer vectors (re, im) over p = (re, im), as x conj(p) / |p|^2:
    one exact division per nonzero entry, and ZERO for a zero entry."""
    pr, pi = p
    sr, si, den = (pr, -pi, pr * pr + pi * pi) if pi else (1, 0, pr)
    return [
        [GaussianRational(Rational(ar * sr - ai * si, den), Rational(ar * si + ai * sr, den))
         if ar or ai else ZERO for ar, ai in zip(vr, vi)]
        for vr, vi in vectors
    ]


def nullspace(m: Matrix) -> List[List[GaussianRational]]:
    """Exact basis of the right nullspace, one vector per free column.

    The vector for free column f has a 1 at f, zeros at the other free
    columns, and minus the reduced row-echelon entry at each pivot column:
    the integer column of _grid_kernel on the denominator-cleared matrix,
    divided by the final pivot.
    """
    R, I, _ = _int_grids(m)
    p, cols = _grid_kernel(R, I, m.cols)
    return _divided(cols, p)
