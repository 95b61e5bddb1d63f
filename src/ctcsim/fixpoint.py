"""Exact fixed points of a channel via the kernel pair of K - I.

The paper's route to a fixed point of a channel with natural matrix K is
the damped resolvent

    R_z = z * (I - (1 - z) * K)^(-1),

whose limit as z drops to 0 is a projector R onto the fixed space of K.
For a channel, eigenvalue 1 is semisimple (the iterates K^t stay
bounded), so that limit is the spectral projector onto ker(K - I) along
range(K - I): every other eigenvalue lambda contributes z / (1 - (1 - z)
lambda) -> 0.  The same projector has a closed form.  With V a basis of
the right kernel of K - I and W a basis of the left kernel (the right
kernel of K^dagger - I),

    R = V (W^dagger V)^(-1) W^dagger,

and W^dagger V is invertible exactly when eigenvalue 1 is semisimple.
fixed_point_projector builds N = V adj(G) W^dagger, G = W^dagger V, in
Gaussian integers from the primitive kernel columns of D(K - I) and its
adjoint (D clears K's denominators), and R = N / det(G) by one division per
entry.  It certifies the kernels in integers with K V = V, W^dagger K =
W^dagger and det(G) != 0, which together give R^2 = R, K R = R K = R and
R V = V without any n x n x n product, and certifies R's trace preservation
and complete positivity on N, before that division.

The paper-faithful route stays here as the oracle the tests compare
against: symbolic_resolvent samples det and adjugate of I - (1 - z) K at
n + 2 integer z, builds the Lagrange basis of those abscissae once, and
forms the denominator and every numerator as a combination of that one
basis; projector_limit reads the limit off their lowest nonzero
coefficients.  Neither runs in a decision, and neither is exported from
the top-level package.

The whole computation stays in rational arithmetic: no eigendecomposition,
no floating point, no assumption that K is diagonalizable.
cesaro_oracle is the one deliberate exception: a float-precision running
average of channel iterates, used only to cross-check the exact path.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

from .errors import ContractViolationError, ResourceLimitError
from .exact.matrices import (
    Matrix,
    SingularMatrixError,
    _divided,
    _grid_adjugate,
    _grid_kernel,
    _grid_product,
    _grid_psd,
    _int_grids,
    det_and_adjugate,
    hermitian_psd_check,  # noqa: F401  perfbench/tracing.py TARGETS wrap it under this name
)
from .exact.polys import Polynomial, lagrange_interpolate
from .exact.scalars import GaussianRational, ONE, ZERO
from .superop import DensityMatrix, Superoperator, unvec, vec
from .superop import choi_matrix  # noqa: F401  perfbench/tracing.py TARGETS wrap it under this name

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SymbolicResolvent",
    "FixedPointProjector",
    "symbolic_resolvent",
    "projector_limit",
    "check_dim_cap",
    "fixed_point_projector",
    "compute_fixed_point",
    "verify_fixed_point",
    "cesaro_oracle",
    "to_complex_array",
    "DIM_CAP",
    "LARGE_DIM_CAP",
]

# fixed caps, read at each call
DIM_CAP = 64
LARGE_DIM_CAP = 256


@dataclass(frozen=True)
class SymbolicResolvent:
    """R_z as exact polynomial data: entry (i,j) is
    numerators[i * dim + j] / denominator."""

    dim: int
    numerators: Tuple[Polynomial, ...]
    denominator: Polynomial
    source_matrix: Matrix

    def evaluate(self, z) -> Matrix:
        """R_z at a concrete z with nonzero denominator."""
        d = self.denominator.evaluate(z)
        if d.is_zero():
            raise ZeroDivisionError(f"denominator vanishes at z = {z}")
        values = Matrix(self.dim, self.dim, (e.evaluate(z) for e in self.numerators))
        return values.scale(GaussianRational(1) / d)


@dataclass(frozen=True)
class FixedPointProjector:
    """The limit projector R plus the channel it projects for."""

    r_matrix: Matrix
    source: Superoperator


def symbolic_resolvent(m: Matrix) -> SymbolicResolvent:
    """Interpolate z*(I - (1-z)M)^(-1) to exact polynomials.

    Samples det and adjugate of I - (1-z)M at integer abscissae starting
    from z = 1 (where the grid is exactly I, so never singular), skipping
    any z that happens to hit a root of the determinant.  n + 2 good
    samples pin down every entry, since all degrees are at most n + 1.
    """
    if m.rows != m.cols:
        raise ValueError("resolvent needs a square matrix")
    n = m.rows
    need = n + 2
    samples = []  # (z0, det, z0 * adjugate)
    z0 = 1
    while len(samples) < need:
        if z0 > 3 * n + 6:
            raise RuntimeError("could not find enough nonsingular sample points")
        grid = Matrix.identity(n) - m.scale(GaussianRational(1 - z0))
        try:
            det, adj = det_and_adjugate(grid)
        except SingularMatrixError:
            z0 += 1
            continue
        samples.append((GaussianRational(z0), det, adj.scale(GaussianRational(z0))))
        z0 += 1
    # one Lagrange basis L_k over the sampled abscissae serves the
    # denominator and all n^2 numerators as sums of v_k * L_k
    zs = [z for z, _, _ in samples]
    basis = [
        lagrange_interpolate([(z, ONE if j == k else ZERO) for j, z in enumerate(zs)], n + 1)
        for k in range(need)
    ]

    def through(values) -> Polynomial:
        return sum((b.scale(v) for b, v in zip(basis, values) if v), Polynomial.zero())

    denominator = through(d for _, d, _ in samples)
    numerators = tuple(
        through(num.entries[e] for _, _, num in samples) for e in range(n * n)
    )
    return SymbolicResolvent(n, numerators, denominator, m)


def projector_limit(s: SymbolicResolvent) -> FixedPointProjector:
    """Take z to 0: each entry becomes the ratio of the coefficients at
    the denominator's lowest nonzero order.

    A numerator with a nonzero coefficient below that order would make
    the entry blow up as z shrinks; that can only happen when the source
    matrix did not come from a trace-preserving map, so it is reported as
    a contract violation rather than a value.
    """
    k = s.denominator.lowest_nonzero_index()
    if k is None:
        raise ContractViolationError("resolvent denominator is identically zero")
    dk = s.denominator.coeff(k)
    entries: List[GaussianRational] = []
    for i in range(s.dim):
        for j in range(s.dim):
            num = s.numerators[i * s.dim + j]
            low = num.lowest_nonzero_index()
            if low is not None and low < k:
                raise ContractViolationError(
                    f"resolvent entry ({i},{j}) diverges as z -> 0: numerator "
                    f"order {low} is below denominator order {k}; the source "
                    f"matrix cannot represent a trace-preserving map"
                )
            entries.append(num.coeff(k) / dk)
    r = Matrix(s.dim, s.dim, entries)
    side = math.isqrt(s.dim)
    if side * side != s.dim:
        raise ValueError(
            f"projector dimension {s.dim} is not a perfect square; the source "
            f"was not a channel representation"
        )
    return FixedPointProjector(r, Superoperator(side, s.source_matrix))


def check_dim_cap(n: int, allow_large: bool = False) -> None:
    """Refuse an n x n channel representation above the cap.

    allow_large lifts the cap from DIM_CAP to LARGE_DIM_CAP.
    """
    if n > DIM_CAP and not (allow_large and n <= LARGE_DIM_CAP):
        raise ResourceLimitError(
            f"channel representation is {n}x{n}, above the cap of "
            f"{DIM_CAP}x{DIM_CAP}; pass allow_large=True to go up to "
            f"{LARGE_DIM_CAP}x{LARGE_DIM_CAP}"
        )


def _outside_stacklevel() -> int:
    """The warnings.warn stacklevel, seen from this function's caller, of
    the first frame outside the ctcsim package."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


def fixed_point_projector(phi: Superoperator, allow_large: bool = False) -> FixedPointProjector:
    """Fixed-space projector R = V (W^dagger V)^(-1) W^dagger, certified.

    V and W, primitive Gaussian-integer bases of the right and left kernels
    of K - I, must satisfy K V = V and W^dagger K = W^dagger exactly, and
    G = W^dagger V must be invertible: then R = N / det(G), N = V adj(G)
    W^dagger, is an idempotent that K absorbs on both sides.  R must also be
    TP and CP, read off the grid N before its one division per entry: N's
    rows at the diagonal indices sum to det(G) vec(I)^T, and the Choi
    reshuffle of N conj(det(G)) = |det(G)|^2 R is Hermitian and PSD.  Any
    failure means the input was not CPTP (or a kernel bug) and raises.
    """
    k = phi.k_matrix
    n = k.rows
    check_dim_cap(n, allow_large)
    if n > DIM_CAP:
        warnings.warn(
            f"computing an exact {n}x{n} fixed-point projector; at 256x256 "
            f"this takes several seconds for a sparse channel, and a dense "
            f"one may not finish within minutes",
            RuntimeWarning,
            stacklevel=_outside_stacklevel(),
        )
    kr, ki, den = _int_grids(k)
    # K's nonzero entries, and its adjoint: the transpose, imaginary negated
    nz = [(i, j, x, y) for i, row in enumerate(zip(kr, ki))
          for j, (x, y) in enumerate(zip(*row)) if x or y]
    hr, hi = [list(c) for c in zip(*kr)], [[-x for x in c] for c in zip(*ki)]
    for i in range(n):
        kr[i][i] -= den
        hr[i][i] -= den
    # the kernels of D(K - I) and D(K^dagger - I), eliminated in place, each
    # column made primitive: R ignores how V's and W's columns are scaled
    v = _primitive(_grid_kernel(kr, ki, n)[1])
    w = _primitive(_grid_kernel(hr, hi, n)[1])
    # rank(A) = rank(A^dagger), so only a kernel bug can split the sizes
    if len(w) != len(v):
        raise ContractViolationError(
            f"right and left fixed spaces differ in dimension ({len(v)} vs {len(w)})"
        )
    if not (_fixes(nz, den, v) and _fixes([(j, i, x, -y) for i, j, x, y in nz], den, w)):
        raise ContractViolationError("kernel basis is not fixed by the channel")
    # W^dagger and V as (re, im) rows
    wd = [(re, [-y for y in im]) for re, im in w]
    v = [([re[i] for re, _ in v], [im[i] for _, im in v]) for i in range(n)]
    try:
        det, adj = _grid_adjugate(_grid_product(wd, v, len(w)))
    except SingularMatrixError:
        raise ContractViolationError(
            "eigenvalue 1 is not semisimple (W^dagger V is singular); the "
            "source matrix cannot represent a channel"
        ) from None
    rows = _grid_product(_grid_product(v, adj, len(w)), wd, n)
    s, (dr, di) = phi.input_dim, det
    # TP: vec(I)^T N = det * vec(I)^T; vec(I)^T sums N's rows k * s + k
    diagonal = rows[:: s + 1]
    traced = [(sum(re[c] for re, _ in diagonal), sum(im[c] for _, im in diagonal))
              for c in range(n)]
    if traced != [det if c % (s + 1) == 0 else (0, 0) for c in range(n)]:
        raise ContractViolationError("fixed-point projector is not trace-preserving")
    # CP: N conj(det), or N sign(det) for a real det, is a positive multiple
    # of R, and choi_matrix's reshuffle of it the same multiple of R's Choi
    # matrix: entry (i s + k, j s + l) is N[k s + l, i s + j]
    ur, ui = (dr, -di) if di else (1 if dr > 0 else -1, 0)
    at = [[((a % s) * s + b % s, (a // s) * s + b // s) for b in range(n)] for a in range(n)]
    cr = [[rows[k][0][c] * ur - rows[k][1][c] * ui for k, c in row] for row in at]
    ci = [[rows[k][0][c] * ui + rows[k][1][c] * ur for k, c in row] for row in at]
    verdict = _grid_psd(cr, ci)
    if not verdict:
        raise ContractViolationError(
            f"fixed-point projector is not completely positive ({verdict.reason})"
        )
    r = Matrix(n, n, (e for row in _divided(rows, det) for e in row))
    return FixedPointProjector(r, phi)


def _primitive(cols):
    """Each integer column (re, im) divided by the gcd of all its parts."""
    return [([x // g for x in vr], [y // g for y in vi])
            for vr, vi in cols for g in (math.gcd(*vr, *vi),)]


def _fixes(nonzeros, den: int, cols) -> bool:
    """Whether M v == den * v for each integer column (vr, vi); M as (i, j, re, im)."""
    for vr, vi in cols:
        outr, outi = [-den * a for a in vr], [-den * b for b in vi]
        for i, j, x, y in nonzeros:
            outr[i] += x * vr[j] - y * vi[j]
            outi[i] += x * vi[j] + y * vr[j]
        if any(outr) or any(outi):
            return False
    return True


def compute_fixed_point(proj: FixedPointProjector, sigma: DensityMatrix) -> DensityMatrix:
    """Project a seed state onto the fixed space: rho = unvec(R vec(sigma)).

    The result is verified to be an exact density matrix and an exact
    fixed point of the source channel before it is returned.
    """
    n = proj.source.input_dim
    if sigma.dim != n:
        raise ValueError(f"seed has dimension {sigma.dim}, channel wants {n}")
    out = unvec(proj.r_matrix @ vec(sigma.matrix), n)
    try:
        rho = DensityMatrix(n, out)
    except ValueError as exc:
        raise ContractViolationError(
            f"projected state is not a density matrix: {exc}"
        ) from None
    if not verify_fixed_point(proj.source, rho):
        raise ContractViolationError("projected state is not fixed by the channel")
    return rho


def verify_fixed_point(phi: Superoperator, rho: DensityMatrix) -> bool:
    """Exact test of Phi(rho) == rho."""
    if rho.dim != phi.input_dim:
        raise ValueError("dimension mismatch")
    return phi.apply_matrix(rho.matrix) == rho.matrix


def to_complex_array(m: Matrix) -> np.ndarray:
    """Float snapshot of an exact matrix, for numerical cross-checks only."""
    import numpy as np  # float diagnostics only; kept off the import path

    return np.array(
        [[complex(e.re, e.im) for e in row] for row in m.to_rows()], dtype=complex
    )


def cesaro_oracle(phi: Superoperator, sigma: DensityMatrix, t: int) -> np.ndarray:
    """Running average (1/T) sum_{k<T} Phi^k(sigma) in float arithmetic.

    Converges to the same limit as the exact projector; kept strictly
    outside the exact path and used only to cross-check it.
    """
    if t < 1:
        raise ValueError("need at least one term")
    import numpy as np  # float diagnostics only; kept off the import path

    n = phi.input_dim
    k = to_complex_array(phi.k_matrix)
    cur = to_complex_array(vec(sigma.matrix)).reshape(n * n)
    acc = np.zeros(n * n, dtype=complex)
    for _ in range(t):
        acc += cur
        cur = k @ cur
    return (acc / t).reshape(n, n)
