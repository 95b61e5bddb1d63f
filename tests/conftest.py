"""Shared generators and independent oracles for the test suite.

Oracles here deliberately re-derive results through different algorithms
than the package (cofactor determinants, Gauss-Jordan over the field,
per-input circuit evaluation, walk-based cycle detection, iterated
squaring for the canonical cycle, full-space gate matrices multiplied in
order for the circuit unitary, literal conjugation by the circuit
unitary, dense Kronecker products for the natural matrix, one
interpolation per resolvent entry, rational matrix products over field
kernels for the fixed-point projector, the sign pattern of the
characteristic polynomial for positive semidefiniteness, the Matrix
nullspace of P_cc - I for a recurrent class's stationary distribution,
T matrix-vector steps for the doubled Cesaro average) so agreement
actually means something.
"""

import random
from typing import Dict, List, Optional, Tuple

import numpy as np
from hypothesis import HealthCheck, settings

from ctcsim.circuits import (
    BUILTIN_GATES,
    ClassicalAssignment,
    ClassicalCircuit,
    CTCProgram,
    FunctionTable,
    GateApplication,
    QuantumCircuit,
    QuantumGate,
    StochasticCircuit,
    StochasticMatrix,
    circuit_unitary,
)
from ctcsim.exact.matrices import (
    Matrix,
    SingularMatrixError,
    char_poly,
    det_and_adjugate,
    nullspace,
)
from ctcsim.exact.polys import Polynomial, lagrange_interpolate
from ctcsim.exact.scalars import GaussianRational, ONE, Rational, ZERO
from ctcsim.fixpoint import to_complex_array
from ctcsim.superop import DensityMatrix, Superoperator, unvec, vec

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

# unit-hypotenuse triples for exactly unitary rotations and phases
TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29)]


def random_rational_gate(rng: random.Random, name: str) -> QuantumGate:
    a, b, c = rng.choice(TRIPLES)
    if rng.random() < 0.5:
        rows = [
            [Rational(a, c), Rational(-b, c)],
            [Rational(b, c), Rational(a, c)],
        ]
    else:
        rows = [
            [1, 0],
            [0, GaussianRational(Rational(a, c), Rational(b, c))],
        ]
    return QuantumGate(name, Matrix.from_rows(rows))


def random_quantum_program(
    rng: random.Random,
    q: Optional[int] = None,
    r: Optional[int] = None,
    with_output: bool = True,
) -> CTCProgram:
    q = q if q is not None else rng.randint(1, 2)
    r = r if r is not None else rng.randint(0, 2)
    n = q + r
    defgates: List[QuantumGate] = []
    apps: List[GateApplication] = []
    one_qubit = ["X", "Y", "Z", "S"]
    two_qubit = ["CNOT", "CZ", "SWAP"]
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.3:
            gate = random_rational_gate(rng, f"G{len(defgates)}")
            defgates.append(gate)
            apps.append(GateApplication(gate, (rng.randrange(n),)))
        elif roll < 0.7 or n < 2:
            gate = BUILTIN_GATES[rng.choice(one_qubit)]
            apps.append(GateApplication(gate, (rng.randrange(n),)))
        else:
            gate = BUILTIN_GATES[rng.choice(two_qubit)]
            apps.append(GateApplication(gate, tuple(rng.sample(range(n), 2))))
    circuit = QuantumCircuit(q, r, tuple(defgates), tuple(apps))
    out = rng.randrange(r) if (with_output and r) else None
    return CTCProgram("quantum", circuit, out)


def random_classical_circuit(rng: random.Random, p: int, qc: int) -> ClassicalCircuit:
    """Straight-line program; temporaries are always written before read."""
    wires = [("ctc", i) for i in range(p)] + [("cr", j) for j in range(qc)]
    readable = list(wires)
    assignments = []
    tmp_count = 0
    for _ in range(rng.randint(1, 8)):
        op = rng.choice(["and", "or", "not", "copy"])
        arity = 2 if op in ("and", "or") else 1
        ins = tuple(rng.choice(readable) for _ in range(arity))
        if rng.random() < 0.4:
            out = ("tmp", tmp_count)
            tmp_count += 1
        else:
            out = rng.choice(wires)
        assignments.append(ClassicalAssignment(op, out, ins))
        if out not in readable:
            readable.append(out)
    return ClassicalCircuit(p, qc, tuple(assignments), None)


def random_table(rng: random.Random, bits: int) -> FunctionTable:
    size = 1 << bits
    return FunctionTable(bits, tuple(rng.randrange(size) for _ in range(size)))


def random_rank_one_density(rng: random.Random, dim: int):
    """v v^dagger / |v|^2 for a random nonzero Gaussian-rational vector;
    exactly a density matrix, no square roots needed."""
    while True:
        v = [
            GaussianRational(
                Rational(rng.randint(-3, 3)), Rational(rng.randint(-3, 3))
            )
            for _ in range(dim)
        ]
        norm = sum((x.abs2() for x in v), Rational(0))
        if norm:
            break
    inv = GaussianRational(1) / GaussianRational(norm)
    entries = [v[i] * v[j].conj() * inv for i in range(dim) for j in range(dim)]
    return DensityMatrix(dim, Matrix(dim, dim, entries))


def inverse(m: Matrix) -> Matrix:
    det, adj = det_and_adjugate(m)
    return adj.scale(ONE / det)


def projector_by_field_kernels(k: Matrix) -> Matrix:
    """R = V (W^dagger V)^(-1) W^dagger through Matrix operations, with V and
    W the field nullspaces of K - I and K^dagger - I and the inverse read
    off a field RREF, so no elimination of the package takes part."""
    n = k.rows
    v = field_nullspace(k - Matrix.identity(n))
    w = field_nullspace(k.dagger() - Matrix.identity(n))
    d = len(v)
    vm = Matrix(n, d, (col[i] for i in range(n) for col in v))
    wd = Matrix(d, n, (x.conj() for col in w for x in col))
    # (W^dagger V)^(-1) is the right half of the field RREF of [W^dagger V | I]
    g = (wd @ vm).to_rows()
    rref, pivots = field_rref(
        Matrix.from_rows([row + [ONE if j == i else ZERO for j in range(d)] for i, row in enumerate(g)])
    )
    assert pivots == list(range(d)), "W^dagger V is singular"
    return vm @ (Matrix(d, d, (x for row in rref for x in row[d:])) @ wd)


def resolvent_by_entry(m: Matrix) -> Tuple[Polynomial, Tuple[Polynomial, ...]]:
    """Denominator and row-major numerators of z (I - (1 - z) M)^(-1), each
    interpolated on its own over the first n + 2 integers z >= 1 at which
    I - (1 - z) M is invertible."""
    n = m.rows
    points = []  # (z, det, z * adjugate)
    z = 0
    while len(points) < n + 2:
        z += 1
        try:
            det, adj = det_and_adjugate(Matrix.identity(n) - m.scale(1 - z))
        except SingularMatrixError:
            continue
        points.append((z, det, adj.scale(z)))
    denominator = lagrange_interpolate([(z, d) for z, d, _ in points], n + 1)
    numerators = tuple(
        lagrange_interpolate([(z, num.entries[e]) for z, _, num in points], n + 1)
        for e in range(n * n)
    )
    return denominator, numerators


def psd_by_char_poly(m: Matrix) -> bool:
    """Whether a Hermitian matrix is positive semidefinite, read from the
    sign pattern of its characteristic polynomial: with monic
    p(t) = sum c_k t^k of degree n, every eigenvalue is nonnegative iff
    (-1)^(n-k) c_k >= 0 for every k.  Leading principal minors would not
    do, because they can vanish on singular PSD matrices."""
    p = char_poly(m)
    n = m.rows
    return all((-1) ** (n - k) * p.coeff(k).re >= 0 for k in range(n + 1))


def fixed_space_basis(phi: Superoperator) -> List[Matrix]:
    """The right kernel of K - I, as matrices."""
    n = phi.input_dim
    k = phi.k_matrix - Matrix.identity(n * n)
    return [unvec(Matrix(n * n, 1, v), n) for v in nullspace(k)]


def table_to_stochastic(table: FunctionTable) -> StochasticMatrix:
    """The deterministic chain of a function: column x is a point mass on
    the image of x."""
    size = 1 << table.bits
    entries = [[ZERO] * size for _ in range(size)]
    for x in range(size):
        entries[table.apply(x)][x] = ONE
    return StochasticMatrix(size, Matrix.from_rows(entries))


def off_cycle_mass(table: FunctionTable, dist) -> Rational:
    """Exact distance from dist to the nearest distribution supported on
    the cycles of the table: mass off the cycle support has to move, and
    moving it costs exactly itself in half-L1 distance."""
    keep = walk_cyclic_nodes(table)
    return sum((p for y, p in enumerate(dist.probabilities) if y not in keep), Rational(0))


# -- independent oracles ---------------------------------------------------

def embedded_unitary(circuit: QuantumCircuit) -> Matrix:
    """The circuit unitary as a product of full-space gate matrices.

    A gate on wires w becomes E with E[a, b] = g[loc(a), loc(b)] when the
    bit strings a and b agree off w, and 0 elsewhere; loc(a) reads the
    characters of a at w, w[0] first.  The matrices multiply in gate order
    with @, so no sparse column or bit mask is involved.
    """
    n = circuit.total_qubits
    dim = 1 << n
    texts = [format(a, f"0{n}b") for a in range(dim)]
    u = Matrix.identity(dim)
    for app in circuit.gates:
        off = [w for w in range(n) if w not in app.wires]
        loc = [int("".join(t[w] for w in app.wires), 2) for t in texts]
        rest = [[t[w] for w in off] for t in texts]
        e = Matrix(
            dim,
            dim,
            (
                app.gate.matrix.entry(loc[a], loc[b]) if rest[a] == rest[b] else ZERO
                for a in range(dim)
                for b in range(dim)
            ),
        )
        u = e @ u
    return u


def output_bit_of(circuit: StochasticCircuit, x: int) -> int:
    """Pattern match on the register value's bit string, one pattern and
    one character at a time."""
    bits = format(x, f"0{circuit.ctc_bits}b")
    for p in circuit.output_patterns:
        if all(pc in ("*", bc) for pc, bc in zip(p, bits)):
            return 1
    return 0


def cofactor_det(rows: List[List[GaussianRational]]) -> GaussianRational:
    n = len(rows)
    if n == 0:
        return ONE  # the empty product
    total = ZERO
    for j in range(n):
        e = rows[0][j]
        if e.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = e * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def field_rref(m: Matrix) -> Tuple[List[List[GaussianRational]], List[int]]:
    """Reduced row-echelon form by Gauss-Jordan over the field, with the
    pivot columns; every row operation is a plain rational division."""
    rows = [list(r) for r in m.to_rows()]
    nr, nc = m.rows, m.cols
    pivots: List[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = GaussianRational(1, 0) / rows[r][c]
        rows[r] = [e * inv for e in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def field_nullspace(m: Matrix) -> List[List[GaussianRational]]:
    """Nullspace basis read off the field RREF: for each free column f,
    v[f] = 1, zero at the other free columns, minus the RREF entry at each
    pivot column."""
    rows, pivots = field_rref(m)
    basis = []
    for fc in range(m.cols):
        if fc in pivots:
            continue
        v = [ZERO] * m.cols
        v[fc] = GaussianRational(1, 0)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(v)
    return basis


def eval_classical_input(circuit: ClassicalCircuit, x: int) -> int:
    """Per-input oracle for straight-line programs, written separately
    from the package's evaluator."""
    p, qc = circuit.ctc_bits, circuit.cr_bits
    total = p + qc
    bits: Dict[Tuple[str, int], int] = {}
    text = format(x, f"0{total}b")
    for i in range(p):
        bits[("ctc", i)] = int(text[i])
    for j in range(qc):
        bits[("cr", j)] = int(text[p + j])
    for a in circuit.assignments:
        vals = [bits[w] for w in a.inputs]
        if a.op == "and":
            bits[a.out] = vals[0] and vals[1]
        elif a.op == "or":
            bits[a.out] = vals[0] or vals[1]
        elif a.op == "not":
            bits[a.out] = 0 if vals[0] else 1
        else:
            bits[a.out] = vals[0]
    out_text = "".join(str(bits[("ctc", i)]) for i in range(p))
    out_text += "".join(str(bits[("cr", j)]) for j in range(qc))
    return int(out_text, 2)


def walk_cyclic_nodes(table: FunctionTable) -> frozenset:
    """A node is cyclic exactly when iterating the function size-many
    times from it returns to it at some step."""
    size = 1 << table.bits
    cyclic = set()
    for y in range(size):
        z = y
        for _ in range(size):
            z = table.apply(z)
            if z == y:
                cyclic.add(y)
                break
    return frozenset(cyclic)


def squaring_cycle(table: FunctionTable) -> Tuple[int, ...]:
    """The cycle reached from the all-zeros string, listed from f^(2^p)(0).

    p iterated squarings of the table give its 2^p-fold composite; any
    walk of 2^p steps has already looped, so that composite sends 0 onto
    the cycle.
    """
    g = table.outputs
    for _ in range(table.bits):
        g = tuple(g[v] for v in g)
    cycle = [g[0]]
    y = table.apply(g[0])
    while y != cycle[0]:
        cycle.append(y)
        y = table.apply(y)
    return tuple(cycle)


def brute_terminal_classes(succ: List[List[int]]) -> List[List[int]]:
    """x is recurrent exactly when every state reachable from x reaches x
    back; the class of a recurrent x is everything it reaches."""
    reach = []
    for x in range(len(succ)):
        seen = {x}
        todo = [x]
        while todo:
            for w in succ[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    classes = {
        frozenset(reach[x])
        for x in range(len(succ))
        if all(x in reach[y] for y in reach[x])
    }
    return sorted(sorted(c) for c in classes)


def random_class_graph(rng: random.Random, classes: int, transient: int) -> List[List[int]]:
    """Successor lists with the given number of closed classes (each a
    self-loop or a cycle with extra internal edges) and transient states
    that may loop among themselves but always have a way out, relabelled
    at random."""
    succ: List[List[int]] = []
    members: List[int] = []
    for _ in range(classes):
        size = rng.randint(1, 4)
        base = len(succ)
        for k in range(size):
            nxt = {base + (k + 1) % size}
            nxt |= {base + rng.randrange(size) for _ in range(rng.randint(0, 2))}
            succ.append(sorted(nxt))
        members.extend(range(base, base + size))
    for t in range(transient):
        v = len(succ)
        # one edge towards a class or an earlier transient state, so every
        # transient state drains into a class; later edges may go anywhere
        nxt = {rng.choice(members + list(range(len(members), v)))}
        nxt |= {rng.randrange(len(members) + transient) for _ in range(rng.randint(0, 2))}
        succ.append(sorted(nxt))
    perm = list(range(len(succ)))
    rng.shuffle(perm)
    relabelled: List[List[int]] = [[] for _ in succ]
    for v, ws in enumerate(succ):
        relabelled[perm[v]] = sorted(perm[w] for w in ws)
    return relabelled


def random_planted_chain(
    rng: random.Random, bits: int, classes: int
) -> Tuple[StochasticMatrix, List[List[int]]]:
    """Column-stochastic chain on 2^bits states with the given number of
    recurrent classes planted (each a cycle with extra internal edges),
    every other state transient, plus the sorted member lists.  Each
    class draws its column denominators from its own base, 7, 9, 11 or 8
    times 1..3, so the classes' common denominators differ."""
    dim = 1 << bits
    order = list(range(dim))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, dim), classes - 1)) if classes > 1 else []
    ends = cuts + [rng.randint(cuts[-1] + 1 if cuts else 1, dim)]
    planted = [order[a:b] for a, b in zip([0] + cuts, ends)]
    recurrent, transient = order[: ends[-1]], order[ends[-1]:]
    bases = rng.sample([7, 9, 11, 8], 4)
    cols: Dict[int, Dict[int, Rational]] = {}

    def split(j: int, succ: List[int], base: int) -> None:
        den = base * rng.randint(1, 3)
        cut = sorted(rng.sample(range(1, den), len(succ) - 1))
        cols[j] = {s: Rational(b - a, den) for s, a, b in zip(succ, [0] + cut, cut + [den])}

    for members, base in zip(planted, bases):
        for i, j in enumerate(members):
            succ = {members[(i + 1) % len(members)]}
            succ |= {rng.choice(members) for _ in range(rng.randint(0, 2))}
            split(j, sorted(succ), base)
    for t, j in enumerate(transient):
        # one edge towards a class or an earlier transient state, so every
        # transient state drains into a class; later edges may go anywhere
        succ = {rng.choice(recurrent + transient[:t])}
        succ |= {rng.randrange(dim) for _ in range(rng.randint(0, 2))}
        split(j, sorted(succ), rng.choice(bases))
    matrix = Matrix(dim, dim, (cols[j].get(i, 0) for i in range(dim) for j in range(dim)))
    return StochasticMatrix(dim, matrix), sorted(sorted(c) for c in planted)


def stationary_by_nullspace(chain: StochasticMatrix, members: List[int]) -> List[Rational]:
    """A recurrent class's stationary distribution through exact matrices:
    P_cc - I as a Matrix, its nullspace, divided by the sum."""
    k = len(members)
    sub = Matrix(
        k,
        k,
        (
            chain.matrix.entry(members[i], members[j]) - (ONE if i == j else ZERO)
            for i in range(k)
            for j in range(k)
        ),
    )
    (basis,) = nullspace(sub)
    total = sum((e.re for e in basis), Rational(0))
    return [e.re / total for e in basis]


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, a on the high-order index block."""
    r1, c1, r2, c2 = a.rows, a.cols, b.rows, b.cols
    out = [ZERO] * (r1 * r2 * c1 * c2)
    width = c1 * c2
    for i1 in range(r1):
        for j1 in range(c1):
            x = a.entries[i1 * c1 + j1]
            if x.is_zero():
                continue
            for i2 in range(r2):
                base = (i1 * r2 + i2) * width + j1 * c2
                for j2 in range(c2):
                    y = b.entries[i2 * c2 + j2]
                    if not y.is_zero():
                        out[base + j2] = x * y
    return Matrix(r1 * r2, c1 * c2, out)


def natural_by_kron(kraus: List[Matrix]) -> Matrix:
    """sum_j A_j (x) conj(A_j), one dense Kronecker product per operator."""
    size = kraus[0].rows ** 2
    total = Matrix.zeros(size, size)
    for a in kraus:
        total = total + kron(a, a.conj())
    return total


def program_to_natural_dense(program: CTCProgram) -> Superoperator:
    """The channel by its definition: embed rho as rho (x) |0..0><0..0|,
    conjugate by U (x) conj(U), then block-trace the ancilla.  Dense and
    independent of the Kraus family."""
    circuit = program.circuit
    q, r = circuit.ctc_qubits, circuit.cr_qubits
    u = circuit_unitary(circuit)
    n, anc = 1 << q, 1 << r
    big = n * anc
    # embed: vec(rho) -> vec(rho tensor |0..0><0..0|)
    rows = [[ZERO] * (n * n) for _ in range(big * big)]
    for x in range(n):
        for xp in range(n):
            rows[(x * anc) * big + (xp * anc)][x * n + xp] = ONE
    m0 = Matrix.from_rows(rows)
    # block trace: vec(M) -> vec(sum_y <y|-block M |y>-block)
    rows = [[ZERO] * (big * big) for _ in range(n * n)]
    for x in range(n):
        for xp in range(n):
            for y in range(anc):
                rows[x * n + xp][(x * anc + y) * big + (xp * anc + y)] = ONE
    m1 = Matrix.from_rows(rows)
    return Superoperator(n, m1 @ kron(u, u.conj()) @ m0)


def dense_accept_operator(program: CTCProgram) -> Matrix:
    """The acceptance POVM element as the |0..0>-ancilla corner block of
    U^dagger P U, where P projects onto the output bit reading 1."""
    circuit = program.circuit
    q, r = circuit.ctc_qubits, circuit.cr_qubits
    n, anc = 1 << q, 1 << r
    pos = r - 1 - program.output_bit
    u = circuit_unitary(circuit)
    dim = n * anc
    p = Matrix(
        dim, dim, (ONE if s == t and (s >> pos) & 1 else ZERO for s in range(dim) for t in range(dim))
    )
    g = u.dagger() @ p @ u
    return Matrix(n, n, (g.entry(xp * anc, x * anc) for xp in range(n) for x in range(n)))


def acceptance_operator_by_definition(a: Matrix, r: Matrix) -> Matrix:
    """H with trace(H sigma) = trace(A R(sigma)) for every sigma, built
    entry by entry from the matrix units: H[l, k] = trace(A R(|k><l|))."""
    n = a.rows
    h = [[ZERO] * n for _ in range(n)]
    for k in range(n):
        for l in range(n):
            unit = Matrix(n, n, (ONE if i == k and j == l else ZERO for i in range(n) for j in range(n)))
            h[l][k] = (a @ unvec(r @ vec(unit), n)).trace()
    return Matrix.from_rows(h)


def cesaro_by_iteration(phi: Superoperator, sigma: DensityMatrix, t: int) -> np.ndarray:
    """(1/T) sum_{k<T} Phi^k(sigma) as T float matrix-vector steps: the
    running sum that fixpoint.cesaro_oracle forms by doubling."""
    n = phi.input_dim
    k = to_complex_array(phi.k_matrix)
    cur = to_complex_array(vec(sigma.matrix)).reshape(n * n)
    acc = np.zeros(n * n, dtype=complex)
    for _ in range(t):
        acc += cur
        cur = k @ cur
    return (acc / t).reshape(n, n)
