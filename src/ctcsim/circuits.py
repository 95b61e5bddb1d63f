"""Circuit representations for programs that run around a closed timelike curve.

A program owns two registers.  The CTC register holds the state that must
be causally consistent; the causality-respecting register starts in the
all-zeros state and carries the observable output.  Wire 0 is the most
significant bit of a basis index, and the CTC wires occupy the high-order
block, so a basis index always decomposes as x * 2**r + y with x the CTC
value and y the causality-respecting value.

Three program kinds share the CTCProgram wrapper:

  quantum     a unitary circuit over exact-rational gate matrices
  classical   a straight-line Boolean program or an explicit function table
  stochastic  a column-stochastic matrix acting on the CTC register

Constructors check shape only.  Semantic properties (unitarity of custom
gates, stochasticity, table totality) are reported by the validator in
the dsl module and enforced again by the operations that rely on them.
Elaboration refuses a circuit above the fixed caps: QUBIT_CAP qubits for
the unitary U, BIT_CAP bits for the function table.  U is built one basis
column at a time: each column is a sparse {basis index: amplitude} map
pushed through the gate list, and only the entries that survive are
written into the dense exact matrix.  Decisions build only the 2^q
columns x * 2^r that the CTC channel reads, the isometry U (I (x) |0..0>).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import ResourceLimitError
from .exact.matrices import Matrix
from .exact.scalars import GaussianRational, IMAG_UNIT, Rational, ZERO, ONE

__all__ = [
    "QuantumGate",
    "BUILTIN_GATES",
    "GateApplication",
    "QuantumCircuit",
    "Wire",
    "ClassicalAssignment",
    "ClassicalCircuit",
    "FunctionTable",
    "StochasticMatrix",
    "StochasticCircuit",
    "CTCProgram",
    "circuit_unitary",
    "circuit_isometry",
    "classical_table",
    "QUBIT_CAP",
    "BIT_CAP",
]

# fixed caps, read at each call
QUBIT_CAP = 8
BIT_CAP = 20


@dataclass(frozen=True)
class QuantumGate:
    """A named unitary with an exact matrix; arity is log2 of its dimension."""

    name: str
    matrix: Matrix

    def __post_init__(self):
        n = self.matrix.rows
        if self.matrix.cols != n or n < 2 or n & (n - 1):
            raise ValueError(
                f"gate {self.name}: matrix must be square with power-of-two "
                f"dimension, got {self.matrix.rows}x{self.matrix.cols}"
            )

    @property
    def arity(self) -> int:
        return self.matrix.rows.bit_length() - 1


def _gate(name: str, rows) -> QuantumGate:
    return QuantumGate(name, Matrix.from_rows(rows))


BUILTIN_GATES: Dict[str, QuantumGate] = {
    g.name: g
    for g in (
        _gate("X", [[0, 1], [1, 0]]),
        _gate("Y", [[0, -IMAG_UNIT], [IMAG_UNIT, 0]]),
        _gate("Z", [[1, 0], [0, -1]]),
        _gate("S", [[1, 0], [0, IMAG_UNIT]]),
        _gate(
            "CNOT",
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        ),
        _gate(
            "CZ",
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
        ),
        _gate(
            "SWAP",
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        ),
        _gate(
            "TOFFOLI",
            [
                [1, 0, 0, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0, 0, 0],
                [0, 0, 0, 1, 0, 0, 0, 0],
                [0, 0, 0, 0, 1, 0, 0, 0],
                [0, 0, 0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 0, 0, 0, 1],
                [0, 0, 0, 0, 0, 0, 1, 0],
            ],
        ),
    )
}


@dataclass(frozen=True)
class GateApplication:
    """A gate applied to distinct global wires; wires[0] is the gate's MSB."""

    gate: QuantumGate
    wires: Tuple[int, ...]

    def __post_init__(self):
        if len(self.wires) != self.gate.arity:
            raise ValueError(
                f"gate {self.gate.name} has arity {self.gate.arity}, "
                f"got {len(self.wires)} wires"
            )
        if len(set(self.wires)) != len(self.wires):
            raise ValueError(f"gate {self.gate.name}: wires must be distinct")


@dataclass(frozen=True)
class QuantumCircuit:
    """q CTC qubits (wires 0..q-1) and r causality-respecting qubits."""

    ctc_qubits: int
    cr_qubits: int
    defgates: Tuple[QuantumGate, ...] = ()
    gates: Tuple[GateApplication, ...] = ()

    def __post_init__(self):
        if self.ctc_qubits < 1:
            raise ValueError("need at least one CTC qubit")
        if self.cr_qubits < 0:
            raise ValueError("negative register size")
        n = self.ctc_qubits + self.cr_qubits
        for app in self.gates:
            for w in app.wires:
                if not 0 <= w < n:
                    raise ValueError(
                        f"gate {app.gate.name}: wire {w} out of range for "
                        f"{n} wires"
                    )

    @property
    def total_qubits(self) -> int:
        return self.ctc_qubits + self.cr_qubits

    # built once per circuit; read through circuit_unitary and
    # circuit_isometry, which check the qubit cap first
    @cached_property
    def _unitary(self) -> Matrix:
        return self._columns(range(1 << self.total_qubits))

    @cached_property
    def _isometry(self) -> Matrix:
        return self._columns(range(0, 1 << self.total_qubits, 1 << self.cr_qubits))

    def _columns(self, inputs: range) -> Matrix:
        """U's columns at the given inputs, in order.  Each basis column
        starts as {j: 1} and goes through the gates as a sparse column;
        the surviving entries are written into one entry list."""
        n = self.total_qubits
        dim, width = 1 << n, len(inputs)
        columns: List[Dict[int, GaussianRational]] = [{j: ONE} for j in inputs]
        for app in self.gates:
            columns = _apply_gate(columns, n, app)
        entries = [ZERO] * (dim * width)
        for k, column in enumerate(columns):
            for i, amp in column.items():
                entries[i * width + k] = amp
        return Matrix(dim, width, entries)


Wire = Tuple[str, int]  # bank "ctc" | "cr" | "tmp", index

_ARITY = {"and": 2, "or": 2, "not": 1, "copy": 1}


@dataclass(frozen=True)
class ClassicalAssignment:
    """out <- op(inputs), executed in program order."""

    op: str
    out: Wire
    inputs: Tuple[Wire, ...]

    def __post_init__(self):
        if self.op not in _ARITY:
            raise ValueError(f"unknown classical op {self.op!r}")
        if len(self.inputs) != _ARITY[self.op]:
            raise ValueError(
                f"op {self.op} takes {_ARITY[self.op]} inputs, got {len(self.inputs)}"
            )


@dataclass(frozen=True)
class FunctionTable:
    """A total function on bit strings, stored as a dense output list."""

    bits: int
    outputs: Tuple[int, ...]

    def __post_init__(self):
        size = 1 << self.bits
        if len(self.outputs) != size:
            raise ValueError(f"table needs {size} entries, got {len(self.outputs)}")
        for v in self.outputs:
            if not 0 <= v < size:
                raise ValueError(f"table output {v} out of range")

    def apply(self, x: int) -> int:
        return self.outputs[x]


@dataclass(frozen=True)
class ClassicalCircuit:
    """Boolean program on p CTC bits and qc causality-respecting bits.

    The body is either a straight-line assignment list (temporaries start
    undefined and must be written before read), or an explicit function
    table on all p + qc bits, or both.  When both are given they must
    agree; the validator checks that.
    """

    ctc_bits: int
    cr_bits: int
    assignments: Tuple[ClassicalAssignment, ...] = ()
    table: Optional[FunctionTable] = None

    def __post_init__(self):
        if self.ctc_bits < 1:
            raise ValueError("need at least one CTC bit")
        if self.cr_bits < 0:
            raise ValueError("negative register size")
        if self.table is not None and self.table.bits != self.ctc_bits + self.cr_bits:
            raise ValueError(
                f"table is on {self.table.bits} bits, registers give "
                f"{self.ctc_bits + self.cr_bits}"
            )

    @property
    def total_bits(self) -> int:
        return self.ctc_bits + self.cr_bits


@dataclass(frozen=True)
class StochasticMatrix:
    """A column-stochastic matrix: column j is the successor distribution."""

    dim: int
    matrix: Matrix

    def __post_init__(self):
        if self.matrix.rows != self.dim or self.matrix.cols != self.dim:
            raise ValueError(
                f"expected a {self.dim}x{self.dim} matrix, got "
                f"{self.matrix.rows}x{self.matrix.cols}"
            )

    def column_defects(self) -> List[str]:
        """Human-readable stochasticity violations, empty when valid."""
        return list(self._defects)

    @cached_property
    def _defects(self) -> Tuple[str, ...]:
        out = []
        dim, entries = self.dim, self.matrix.entries
        for j in range(dim):
            total = Rational(0)
            for i, e in enumerate(entries[j::dim]):
                if e.im:
                    out.append(f"entry ({i},{j}) is not real")
                elif not e.re:
                    continue  # an exact zero is in range and adds nothing
                elif e.re < 0 or e.re > 1:
                    out.append(f"entry ({i},{j}) = {e.re} outside [0,1]")
                else:
                    total += e.re
            if total != 1:
                out.append(f"column {j} sums to {total}, not 1")
        return tuple(out)


@dataclass(frozen=True)
class StochasticCircuit:
    """Stochastic update of the CTC register plus a one-bit output rule.

    The output bit is 1 exactly when the CTC register's value matches one
    of the patterns (strings over 0, 1, and the wildcard *).
    """

    ctc_bits: int
    chain: StochasticMatrix
    output_patterns: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.ctc_bits < 1:
            raise ValueError("need at least one CTC bit")
        if self.chain.dim != 1 << self.ctc_bits:
            raise ValueError(
                f"chain dimension {self.chain.dim} does not match "
                f"{self.ctc_bits} CTC bits"
            )
        for p in self.output_patterns:
            if len(p) != self.ctc_bits or any(c not in "01*" for c in p):
                raise ValueError(f"bad output pattern {p!r}")

    def accepting_states(self) -> FrozenSet[int]:
        """Every register value whose output bit is 1.  Each pattern is
        read once as a pair of integers: the positions it fixes and the
        bits it wants there."""
        rules = [
            (int(p.replace("0", "1").replace("*", "0"), 2), int(p.replace("*", "0"), 2))
            for p in self.output_patterns
        ]
        return frozenset(
            x for x in range(1 << self.ctc_bits) if any((x & care) == want for care, want in rules)
        )


_KINDS = ("quantum", "classical", "stochastic")


@dataclass(frozen=True)
class CTCProgram:
    """A circuit of one of the three kinds plus the designated output bit.

    output_bit indexes into the causality-respecting register; it may be
    None for programs that are only used for fixed-point computation.
    """

    kind: str
    circuit: object
    output_bit: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown program kind {self.kind!r}")
        expected = {
            "quantum": QuantumCircuit,
            "classical": ClassicalCircuit,
            "stochastic": StochasticCircuit,
        }[self.kind]
        if not isinstance(self.circuit, expected):
            raise ValueError(
                f"{self.kind} program needs a {expected.__name__}, got "
                f"{type(self.circuit).__name__}"
            )
        if self.output_bit is not None:
            cap = {
                "quantum": getattr(self.circuit, "cr_qubits", 0),
                "classical": getattr(self.circuit, "cr_bits", 0),
                "stochastic": 1,
            }[self.kind]
            if not 0 <= self.output_bit < cap:
                raise ValueError(
                    f"output bit {self.output_bit} out of range for this program"
                )


# -- elaboration ---------------------------------------------------------

def circuit_unitary(circuit: QuantumCircuit) -> Matrix:
    """Exact full-space unitary of the circuit, gates applied in order.

    The result dimension is 2**(q+r); QUBIT_CAP guards against runaway
    sizes since the matrix is dense and exact.  Column j is basis state j
    pushed through the gates as a sparse column, so a gate costs work in
    proportion to the column's nonzeros, not to the dimension.  The matrix
    is built on the first call and kept on the (frozen) circuit, so later
    calls share it.  Decisions read circuit_isometry instead.
    """
    _check_qubit_cap(circuit)
    return circuit._unitary


def circuit_isometry(circuit: QuantumCircuit) -> Matrix:
    """Exact Stinespring isometry V = U (I (x) |0..0>), 2**(q+r) x 2**q:
    column x is U's column x * 2**r.  Only those columns are pushed
    through the gates; the cap and the caching are circuit_unitary's."""
    _check_qubit_cap(circuit)
    return circuit._isometry


def _check_qubit_cap(circuit: QuantumCircuit) -> None:
    n = circuit.total_qubits
    if n > QUBIT_CAP:
        raise ResourceLimitError(
            f"circuit on {n} qubits would need a 2^{n}x2^{n} exact "
            f"matrix (cap is {QUBIT_CAP} qubits)"
        )


def _apply_gate(columns, n, app: GateApplication):
    """One gate on sparse columns {basis index: amplitude}.

    The gate's input index j is read off its wires, wires[0] first.  Each
    nonzero g[i, j] adds g[i, j] * amp at the index that has i written on
    those wires and agrees with the old index elsewhere.  Exact zeros are
    dropped."""
    k = app.gate.arity
    gdim = 1 << k
    shifts = [n - 1 - w for w in app.wires]
    # place[i]: gate index i written on the gate's wires, zeros elsewhere
    place = [
        sum(((i >> (k - 1 - t)) & 1) << s for t, s in enumerate(shifts))
        for i in range(gdim)
    ]
    mask = place[-1]  # gate index 1...1 sets every gate wire
    g = app.gate.matrix.entries
    # input j, as placed on the wires -> the nonzero (output place, g[i, j])
    targets = {
        place[j]: [(place[i], g[i * gdim + j]) for i in range(gdim) if g[i * gdim + j]]
        for j in range(gdim)
    }
    out = []
    for column in columns:
        new: Dict[int, GaussianRational] = {}
        for b, amp in column.items():
            rest = b & ~mask
            for p, c in targets[b & mask]:
                t = rest | p
                new[t] = new[t] + c * amp if t in new else c * amp
        out.append({t: v for t, v in new.items() if v})
    return out


def _eval_assignments(circuit: ClassicalCircuit, x: int) -> int:
    p, qc = circuit.ctc_bits, circuit.cr_bits
    total = p + qc
    env: Dict[Wire, int] = {}
    for i in range(p):
        env[("ctc", i)] = (x >> (total - 1 - i)) & 1
    for j in range(qc):
        env[("cr", j)] = (x >> (qc - 1 - j)) & 1
    for a in circuit.assignments:
        vals = []
        for w in a.inputs:
            if w not in env:
                raise ValueError(f"wire {w[0]}[{w[1]}] read before it is written")
            vals.append(env[w])
        if a.op == "and":
            res = vals[0] & vals[1]
        elif a.op == "or":
            res = vals[0] | vals[1]
        elif a.op == "not":
            res = 1 - vals[0]
        else:  # copy
            res = vals[0]
        env[a.out] = res
    out = 0
    for i in range(p):
        out = (out << 1) | env[("ctc", i)]
    for j in range(qc):
        out = (out << 1) | env[("cr", j)]
    return out


def classical_table(circuit: ClassicalCircuit) -> Tuple[FunctionTable, FunctionTable]:
    """Elaborate to the full table and the induced CTC-only table.

    The induced table fixes the causality-respecting input bits to zero
    and projects the output onto the CTC register.  When the circuit
    carries an explicit table, that table is used directly.  Circuits on
    more than BIT_CAP bits are refused.
    """
    p, qc = circuit.ctc_bits, circuit.cr_bits
    total = p + qc
    if total > BIT_CAP:
        raise ResourceLimitError(
            f"classical circuit on {total} bits exceeds the cap of {BIT_CAP}"
        )
    if circuit.table is not None:
        full = circuit.table
    else:
        full = FunctionTable(
            total, tuple(_eval_assignments(circuit, x) for x in range(1 << total))
        )
    induced = FunctionTable(
        p, tuple(full.outputs[y << qc] >> qc for y in range(1 << p))
    )
    return full, induced
