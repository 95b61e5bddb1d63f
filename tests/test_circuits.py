import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    TRIPLES,
    embedded_unitary,
    eval_classical_input,
    kron,
    output_bit_of,
    random_classical_circuit,
    random_quantum_program,
)
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
    circuit_isometry,
    circuit_unitary,
    classical_table,
)
from ctcsim.errors import ResourceLimitError
from ctcsim.exact.matrices import Matrix
from ctcsim.exact.scalars import GaussianRational, Rational


def test_builtin_gates_are_unitary():
    for name, gate in BUILTIN_GATES.items():
        assert (gate.matrix.dagger() @ gate.matrix).is_identity(), name
        assert gate.arity in (1, 2, 3)


def test_gate_arity():
    assert BUILTIN_GATES["X"].arity == 1
    assert BUILTIN_GATES["CNOT"].arity == 2
    assert BUILTIN_GATES["TOFFOLI"].arity == 3


def test_gate_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        QuantumGate("bad", Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


@given(st.integers(0, 10_000))
def test_circuit_unitary_is_unitary(seed):
    rng = random.Random(seed)
    prog = random_quantum_program(rng)
    u = circuit_unitary(prog.circuit)
    assert (u.dagger() @ u).is_identity()


@given(st.integers(0, 10_000))
def test_reversed_adjoint_circuit_inverts(seed):
    """Applying a circuit then its gate-by-gate adjoint in reverse
    order gives the identity."""
    rng = random.Random(seed)
    prog = random_quantum_program(rng)
    circuit = prog.circuit
    inverse_apps = []
    adjoints = {}
    for app in reversed(circuit.gates):
        g = app.gate
        if g.name not in adjoints:
            adjoints[g.name] = QuantumGate(f"{g.name}_adj", g.matrix.dagger())
        inverse_apps.append(GateApplication(adjoints[g.name], app.wires))
    doubled = QuantumCircuit(
        circuit.ctc_qubits,
        circuit.cr_qubits,
        circuit.defgates + tuple(adjoints.values()),
        circuit.gates + tuple(inverse_apps),
    )
    n = circuit.total_qubits
    assert circuit_unitary(doubled) == Matrix.identity(1 << n)


def _rotation(rng: random.Random) -> Matrix:
    a, b, c = rng.choice(TRIPLES)
    return Matrix.from_rows([[Rational(a, c), Rational(-b, c)], [Rational(b, c), Rational(a, c)]])


def _dense_two_qubit_gate(rng: random.Random, name: str) -> QuantumGate:
    """(R1 x R2) CNOT (R3 x R4) for random rational rotations: a custom
    gate whose entries are mostly nonzero, unlike every builtin."""
    cnot = BUILTIN_GATES["CNOT"].matrix
    m = kron(_rotation(rng), _rotation(rng)) @ cnot @ kron(_rotation(rng), _rotation(rng))
    return QuantumGate(name, m)


@given(st.integers(0, 10_000))
def test_circuit_unitary_matches_embedded_gate_product(seed):
    """Sparse-column elaboration against full-space gate matrices
    multiplied in order, on up to 4 wires with every builtin (TOFFOLI
    included once there are 3 wires), dense custom 2-qubit gates and
    gate wires listed in shuffled order."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    q = rng.randint(1, n)
    defgates = []
    apps = []
    names = [name for name, g in BUILTIN_GATES.items() if g.arity <= n]
    for _ in range(rng.randint(1, 8)):
        if n >= 2 and rng.random() < 0.3:
            gate = _dense_two_qubit_gate(rng, f"D{len(defgates)}")
            defgates.append(gate)
        else:
            gate = BUILTIN_GATES[rng.choice(names)]
        apps.append(GateApplication(gate, tuple(rng.sample(range(n), gate.arity))))
    circuit = QuantumCircuit(q, n - q, tuple(defgates), tuple(apps))
    assert circuit_unitary(circuit) == embedded_unitary(circuit)


def test_gate_wire_out_of_range_is_refused():
    with pytest.raises(ValueError, match="out of range"):
        QuantumCircuit(1, 1, (), (GateApplication(BUILTIN_GATES["X"], (2,)),))


def test_single_gate_embedding_on_named_wires():
    # X on the cr wire of a 1+1 circuit: flips the low-order bit
    circuit = QuantumCircuit(
        1, 1, (), (GateApplication(BUILTIN_GATES["X"], (1,)),)
    )
    u = circuit_unitary(circuit)
    one = GaussianRational(1)
    for col in range(4):
        row = col ^ 1
        assert u.entry(row, col) == one


def test_cnot_wire_order_matters():
    fwd = QuantumCircuit(2, 0, (), (GateApplication(BUILTIN_GATES["CNOT"], (0, 1)),))
    rev = QuantumCircuit(2, 0, (), (GateApplication(BUILTIN_GATES["CNOT"], (1, 0)),))
    uf = circuit_unitary(fwd)
    ur = circuit_unitary(rev)
    assert uf != ur
    # control on wire 0: basis state |10> maps to |11>
    assert uf.entry(0b11, 0b10) == GaussianRational(1)
    # control on wire 1: basis state |01> maps to |11>
    assert ur.entry(0b11, 0b01) == GaussianRational(1)


def test_unitary_qubit_cap():
    circuit = QuantumCircuit(5, 4, (), ())
    for build in (circuit_unitary, circuit_isometry):
        with pytest.raises(
            ResourceLimitError, match=r"would need a 2\^9x2\^9 exact matrix \(cap is 8 qubits\)"
        ):
            build(circuit)
    # the cap is checked before any matrix is built
    assert "_unitary" not in circuit.__dict__
    assert "_isometry" not in circuit.__dict__


def test_unitary_is_built_once_per_circuit(monkeypatch):
    prog = random_quantum_program(random.Random(7), q=2, r=1)
    u = circuit_unitary(prog.circuit)
    assert circuit_unitary(prog.circuit) is u
    # the cap is read at each call, so a built matrix is still refused
    monkeypatch.setattr("ctcsim.circuits.QUBIT_CAP", 2)
    with pytest.raises(ResourceLimitError, match="cap is 2 qubits"):
        circuit_unitary(prog.circuit)


@given(st.integers(0, 10_000), st.integers(1, 2), st.integers(0, 2))
def test_isometry_is_the_zero_ancilla_columns_of_the_unitary(seed, q, r):
    """Column x of V is column x * 2^r of the full-space gate product,
    so V^dagger V = I, and the full unitary is not built on the way."""
    circuit = random_quantum_program(random.Random(seed), q=q, r=r).circuit
    v = circuit_isometry(circuit)
    assert circuit_isometry(circuit) is v
    assert "_unitary" not in circuit.__dict__
    u = embedded_unitary(circuit)
    dim, n = 1 << (q + r), 1 << q
    assert (v.rows, v.cols) == (dim, n)
    assert all(v.entry(i, x) == u.entry(i, x << r) for i in range(dim) for x in range(n))
    assert (v.dagger() @ v).is_identity()


@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(0, 2))
def test_classical_table_matches_per_input_oracle(seed, p, qc):
    rng = random.Random(seed)
    circuit = random_classical_circuit(rng, p, qc)
    full, induced = classical_table(circuit)
    for x in range(1 << (p + qc)):
        assert full.apply(x) == eval_classical_input(circuit, x)
    # induced table: extra wires pinned to zero, then projected away
    for y in range(1 << p):
        whole = eval_classical_input(circuit, y << qc)
        assert induced.apply(y) == whole >> qc


def test_classical_table_bit_cap():
    circuit = ClassicalCircuit(15, 10, (), None)
    with pytest.raises(ResourceLimitError):
        classical_table(circuit)


def test_table_mode_passthrough():
    table = FunctionTable(2, (1, 2, 3, 0))
    circuit = ClassicalCircuit(2, 0, (), table)
    full, induced = classical_table(circuit)
    assert full is table
    assert induced.outputs == table.outputs


def test_function_table_validation():
    with pytest.raises(ValueError):
        FunctionTable(1, (0, 2))
    with pytest.raises(ValueError):
        FunctionTable(1, (0,))


def test_stochastic_matrix_column_defects():
    half = Rational(1, 2)
    good = StochasticMatrix(2, Matrix.from_rows([[half, 1], [half, 0]]))
    assert good.column_defects() == []
    short = StochasticMatrix(2, Matrix.from_rows([[half, 1], [half, half]]))
    assert any("column 1" in d for d in short.column_defects())


def test_stochastic_matrix_defects_are_computed_once():
    m = StochasticMatrix(2, Matrix.from_rows([[2, 0], [-1, 1]]))
    first = m.column_defects()
    assert "_defects" in m.__dict__
    first.clear()  # each caller gets its own list, never the cached tuple
    assert m.column_defects() == list(m.__dict__["_defects"]) != []


def test_stochastic_matrix_flags_negative():
    m = StochasticMatrix(2, Matrix.from_rows([[2, 0], [-1, 1]]))
    defects = m.column_defects()
    assert any("outside [0,1]" in d for d in defects)


def test_stochastic_matrix_flags_complex():
    i = GaussianRational(0, 1)
    one_minus_i = GaussianRational(1, -1)
    m = StochasticMatrix(2, Matrix.from_rows([[i, 0], [one_minus_i, 1]]))
    assert any("not real" in d for d in m.column_defects())


def test_stochastic_matrix_shape_check():
    with pytest.raises(ValueError):
        StochasticMatrix(2, Matrix.identity(3))


def test_stochastic_circuit_output_patterns():
    m = StochasticMatrix(4, Matrix.identity(4))
    circ = StochasticCircuit(2, m, ("1*",))
    assert output_bit_of(circ, 0b10) == 1
    assert output_bit_of(circ, 0b01) == 0
    assert circ.accepting_states() == {0b10, 0b11}


@given(
    st.integers(1, 7).flatmap(
        lambda bits: st.tuples(
            st.just(bits),
            st.lists(st.text(alphabet="01*", min_size=bits, max_size=bits), max_size=4),
        )
    )
)
def test_accepting_states_match_output_bit(case):
    bits, patterns = case
    size = 1 << bits
    circ = StochasticCircuit(bits, StochasticMatrix(size, Matrix.identity(size)), tuple(patterns))
    expected = {x for x in range(size) if output_bit_of(circ, x)}
    assert circ.accepting_states() == expected


def test_program_kind_checks():
    table = FunctionTable(1, (0, 1))
    circuit = ClassicalCircuit(1, 0, (), table)
    with pytest.raises(ValueError):
        CTCProgram("quantum", circuit, None)
