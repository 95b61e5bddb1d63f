import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_classical_circuit, random_quantum_program, random_table
from ctcsim.circuits import (
    ClassicalAssignment,
    ClassicalCircuit,
    CTCProgram,
    StochasticCircuit,
    StochasticMatrix,
)
from ctcsim.dsl import (
    ParseError,
    parse_program,
    program_to_text,
    validate_program,
)
from ctcsim.exact.matrices import Matrix
from ctcsim.exact.scalars import Rational
from ctcsim.gallery import MACHINE_DEMOS, QUANTUM_DEMOS

GRANDFATHER = QUANTUM_DEMOS["grandfather"]


def random_stochastic_program(rng: random.Random, p: int) -> CTCProgram:
    dim = 1 << p
    cols = []
    for _ in range(dim):
        weights = [rng.randint(0, 4) for _ in range(dim)]
        if not any(weights):
            weights[rng.randrange(dim)] = 1
        s = sum(weights)
        cols.append([Rational(w, s) for w in weights])
    entries = [cols[j][i] for i in range(dim) for j in range(dim)]
    chain = StochasticMatrix(dim, Matrix(dim, dim, entries))
    patterns = tuple(
        "".join(rng.choice("01*") for _ in range(p))
        for _ in range(rng.randint(0, 2))
    )
    out = 0 if rng.random() < 0.7 else None
    return CTCProgram("stochastic", StochasticCircuit(p, chain, patterns), out)


def test_parse_grandfather():
    prog = parse_program(GRANDFATHER)
    assert prog.kind == "quantum"
    assert prog.circuit.ctc_qubits == 1
    assert prog.circuit.cr_qubits == 1
    assert len(prog.circuit.gates) == 2
    assert prog.output_bit == 0


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nquantum  # kind\nregisters ctc=1 cr=0\napply X ctc[0]\n\n"
    prog = parse_program(text)
    assert prog.circuit.ctc_qubits == 1
    assert prog.output_bit is None


def test_all_shipped_demos_parse_and_validate():
    for name, text in QUANTUM_DEMOS.items():
        prog = parse_program(text)
        report = validate_program(prog)
        assert report.ok, (name, report.violations)


@given(st.integers(0, 100_000))
def test_quantum_round_trip(seed):
    rng = random.Random(seed)
    prog = random_quantum_program(rng)
    assert parse_program(program_to_text(prog)) == prog


@given(st.integers(0, 100_000), st.integers(1, 3), st.integers(0, 2))
def test_classical_gate_round_trip(seed, p, qc):
    rng = random.Random(seed)
    circuit = random_classical_circuit(rng, p, qc)
    out = rng.randrange(qc) if qc and rng.random() < 0.5 else None
    prog = CTCProgram("classical", circuit, out)
    assert parse_program(program_to_text(prog)) == prog


@given(st.integers(0, 100_000), st.integers(1, 3))
def test_classical_table_round_trip(seed, bits):
    rng = random.Random(seed)
    table = random_table(rng, bits)
    prog = CTCProgram("classical", ClassicalCircuit(bits, 0, (), table), None)
    assert parse_program(program_to_text(prog)) == prog


@given(st.integers(0, 100_000), st.integers(1, 3))
def test_stochastic_round_trip(seed, p):
    rng = random.Random(seed)
    prog = random_stochastic_program(rng, p)
    assert parse_program(program_to_text(prog)) == prog


def expect_error(text: str, line: int, col: int = None, fragment: str = None):
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    err = exc.value
    assert err.line == line, str(err)
    if col is not None:
        assert err.col == col, str(err)
    if fragment is not None:
        assert fragment in err.reason, str(err)
    return err


def test_error_empty_program():
    expect_error("", 1, fragment="empty")
    expect_error("# only a comment\n", 1, fragment="empty")


def test_error_bad_kind():
    expect_error("thermal\nregisters ctc=1 cr=0\n", 1, 1, "program kind")


def test_error_missing_registers():
    expect_error("quantum\n", 2, fragment="registers")


def test_error_register_overflow_position():
    text = "quantum\nregisters ctc=1 cr=1\napply X ctc[3]\n"
    expect_error(text, 3, 9, "register overflow")


def test_error_unknown_gate():
    text = "quantum\nregisters ctc=1 cr=0\napply HAD ctc[0]\n"
    expect_error(text, 3, 7, "unknown gate")


def test_error_duplicate_defgate():
    text = (
        "quantum\nregisters ctc=1 cr=0\n"
        "defgate X = [0, 1; 1, 0]\n"
    )
    expect_error(text, 3, fragment="already defined")


def test_error_malformed_scalar():
    text = "quantum\nregisters ctc=1 cr=0\ndefgate G = [1, oops; 0, 1]\n"
    expect_error(text, 3, fragment="malformed scalar")


def test_error_ragged_matrix():
    text = "quantum\nregisters ctc=1 cr=0\ndefgate G = [1, 0; 1]\n"
    expect_error(text, 3, fragment="ragged")


def test_error_duplicate_table_row():
    text = (
        "classical\nregisters ctc=1 cr=0\ntable\n"
        "0 -> 1\n0 -> 0\n1 -> 0\n"
    )
    expect_error(text, 5, fragment="duplicate table row")


def test_error_missing_table_rows():
    text = "classical\nregisters ctc=2 cr=0\ntable\n00 -> 01\n"
    err = expect_error(text, 4, fragment="missing")
    assert "01" in err.reason


def test_incomplete_table_on_wide_registers_fails_fast():
    # 2^40 inputs: the gap must be found without listing them
    text = f"classical\nregisters ctc=40 cr=0\ntable\n{'0' * 40} -> {'0' * 40}\n"
    t0 = time.perf_counter()
    err = expect_error(text, 4, fragment="it has 1 of 1099511627776 rows")
    assert time.perf_counter() - t0 < 1.0
    assert f"first missing: {'0' * 39}1" in err.reason
    empty = "classical\nregisters ctc=100000000 cr=0\ntable\n"
    err = expect_error(empty, 3, fragment="it has 0 of 2^100000000 rows")
    assert "all-zeros input" in err.reason


def test_error_table_row_width():
    text = "classical\nregisters ctc=2 cr=0\ntable\n000 -> 001\n"
    expect_error(text, 4, fragment="bits on both sides")


def test_error_stochastic_needs_one_cr():
    text = "stochastic\nregisters ctc=1 cr=2\nmatrix = [1, 0; 0, 1]\n"
    expect_error(text, 2, fragment="cr=1")


def test_error_stochastic_needs_matrix():
    text = "stochastic\nregisters ctc=1 cr=1\noutput cr[0]\n"
    expect_error(text, 3, fragment="matrix")


def test_error_stochastic_matrix_dim():
    text = "stochastic\nregisters ctc=2 cr=1\nmatrix = [1, 0; 0, 1]\n"
    expect_error(text, 3, fragment="4x4")


def test_error_stochastic_matrix_dim_on_huge_register():
    text = "stochastic\nregisters ctc=100000000 cr=1\nmatrix = [1]\n"
    err = expect_error(text, 3, fragment="must be 2^100000000x2^100000000 for ctc=100000000")
    assert "got 1x1" in err.reason


def test_error_bad_output_pattern():
    text = (
        "stochastic\nregisters ctc=2 cr=1\nmatrix = "
        "[1, 0, 0, 0; 0, 1, 0, 0; 0, 0, 1, 0; 0, 0, 0, 1]\n"
        "output-rule 2*\n"
    )
    expect_error(text, 4, fragment="bad output pattern")


def test_error_unexpected_directive():
    text = "quantum\nregisters ctc=1 cr=0\nmeasure ctc[0]\n"
    expect_error(text, 3, 1, "unexpected directive")


def test_error_output_overflow():
    text = "quantum\nregisters ctc=1 cr=1\napply X ctc[0]\noutput cr[1]\n"
    expect_error(text, 4, fragment="register overflow")


def test_validate_non_unitary_defgate():
    text = "quantum\nregisters ctc=1 cr=0\ndefgate G = [1/2, 0; 0, 1]\napply G ctc[0]\n"
    report = validate_program(parse_program(text))
    assert not report.ok
    assert any("squared norm" in v for v in report.violations)


def test_validate_non_orthogonal_defgate():
    text = (
        "quantum\nregisters ctc=1 cr=0\n"
        "defgate G = [3/5, 4/5; 4/5, 3/5]\napply G ctc[0]\n"
    )
    report = validate_program(parse_program(text))
    assert not report.ok
    assert any("not orthogonal" in v for v in report.violations)


def test_validate_tmp_read_before_write():
    text = (
        "classical\nregisters ctc=1 cr=1\n"
        "and cr[0] <- ctc[0], tmp[0]\n"
    )
    report = validate_program(parse_program(text))
    assert any("before any assignment" in v for v in report.violations)


def test_validate_reports_every_out_of_range_wire():
    # the parser refuses these wires, so build the circuit directly
    circuit = ClassicalCircuit(
        1,
        1,
        (
            ClassicalAssignment("copy", ("ctc", 3), (("cr", 5),)),
            ClassicalAssignment("not", ("tmp", 0), (("ctc", 3),)),
        ),
        None,
    )
    report = validate_program(CTCProgram("classical", circuit, 0))
    assert report.violations == (
        "copy reads out-of-range wire cr[5]",
        "copy writes out-of-range wire ctc[3]",
        "not reads out-of-range wire ctc[3]",
    )


def test_validate_gates_vs_table_disagreement():
    # the body is X on the single wire; the table says identity
    text = (
        "classical\nregisters ctc=1 cr=0\n"
        "not ctc[0] <- ctc[0]\n"
        "table\n0 -> 0\n1 -> 1\n"
    )
    report = validate_program(parse_program(text))
    assert any("disagree at input 0" in v for v in report.violations)


def test_validate_gates_vs_table_agreement():
    text = (
        "classical\nregisters ctc=1 cr=0\n"
        "not ctc[0] <- ctc[0]\n"
        "table\n0 -> 1\n1 -> 0\n"
    )
    assert validate_program(parse_program(text)).ok


def test_validate_stochastic_column_sum():
    text = "stochastic\nregisters ctc=1 cr=1\nmatrix = [1/2, 0; 1/4, 1]\n"
    report = validate_program(parse_program(text))
    assert any("column-stochastic" in v for v in report.violations)


def test_machine_demo_texts_exist():
    assert set(MACHINE_DEMOS) == {"accept", "reject", "stray", "long"}
