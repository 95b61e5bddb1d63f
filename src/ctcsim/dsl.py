"""Line-oriented text format for CTC programs.

A program file looks like:

    # self-consistency demo
    quantum
    registers ctc=1 cr=1
    apply X ctc[0]
    apply CNOT ctc[0], cr[0]
    output cr[0]

The first meaningful line names the kind (quantum, classical, stochastic),
the second declares the registers, and the rest is the body.  Comments run
from "#" to end of line; blank lines are ignored.

Bodies by kind:

    quantum     defgate NAME = [a, b; c, d]     (rows ;-separated)
                apply NAME ctc[0], cr[1]
    classical   and|or|not|copy WIRE <- WIRE(, WIRE)
                table                            (then lines "0100 -> 1101",
                                                 inputs are CTC bits then CR
                                                 bits, most significant first)
    stochastic  matrix = [a, b; c, d]            (column-stochastic)
                output-rule PATTERN...           (over 0, 1, *)

An optional final "output cr[k]" designates the observed bit.

parse_program raises ParseError with a line and column for syntax errors,
unknown gates, malformed scalars, and register overflows.  Properties that
need real computation to check (unitarity of custom gates, stochastic
column sums, reads of unwritten temporaries) are collected, not raised, by
validate_program.  program_to_text prints the canonical form; parsing its
output reproduces the program exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .circuits import (
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
    Wire,
    classical_table,
)
from .exact.matrices import Matrix
from .exact.scalars import Rational, scalar_from_text, scalar_to_text

__all__ = ["ParseError", "ValidationReport", "parse_program", "validate_program", "program_to_text"]


class ParseError(ValueError):
    """A syntax or structural error with its source position."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.reason = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of semantic validation; ok is True when nothing is wrong."""

    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_WIRE_RE = re.compile(r"^(ctc|cr|tmp)\[(\d+)\]$")
_REGISTERS_RE = re.compile(r"^registers\s+ctc=(\d+)\s+cr=(\d+)$")
_TABLE_ROW_RE = re.compile(r"^([01]+)\s*->\s*([01]+)$")


def _col(line_text: str, token: str) -> int:
    pos = line_text.find(token)
    return pos + 1 if pos >= 0 else 1


class _Reader:
    def __init__(self, text: str):
        self.items: List[Tuple[int, str, str]] = []
        for no, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                self.items.append((no, stripped, raw))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self):
        item = self.peek()
        if item is not None:
            self.pos += 1
        return item

    def __iter__(self):
        """The remaining lines, each taken by next, so a loop body may peek
        and take lines too."""
        return iter(self.next, None)


def _parse_matrix_literal(body: str, line: int, raw: str) -> Matrix:
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ParseError("matrix literal must be enclosed in [ ]", line, _col(raw, body[:1] or "["))
    inner = body[1:-1].strip()
    if not inner:
        raise ParseError("empty matrix literal", line, _col(raw, "["))
    rows = []
    for row_text in inner.split(";"):
        row = []
        for cell in row_text.split(","):
            cell = cell.strip()
            try:
                row.append(scalar_from_text(cell))
            except ValueError:
                raise ParseError(
                    f"malformed scalar literal {cell!r}", line, _col(raw, cell)
                ) from None
        rows.append(row)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("ragged matrix rows", line, _col(raw, "["))
    return Matrix.from_rows(rows)


def _parse_wire(token: str, line: int, raw: str, banks: Tuple[str, ...]) -> Wire:
    m = _WIRE_RE.match(token)
    if not m or m.group(1) not in banks:
        raise ParseError(
            f"expected a wire like {banks[0]}[0], got {token!r}", line, _col(raw, token)
        )
    return (m.group(1), int(m.group(2)))


def _pow2_text(p: int) -> str:
    """2^p in decimal while that is short, else as the power itself."""
    return str(1 << p) if p < 64 else f"2^{p}"


def _check_wire_bounds(w: Wire, q: int, r: int, line: int, raw: str, token: str):
    bank, idx = w
    limit = {"ctc": q, "cr": r}.get(bank)
    if limit is not None and idx >= limit:
        raise ParseError(
            f"register overflow: {bank}[{idx}] but {bank} has {limit} wires",
            line,
            _col(raw, token),
        )


def parse_program(text: str) -> CTCProgram:
    """Parse a program file into its intermediate representation."""
    rd = _Reader(text)
    first = rd.next()
    if first is None:
        raise ParseError("empty program", 1)
    line, kind, raw = first
    if kind not in ("quantum", "classical", "stochastic"):
        raise ParseError(
            f"expected program kind (quantum, classical, or stochastic), got {kind!r}",
            line,
            _col(raw, kind),
        )
    regs = rd.next()
    if regs is None:
        raise ParseError("missing registers line", line + 1)
    rline, rtext, rraw = regs
    m = _REGISTERS_RE.match(rtext)
    if not m:
        raise ParseError("expected: registers ctc=<int> cr=<int>", rline, _col(rraw, rtext))
    q, r = int(m.group(1)), int(m.group(2))
    if q < 1:
        raise ParseError("ctc register must have at least one wire", rline, _col(rraw, "ctc="))
    if kind == "stochastic" and r != 1:
        raise ParseError(
            "stochastic programs use exactly one causality-respecting output bit (cr=1)",
            rline,
            _col(rraw, "cr="),
        )
    if kind == "quantum":
        return _parse_quantum(rd, q, r)
    if kind == "classical":
        return _parse_classical(rd, q, r)
    return _parse_stochastic(rd, q)


def _parse_output(rest: str, line: int, raw: str, r: int, output_bit: Optional[int]) -> int:
    """The cr index an output line names; output_bit is an earlier one's."""
    if output_bit is not None:
        raise ParseError("output is already defined", line, _col(raw, "output"))
    token = rest.strip()
    w = _parse_wire(token, line, raw, ("cr",))
    _check_wire_bounds(w, 0, r, line, raw, token)  # a cr wire: the ctc size is not read
    return w[1]


def _split_keyword(text: str) -> Tuple[str, str]:
    parts = text.split(None, 1)
    return parts[0], parts[1] if len(parts) > 1 else ""


def _parse_quantum(rd: _Reader, q: int, r: int) -> CTCProgram:
    defgates: Dict[str, QuantumGate] = {}
    order: List[QuantumGate] = []
    apps: List[GateApplication] = []
    output_bit: Optional[int] = None
    for line, text, raw in rd:
        key, rest = _split_keyword(text)
        if key == "defgate":
            m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$", rest)
            if not m:
                raise ParseError("expected: defgate NAME = [..]", line, _col(raw, rest or key))
            name = m.group(1)
            if name in BUILTIN_GATES or name in defgates:
                raise ParseError(f"gate {name!r} is already defined", line, _col(raw, name))
            mat = _parse_matrix_literal(m.group(2), line, raw)
            try:
                gate = QuantumGate(name, mat)
            except ValueError as exc:
                raise ParseError(str(exc), line, _col(raw, "[")) from None
            defgates[name] = gate
            order.append(gate)
        elif key == "apply":
            parts = rest.split(None, 1)
            if len(parts) != 2:
                raise ParseError("expected: apply NAME wire(, wire)*", line, _col(raw, rest or key))
            name, wire_text = parts
            gate = defgates.get(name) or BUILTIN_GATES.get(name)
            if gate is None:
                raise ParseError(f"unknown gate {name!r}", line, _col(raw, name))
            wires = []
            for token in wire_text.split(","):
                token = token.strip()
                w = _parse_wire(token, line, raw, ("ctc", "cr"))
                _check_wire_bounds(w, q, r, line, raw, token)
                wires.append(w[1] if w[0] == "ctc" else q + w[1])
            try:
                apps.append(GateApplication(gate, tuple(wires)))
            except ValueError as exc:
                raise ParseError(str(exc), line, _col(raw, name)) from None
        elif key == "output":
            output_bit = _parse_output(rest, line, raw, r, output_bit)
        else:
            raise ParseError(f"unexpected directive {key!r}", line, _col(raw, key))
    circuit = QuantumCircuit(q, r, tuple(order), tuple(apps))
    return CTCProgram("quantum", circuit, output_bit)


def _parse_classical(rd: _Reader, p: int, qc: int) -> CTCProgram:
    assignments: List[ClassicalAssignment] = []
    table_rows: Dict[int, int] = {}
    table_seen = False
    output_bit: Optional[int] = None
    total = p + qc
    for line, text, raw in rd:
        key, rest = _split_keyword(text)
        if key in ("and", "or", "not", "copy"):
            m = re.match(r"^(.+?)<-(.+)$", rest)
            if not m:
                raise ParseError(f"expected: {key} WIRE <- WIRE", line, _col(raw, rest or key))
            out_tok = m.group(1).strip()
            out = _parse_wire(out_tok, line, raw, ("ctc", "cr", "tmp"))
            _check_wire_bounds(out, p, qc, line, raw, out_tok)
            ins = []
            for token in m.group(2).split(","):
                token = token.strip()
                w = _parse_wire(token, line, raw, ("ctc", "cr", "tmp"))
                _check_wire_bounds(w, p, qc, line, raw, token)
                ins.append(w)
            try:
                assignments.append(ClassicalAssignment(key, out, tuple(ins)))
            except ValueError as exc:
                raise ParseError(str(exc), line, _col(raw, key)) from None
        elif key == "table" and not rest:
            table_seen = True
            while True:
                nxt = rd.peek()
                if nxt is None:
                    break
                tline, ttext, traw = nxt
                m = _TABLE_ROW_RE.match(ttext)
                if not m:
                    break
                rd.next()
                src, dst = m.group(1), m.group(2)
                if len(src) != total or len(dst) != total:
                    raise ParseError(
                        f"table rows must have {total} bits on both sides",
                        tline,
                        _col(traw, ttext),
                    )
                x = int(src, 2)
                if x in table_rows:
                    raise ParseError(f"duplicate table row for input {src}", tline, _col(traw, src))
                table_rows[x] = int(dst, 2)
        elif key == "output":
            output_bit = _parse_output(rest, line, raw, qc, output_bit)
        else:
            raise ParseError(f"unexpected directive {key!r}", line, _col(raw, key))
    table: Optional[FunctionTable] = None
    if table_seen:
        # the rows are distinct inputs below 2^total, so fewer than 2^total
        # of them leaves a gap among the first len(table_rows) + 1 inputs
        have = len(table_rows)
        if have.bit_length() <= total:
            first = next(x for x in range(have + 1) if x not in table_rows)
            # each row spells total bits, so only an empty table may have
            # a width too large to print
            shown = format(first, f"0{total}b") if have else "the all-zeros input"
            raise ParseError(
                f"table is missing inputs: it has {have} of {_pow2_text(total)} rows "
                f"(first missing: {shown})",
                rd.items[-1][0] if rd.items else 1,
            )
        table = FunctionTable(total, tuple(table_rows[x] for x in range(1 << total)))
    circuit = ClassicalCircuit(p, qc, tuple(assignments), table)
    return CTCProgram("classical", circuit, output_bit)


def _parse_stochastic(rd: _Reader, p: int) -> CTCProgram:
    matrix: Optional[Matrix] = None
    patterns: List[str] = []
    output_bit: Optional[int] = None
    for line, text, raw in rd:
        key, rest = _split_keyword(text)
        if key == "matrix":
            m = re.match(r"^=\s*(.+)$", rest)
            if not m:
                raise ParseError("expected: matrix = [..]", line, _col(raw, rest or key))
            if matrix is not None:
                raise ParseError("matrix is already defined", line, _col(raw, key))
            matrix = _parse_matrix_literal(m.group(1), line, raw)
            rows = matrix.rows
            # rows == 2^p, without building 2^p for a huge declared p
            if rows != matrix.cols or rows.bit_length() != p + 1 or rows & (rows - 1):
                raise ParseError(
                    f"matrix must be {_pow2_text(p)}x{_pow2_text(p)} for ctc={p}, got "
                    f"{matrix.rows}x{matrix.cols}",
                    line,
                    _col(raw, "["),
                )
        elif key == "output-rule":
            if not rest:
                raise ParseError("output-rule needs at least one pattern", line, _col(raw, key))
            for token in rest.split():
                if len(token) != p or any(c not in "01*" for c in token):
                    raise ParseError(
                        f"bad output pattern {token!r} (need {p} chars over 0, 1, *)",
                        line,
                        _col(raw, token),
                    )
                patterns.append(token)
        elif key == "output":
            output_bit = _parse_output(rest, line, raw, 1, output_bit)
        else:
            raise ParseError(f"unexpected directive {key!r}", line, _col(raw, key))
    if matrix is None:
        raise ParseError("stochastic program needs a matrix", rd.items[-1][0] if rd.items else 2)
    circuit = StochasticCircuit(p, StochasticMatrix(1 << p, matrix), tuple(patterns))
    return CTCProgram("stochastic", circuit, output_bit)


# -- validation ----------------------------------------------------------

def validate_program(program: CTCProgram) -> ValidationReport:
    """Check the semantic well-formedness conditions of a parsed program.

    Returns a report listing every violation found rather than stopping at
    the first, so a file can be fixed in one pass.
    """
    violations: List[str] = []
    if program.kind == "quantum":
        _validate_quantum(program.circuit, violations)
    elif program.kind == "classical":
        _validate_classical(program.circuit, violations)
    else:
        _validate_stochastic(program.circuit, violations)
    return ValidationReport(tuple(violations))


def _validate_quantum(circuit: QuantumCircuit, violations: List[str]):
    for gate in circuit.defgates:
        gm = gate.matrix
        prod = gm.dagger() @ gm
        if not prod.is_identity():
            detail = None
            for i in range(gm.rows):
                norm = sum((gm.entry(i, j).abs2() for j in range(gm.cols)), Rational(0))
                if norm != 1:
                    detail = f"row {i} has squared norm {norm}"
                    break
            if detail is None:
                detail = "rows are not orthogonal"
            violations.append(f"defgate {gate.name} is not unitary ({detail})")


def _validate_classical(circuit: ClassicalCircuit, violations: List[str]):
    # ctc and cr wires are checked against their register sizes; only tmp
    # wires need a record of which ones an assignment has written
    size = {"ctc": circuit.ctc_bits, "cr": circuit.cr_bits}
    written_tmp = set()
    for a in circuit.assignments:
        for bank, idx in a.inputs:
            if bank == "tmp":
                if idx not in written_tmp:
                    violations.append(
                        f"{a.op} reads tmp[{idx}] before any assignment writes it"
                    )
            elif not 0 <= idx < size[bank]:
                violations.append(f"{a.op} reads out-of-range wire {bank}[{idx}]")
        bank, idx = a.out
        if bank == "tmp":
            written_tmp.add(idx)
        elif not 0 <= idx < size[bank]:
            violations.append(f"{a.op} writes out-of-range wire {bank}[{idx}]")
    if circuit.table is not None and circuit.assignments:
        elaborated = ClassicalCircuit(
            circuit.ctc_bits, circuit.cr_bits, circuit.assignments, None
        )
        full, _ = classical_table(elaborated)
        if full != circuit.table:
            diff = next(
                x for x in range(1 << circuit.total_bits)
                if full.outputs[x] != circuit.table.outputs[x]
            )
            violations.append(
                f"gate body and explicit table disagree at input "
                f"{format(diff, f'0{circuit.total_bits}b')}"
            )


def _validate_stochastic(circuit: StochasticCircuit, violations: List[str]):
    for defect in circuit.chain.column_defects():
        violations.append(f"matrix is not column-stochastic: {defect}")


# -- printing ------------------------------------------------------------

def _matrix_literal(m: Matrix) -> str:
    return "[" + "; ".join(
        ", ".join(scalar_to_text(e) for e in row) for row in m.to_rows()
    ) + "]"


def _wire_text(w: int, q: int) -> str:
    return f"ctc[{w}]" if w < q else f"cr[{w - q}]"


def program_to_text(program: CTCProgram) -> str:
    """Canonical text form; parse_program inverts this exactly."""
    out: List[str] = [program.kind]
    if program.kind == "quantum":
        c = program.circuit
        out.append(f"registers ctc={c.ctc_qubits} cr={c.cr_qubits}")
        for gate in c.defgates:
            out.append(f"defgate {gate.name} = {_matrix_literal(gate.matrix)}")
        for app in c.gates:
            wires = ", ".join(_wire_text(w, c.ctc_qubits) for w in app.wires)
            out.append(f"apply {app.gate.name} {wires}")
    elif program.kind == "classical":
        c = program.circuit
        out.append(f"registers ctc={c.ctc_bits} cr={c.cr_bits}")
        for a in c.assignments:
            ins = ", ".join(f"{b}[{i}]" for b, i in a.inputs)
            out.append(f"{a.op} {a.out[0]}[{a.out[1]}] <- {ins}")
        if c.table is not None:
            out.append("table")
            width = c.total_bits
            for x, y in enumerate(c.table.outputs):
                out.append(f"{format(x, f'0{width}b')} -> {format(y, f'0{width}b')}")
    else:
        c = program.circuit
        out.append(f"registers ctc={c.ctc_bits} cr=1")
        out.append(f"matrix = {_matrix_literal(c.chain.matrix)}")
        if c.output_patterns:
            out.append("output-rule " + " ".join(c.output_patterns))
    if program.output_bit is not None:
        out.append(f"output cr[{program.output_bit}]")
    return "\n".join(out) + "\n"
