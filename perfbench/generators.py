"""Seeded program generators for the three benchmark workloads.

Each generator turns (seed, index) into DSL text plus a small spec that
the certificates in certify.py use instead of re-parsing the text, so a
parser fault cannot hide behind its own output.  The same seed and index
always give the same program, independent of how many programs a run
asks for.

Sizes are assigned round-robin by index and only the content is random:
every program of a workload then costs about the same to decide, which
keeps a run's median steady across seeds.  The verdict target also
rotates with the index, so accept, reject and ambiguous exits all run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

# unit-hypotenuse triples for exactly unitary rotations and phases; the
# same alphabet as the test suite's random quantum programs
TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29)]
ONE_QUBIT = ["X", "Y", "Z", "S"]
TWO_QUBIT = ["CNOT", "CZ", "SWAP"]

# classical-wide: (total bits, random body length).  Elaboration costs
# about 2^bits * (7.5 + 0.5 * assignments) microseconds (2-vCPU x86 VM,
# CPython 3.11), so the narrower programs get longer bodies and both
# sizes cost about the same.  18-bit programs are left out: at two
# seconds or more each, a run would hold too few samples for its tail.
CLASSICAL_SHAPES = [(16, 28), (17, 5)]

# stochastic-chains: (CTC bits, recurrent classes, states per class).
# Exact elimination grows roughly with the cube of a class's size, so
# more classes get fewer states each and every profile costs about the
# same; the remaining states are transient.
STOCHASTIC_SHAPES = [(6, 1, 42), (6, 2, 31), (7, 3, 25), (7, 4, 22)]
SPLIT_DENOMINATORS = [2, 3, 4, 5, 6, 8]

VERDICT_TARGETS = ("accept", "reject", "mixed")


@dataclass(frozen=True)
class Generated:
    """One program: its DSL text and the generator's own description."""

    index: int
    text: str
    spec: Dict


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# -- quantum-q2 ------------------------------------------------------------

def _rotation_rows(rng: random.Random) -> List[List[Tuple[Fraction, Fraction]]]:
    """A 2x2 exactly unitary gate as rows of (re, im) pairs."""
    a, b, c = rng.choice(TRIPLES)
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    if rng.random() < 0.5:
        return [
            [(Fraction(a, c), Fraction(0)), (Fraction(-b, c), Fraction(0))],
            [(Fraction(b, c), Fraction(0)), (Fraction(a, c), Fraction(0))],
        ]
    return [[one, zero], [zero, (Fraction(a, c), Fraction(b, c))]]


def _scalar_text(re: Fraction, im: Fraction) -> str:
    if not im:
        return str(re)
    return f"{re}{'+' if im > 0 else ''}{im}i" if re else f"{im}i"


def _wire(w: int, q: int) -> str:
    return f"ctc[{w}]" if w < q else f"cr[{w - q}]"


def quantum_program(seed: int, index: int) -> Generated:
    """q = 2 looped qubits and r in {1, 2}: a 16x16 natural matrix.

    Body as in the test suite's generator (1 to 6 gates; custom rotations,
    one-qubit and two-qubit built-ins), then an X on the output qubit on
    half the programs, which turns certain rejects into accepts.
    """
    rng = _rng("quantum-q2", seed, index)
    q, r = 2, 1 + index % 2
    n = q + r
    defgates: List[Tuple[str, List]] = []
    apps: List[Tuple[str, Tuple[int, ...]]] = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.3:
            name = f"G{len(defgates)}"
            defgates.append((name, _rotation_rows(rng)))
            apps.append((name, (rng.randrange(n),)))
        elif roll < 0.7:
            apps.append((rng.choice(ONE_QUBIT), (rng.randrange(n),)))
        else:
            apps.append((rng.choice(TWO_QUBIT), tuple(rng.sample(range(n), 2))))
    out = rng.randrange(r)
    if rng.random() < 0.5:
        apps.append(("X", (q + out,)))
    lines = ["quantum", f"registers ctc={q} cr={r}"]
    for name, rows in defgates:
        body = "; ".join(", ".join(_scalar_text(*e) for e in row) for row in rows)
        lines.append(f"defgate {name} = [{body}]")
    for name, wires in apps:
        lines.append(f"apply {name} " + ", ".join(_wire(w, q) for w in wires))
    lines.append(f"output cr[{out}]")
    spec = {"q": q, "r": r, "defgates": defgates, "apps": apps, "out": out}
    return Generated(index, "\n".join(lines) + "\n", spec)


# -- classical-wide ----------------------------------------------------------

def classical_program(seed: int, index: int) -> Generated:
    """Straight-line Boolean program on 16 or 17 bits, 10 to 12 of them
    looped; temporaries are always written before they are read.

    Two closing assignments set the output bit: to a tautology (accept),
    a contradiction (reject), or a copy of a looped bit (mixed, which
    usually decides ambiguous).
    """
    rng = _rng("classical-wide", seed, index)
    total, body_len = CLASSICAL_SHAPES[index % len(CLASSICAL_SHAPES)]
    target = VERDICT_TARGETS[(index // len(CLASSICAL_SHAPES)) % len(VERDICT_TARGETS)]
    p = rng.randint(10, 12)
    qc = total - p
    wires = [("ctc", i) for i in range(p)] + [("cr", j) for j in range(qc)]
    readable = list(wires)
    assignments: List[Tuple[str, Tuple[str, int], Tuple[Tuple[str, int], ...]]] = []
    tmp_count = 0
    for _ in range(body_len):
        op = rng.choice(["and", "or", "not", "copy"])
        ins = tuple(rng.choice(readable) for _ in range(2 if op in ("and", "or") else 1))
        if rng.random() < 0.4:
            dst = ("tmp", tmp_count)
            tmp_count += 1
            readable.append(dst)
        else:
            dst = rng.choice(wires)
        assignments.append((op, dst, ins))
    out = rng.randrange(qc)
    probe = ("ctc", rng.randrange(p))
    if target == "mixed":
        assignments.append(("copy", ("cr", out), (probe,)))
    else:
        neg = ("tmp", tmp_count)
        assignments.append(("not", neg, (probe,)))
        assignments.append(("or" if target == "accept" else "and", ("cr", out), (probe, neg)))
    lines = ["classical", f"registers ctc={p} cr={qc}"]
    for op, dst, ins in assignments:
        srcs = ", ".join(f"{b}[{i}]" for b, i in ins)
        lines.append(f"{op} {dst[0]}[{dst[1]}] <- {srcs}")
    lines.append(f"output cr[{out}]")
    spec = {"p": p, "qc": qc, "assignments": assignments, "out": out}
    return Generated(index, "\n".join(lines) + "\n", spec)


# -- stochastic-chains -------------------------------------------------------

def _split(rng: random.Random, k: int) -> List[Fraction]:
    """k positive rationals summing to 1."""
    d = rng.choice(SPLIT_DENOMINATORS) * k
    cuts = sorted(rng.sample(range(1, d), k - 1))
    return [Fraction(b - a, d) for a, b in zip([0] + cuts, cuts + [d])]


def stochastic_program(seed: int, index: int) -> Generated:
    """Column-stochastic chain on 64 or 128 states given as a full literal.

    Each recurrent class is a random cycle through its states plus random
    extra edges, three successors per state.  Transient states point at
    recurrent states or at earlier transient ones, so they drain into the
    classes.  The output rule marks every recurrent state (accept), none
    (reject) or only the first class, or half of a lone class (mixed).
    """
    rng = _rng("stochastic-chains", seed, index)
    bits, nclasses, size = STOCHASTIC_SHAPES[index % len(STOCHASTIC_SHAPES)]
    target = VERDICT_TARGETS[(index // len(STOCHASTIC_SHAPES)) % len(VERDICT_TARGETS)]
    dim = 1 << bits
    order = list(range(dim))
    rng.shuffle(order)
    classes = [order[c * size:(c + 1) * size] for c in range(nclasses)]
    recurrent = order[: nclasses * size]
    transient = order[nclasses * size:]
    columns: Dict[int, Dict[int, Fraction]] = {}
    for members in classes:
        for i, j in enumerate(members):
            succ = {members[(i + 1) % size]}
            while len(succ) < 3:
                succ.add(rng.choice(members))
            columns[j] = dict(zip(sorted(succ), _split(rng, 3)))
    for t, j in enumerate(transient):
        pool = recurrent + transient[:t]
        succ = set(rng.sample(pool, 3))
        columns[j] = dict(zip(sorted(succ), _split(rng, 3)))
    if target == "accept":
        accepting = set(recurrent)
    elif target == "reject":
        accepting = set()
    elif nclasses > 1:
        accepting = set(classes[0])
    else:
        accepting = set(classes[0][::2])
    # transient states carry no stationary mass; mark a few so that the
    # rule is never empty
    accepting |= set(rng.sample(transient, 2))
    zero = "0"
    rows = []
    for i in range(dim):
        rows.append(", ".join(str(columns[j][i]) if i in columns[j] else zero for j in range(dim)))
    patterns = " ".join(format(s, f"0{bits}b") for s in sorted(accepting))
    text = (
        f"stochastic\nregisters ctc={bits} cr=1\nmatrix = [{'; '.join(rows)}]\n"
        f"output-rule {patterns}\noutput cr[0]\n"
    )
    spec = {"bits": bits, "columns": columns, "accepting": accepting, "classes": classes}
    return Generated(index, text, spec)


GENERATORS = {
    "quantum-q2": quantum_program,
    "classical-wide": classical_program,
    "stochastic-chains": stochastic_program,
}
