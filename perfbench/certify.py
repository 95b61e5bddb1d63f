"""Exact certificates for decide outputs, checked outside the timed region.

Each check reads the CLI's JSON data and the generator's spec, never the
parsed program, and returns None when the output is certified or a short
reason when it is not.

  quantum     the witness is a density matrix (Hermitian, trace 1, PSD),
              Phi(rho) == rho exactly, the reported exact acceptance
              probability is the one at the witness, and the verdict
              agrees with it against 2/3 and 1/3.
  classical   the witness is exactly invariant under the induced table,
              recomputed here by a separate evaluator over the 2^p looped
              inputs; acceptance probability and verdict are recomputed
              from the cycles of that table.
  stochastic  P pi == pi exactly, pi >= 0 and sum(pi) == 1; acceptance
              probability is the mass on accepting states, and the
              verdict agrees with it against 2/3 and 1/3.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional

from ctcsim.circuits import BUILTIN_GATES, CTCProgram, GateApplication, QuantumCircuit, QuantumGate
from ctcsim.exact.matrices import Matrix
from ctcsim.exact.scalars import GaussianRational, rational_from_text, scalar_from_text
from ctcsim.fixpoint import verify_fixed_point
from ctcsim.semantics import accept_probability
from ctcsim.superop import DensityMatrix, program_to_natural

ACCEPT = Fraction(2, 3)
REJECT = Fraction(1, 3)


def _threshold_reason(verdict: str, p_acc) -> Optional[str]:
    if verdict == "accept" and p_acc < ACCEPT:
        return f"accept with exact acceptance probability {p_acc} < 2/3"
    if verdict == "reject" and p_acc > REJECT:
        return f"reject with exact acceptance probability {p_acc} > 1/3"
    return None


def quantum_program_from_spec(spec: Dict) -> CTCProgram:
    gates = {
        name: QuantumGate(
            name, Matrix.from_rows([[GaussianRational(re, im) for re, im in row] for row in rows])
        )
        for name, rows in spec["defgates"]
    }
    apps = tuple(
        GateApplication(gates.get(name) or BUILTIN_GATES[name], wires)
        for name, wires in spec["apps"]
    )
    circuit = QuantumCircuit(spec["q"], spec["r"], tuple(gates.values()), apps)
    return CTCProgram("quantum", circuit, spec["out"])


def check_quantum(spec: Dict, data: Dict) -> Optional[str]:
    n = 1 << spec["q"]
    rows = data["witness"]["state"]
    try:
        rho = DensityMatrix(n, Matrix.from_rows([[scalar_from_text(e) for e in row] for row in rows]))
    except ValueError as exc:
        return f"witness is not a density matrix: {exc}"
    program = quantum_program_from_spec(spec)
    if not verify_fixed_point(program_to_natural(program), rho):
        return "witness is not a fixed point of the channel"
    p_acc = rational_from_text(data["exact_accept_probability"])
    if accept_probability(program, rho) != p_acc:
        return "reported acceptance probability is not the one at the witness"
    return _threshold_reason(data["verdict"], p_acc)


def _eval_looped(spec: Dict, y: int) -> int:
    """Final register of the straight-line program on looped bits y and
    causality-respecting bits 0, packed CTC bits first."""
    p, qc = spec["p"], spec["qc"]
    env = {("ctc", i): (y >> (p - 1 - i)) & 1 for i in range(p)}
    env.update({("cr", j): 0 for j in range(qc)})
    for op, dst, ins in spec["assignments"]:
        a = env[ins[0]]
        if op == "and":
            a &= env[ins[1]]
        elif op == "or":
            a |= env[ins[1]]
        elif op == "not":
            a = 1 - a
        env[dst] = a
    word = 0
    for i in range(p):
        word = (word << 1) | env[("ctc", i)]
    for j in range(qc):
        word = (word << 1) | env[("cr", j)]
    return word


def _cycles(succ: List[int]) -> List[List[int]]:
    seen = [0] * len(succ)  # 0 unseen, 1 on the current walk, 2 done
    cycles = []
    for start in range(len(succ)):
        walk, y = [], start
        while not seen[y]:
            seen[y] = 1
            walk.append(y)
            y = succ[y]
        if seen[y] == 1:
            cycles.append(walk[walk.index(y):])
        for v in walk:
            seen[v] = 2
    return cycles


def check_classical(spec: Dict, data: Dict) -> Optional[str]:
    p, qc = spec["p"], spec["qc"]
    words = [_eval_looped(spec, y) for y in range(1 << p)]
    succ = [w >> qc for w in words]
    out = [(w >> (qc - 1 - spec["out"])) & 1 for w in words]
    probs = [rational_from_text(t) for t in data["witness"]["probabilities"]]
    if len(probs) != 1 << p or any(x < 0 for x in probs) or sum(probs) != 1:
        return "witness is not a probability distribution on the looped bits"
    pushed = [Fraction(0)] * (1 << p)
    for y, mass in enumerate(probs):
        pushed[succ[y]] += mass
    if pushed != probs:
        return "witness is not invariant under the induced table"
    p_acc = sum((m for y, m in enumerate(probs) if out[y]), Fraction(0))
    if rational_from_text(data["exact_accept_probability"]) != p_acc:
        return "reported acceptance probability is not the one at the witness"
    shares = {Fraction(sum(out[y] for y in c), len(c)) for c in _cycles(succ)}
    expected = "accept" if shares == {1} else "reject" if shares == {0} else "ambiguous"
    if data["verdict"] != expected or data["certified"] is not True:
        return f"verdict {data['verdict']} but the cycles give certified {expected}"
    return None


def check_stochastic(spec: Dict, data: Dict) -> Optional[str]:
    dim = 1 << spec["bits"]
    pi = [rational_from_text(t) for t in data["witness"]["probabilities"]]
    if len(pi) != dim or any(x < 0 for x in pi) or sum(pi) != 1:
        return "witness is not a probability distribution"
    image = [Fraction(0)] * dim
    for j, column in spec["columns"].items():
        if pi[j]:
            for i, pij in column.items():
                image[i] += pij * pi[j]
    if image != pi:
        return "witness is not stationary: P pi != pi"
    p_acc = sum((pi[s] for s in spec["accepting"]), Fraction(0))
    if rational_from_text(data["exact_accept_probability"]) != p_acc:
        return "reported acceptance probability is not the mass on accepting states"
    return _threshold_reason(data["verdict"], p_acc)


CHECKS = {
    "quantum-q2": check_quantum,
    "classical-wide": check_classical,
    "stochastic-chains": check_stochastic,
}
