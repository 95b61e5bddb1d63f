"""Shipped demo programs, as text in the program format.

These are small enough (CTC dimension at most 4) that every exact result
can be cross-checked numerically in tests, and they cover the channel
shapes the package cares about: a self-contradicting loop, decoherence,
state forcing, a rotation with no nontrivial fixed point, and a
two-qubit entangling loop.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["QUANTUM_DEMOS", "MACHINE_DEMOS", "demo_source", "machine_source"]

QUANTUM_DEMOS: Dict[str, str] = {
    # flip the looped qubit, then read it: no classical assignment works,
    # and the consistent state is the even mixture
    "grandfather": """quantum
registers ctc=1 cr=1
apply X ctc[0]
apply CNOT ctc[0], cr[0]
output cr[0]
""",
    # copying the looped qubit onto the ancilla kills its coherences
    "dephase": """quantum
registers ctc=1 cr=1
apply CNOT ctc[0], cr[0]
output cr[0]
""",
    # swap with a fresh |0>: every input is replaced by |0><0|
    "reset": """quantum
registers ctc=1 cr=1
apply SWAP ctc[0], cr[0]
output cr[0]
""",
    # reset the loop to |1> and copy it out: accepts with certainty
    "force-one": """quantum
registers ctc=1 cr=2
apply SWAP ctc[0], cr[0]
apply X ctc[0]
apply CNOT ctc[0], cr[1]
output cr[1]
""",
    # a 3-4-5 rotation: no ancilla; every real-entried seed projects to
    # the even mixture (the two complex eigenprojectors are fixed too)
    "rotation": """quantum
registers ctc=1 cr=0
defgate R = [3/5, -4/5; 4/5, 3/5]
apply R ctc[0]
""",
    # two looped qubits entangled through a rotation, one bit read out
    "entangler": """quantum
registers ctc=2 cr=1
defgate R = [3/5, -4/5; 4/5, 3/5]
apply R ctc[0]
apply CNOT ctc[0], ctc[1]
apply CNOT ctc[1], cr[0]
output cr[0]
""",
}


MACHINE_DEMOS: Dict[str, str] = {
    # three-step run ending in acceptance
    "accept": """start m1
config m1 -> m2
config m2 -> m3
accept m3
""",
    # the same run ending in rejection
    "reject": """start m1
config m1 -> m2
config m2 -> m3
reject m3
""",
    # extra configurations off the run; they drain back into the loop
    "stray": """start m1
config m1 -> m2
accept m2
config s1 -> m1
config s2 -> s1
config s3 -> m2
""",
    # an eight-step accepting run
    "long": """start c0
config c0 -> c1
config c1 -> c2
config c2 -> c3
config c3 -> c4
config c4 -> c5
config c5 -> c6
config c6 -> c7
accept c7
""",
}


def _lookup(table: Dict[str, str], kind: str, name: str) -> str:
    if name not in table:
        raise ValueError(f"unknown {kind} {name!r}; available: {', '.join(sorted(table))}")
    return table[name]


def demo_source(name: str) -> str:
    """Program text for a named quantum demo; ValueError for an unknown name."""
    return _lookup(QUANTUM_DEMOS, "demo", name)


def machine_source(name: str) -> str:
    """Machine text for a named machine demo; ValueError for an unknown name."""
    return _lookup(MACHINE_DEMOS, "machine", name)
