#!/usr/bin/env python3
"""Walk every shipped demo and print one verdict line each.

Covers the quantum gallery, the machine-to-loop reduction, the search
gadget, and the narrow-loop chain, so a single run shows each decision
route producing exact numbers.
"""

import sys
from pathlib import Path

# run from a checkout without installing: the package sources sit in src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ctcsim.dsl import parse_program
from ctcsim.exact.scalars import Rational
from ctcsim.fixpoint import compute_fixed_point, fixed_point_projector
from ctcsim.gallery import MACHINE_DEMOS, QUANTUM_DEMOS
from ctcsim.semantics import (
    classical_decide,
    gadget_narrow_np,
    gadget_np_search,
    gadget_pspace,
    parse_machine,
    quantum_decide,
    stochastic_decide,
)
from ctcsim.superop import DensityMatrix, program_to_natural


def tour_quantum() -> None:
    print("== quantum gallery ==")
    for name, text in QUANTUM_DEMOS.items():
        prog = parse_program(text)
        if prog.output_bit is None:
            # no output bit: report the fixed-point structure instead
            phi = program_to_natural(prog)
            proj = fixed_point_projector(phi)
            rho = compute_fixed_point(proj, DensityMatrix.basis_state(phi.input_dim, 0))
            dim = proj.r_matrix.trace()  # R projects onto the fixed space
            print(
                f"{name:>11}: no output; fixed space dimension {dim}, "
                f"canonical state diag = "
                f"{[str(rho.matrix.entry(i, i)) for i in range(phi.input_dim)]}"
            )
            continue
        v = quantum_decide(prog)
        print(
            f"{name:>11}: {v.decision}, p_acc = {v.exact_accept_probability} "
            f"({v.half_comparison} 1/2), range [{v.probability_range[0]:.3f}, "
            f"{v.probability_range[1]:.3f}]"
        )


def tour_machines() -> None:
    print("== machine reduction ==")
    for name, text in MACHINE_DEMOS.items():
        machine = parse_machine(text)
        run, answer = machine.canonical_run()
        v = classical_decide(gadget_pspace(machine))
        print(
            f"{name:>11}: run of {len(run)}, answer {answer}; loop decides "
            f"{v.decision} with p_acc = {v.exact_accept_probability}"
        )


def tour_search() -> None:
    print("== search gadget, n = 3 ==")
    for label, solutions in [
        ("{5}", [x == 5 for x in range(8)]),
        ("{2, 7}", [x in (2, 7) for x in range(8)]),
        ("empty", [False] * 8),
    ]:
        v = classical_decide(gadget_np_search(3, solutions))
        found = [format(x, "03b") for x in v.witness.support()] if v.decision == "accept" else []
        print(
            f"{label:>11}: {v.decision}, p_acc = {v.exact_accept_probability}"
            + (f", witness support {found}" if found else "")
        )


def tour_narrow() -> None:
    print("== narrow loop, single witness among 2^4 ==")
    eps = Rational(1, 1 << 10)
    table = [x == 11 for x in range(16)]
    v = stochastic_decide(gadget_narrow_np(4, table, eps))
    print(
        f"{'one hit':>11}: {v.decision}, stationary witness mass = "
        f"{v.exact_accept_probability}"
    )
    v = stochastic_decide(gadget_narrow_np(4, [False] * 16, eps))
    print(f"{'no hits':>11}: {v.decision}, p_acc = {v.exact_accept_probability}")


def main() -> int:
    tour_quantum()
    tour_machines()
    tour_search()
    tour_narrow()
    return 0


if __name__ == "__main__":
    sys.exit(main())
