#!/usr/bin/env python3
"""Measure how the exact pipeline scales with the number of looped qubits.

For q = 1..3 this times the full decision on a rotation-plus-CNOT-chain
family, as the median of three decisions per q.  q = 4 sits above the
default dimension cap; the script shows the refusal, and --allow-large
really attempts it once (the projector works on an exact 256x256 matrix;
the q = 4 decision took 1.9-2.2 s on a 2-vCPU VM with Python 3.11 and the
fractions backend, and q = 3 0.04 s).  That is the sparse case: this
family's natural matrix has 2 nonzeros per column.  A dense q = 4 program,
whose natural matrix is 50% nonzero and complex, did not finish within
400 s on the same kind of machine.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

# run from a checkout without installing: the package sources sit in src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ctcsim.dsl import parse_program
from ctcsim.errors import ResourceLimitError
from ctcsim.semantics import quantum_decide

# each q <= --max-qubits is timed as the median of this many decisions
REPEATS = 3


def chain_program(q: int) -> str:
    lines = [
        "quantum",
        f"registers ctc={q} cr=1",
        "defgate R = [3/5, -4/5; 4/5, 3/5]",
        "apply R ctc[0]",
    ]
    for i in range(q - 1):
        lines.append(f"apply CNOT ctc[{i}], ctc[{i + 1}]")
    lines.append(f"apply CNOT ctc[{q - 1}], cr[0]")
    lines.append("output cr[0]")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    # q = 4 is above the default cap and has its own branch below
    ap.add_argument("--max-qubits", type=int, default=3, choices=range(1, 4),
                    help="largest q to time")
    ap.add_argument(
        "--allow-large",
        action="store_true",
        help="actually attempt q=4 instead of demonstrating the cap",
    )
    args = ap.parse_args(argv)

    print(f"{'q':>2} {'dim':>4} {'natural':>8} {'seconds':>9}  verdict")
    for q in range(1, args.max_qubits + 1):
        prog = parse_program(chain_program(q))
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            v = quantum_decide(prog)
            times.append(time.perf_counter() - t0)
        dt = statistics.median(times)
        n = 1 << q
        print(
            f"{q:>2} {n:>4} {n * n:>5}^2 {dt:>9.2f}  {v.decision}, "
            f"p_acc = {v.exact_accept_probability}, "
            f"range [{v.probability_range[0]:.3f}, {v.probability_range[1]:.3f}]"
        )

    prog4 = parse_program(chain_program(4))
    if args.allow_large:
        print("attempting q=4 with the cap lifted; interrupt if you lose patience")
        t0 = time.perf_counter()
        v = quantum_decide(prog4, allow_large=True)
        dt = time.perf_counter() - t0
        print(f" 4   16   256^2 {dt:>9.2f}  {v.decision}, p_acc = {v.exact_accept_probability}")
    else:
        try:
            quantum_decide(prog4)
        except ResourceLimitError as e:
            print(f" 4 refused: {e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
