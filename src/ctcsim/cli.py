"""Command-line front end.

Subcommands: validate, fixpoint, decide, demo, oracle.  Exact values are
printed in their text forms ("3/5", "1/2+1/2i"); floats appear only in
fields whose names end in _approx.  With --json the output is a single
object {"schema_version", "data", "timings_ms"} whose data section is
deterministic for identical inputs.

Exit codes: 0 success or accept, 1 reject, 2 parse error, 3 semantic
violation, 4 ambiguous verdict, 5 resource cap, 6 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

from .circuits import CTCProgram, StochasticMatrix, classical_table
from .dsl import ParseError, parse_program, validate_program
from .errors import ContractViolationError, ResourceLimitError
from .exact.matrices import Matrix
from .exact.scalars import Rational, rational_from_text, scalar_to_text
from .fixpoint import (
    cesaro_oracle,
    compute_fixed_point,
    to_complex_array,
)
from .gallery import demo_source, machine_source
from .semantics import (
    ClassicalDistribution,
    Verdict,
    check_narrow_np_bits,
    check_np_search_bits,
    classical_decide,
    cycle_fixed_point,
    epsilon_fixed_point_check,
    gadget_narrow_np,
    gadget_np_search,
    gadget_pspace,
    parse_machine,
    program_projector,
    quantum_decide,
    stationary_distribution,
    stochastic_decide,
)
from .superop import DensityMatrix

__all__ = ["main", "run_cli"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_AMBIGUOUS = 4
EXIT_RESOURCE = 5
EXIT_INTERNAL = 6

_DECISION_EXIT = {"accept": EXIT_OK, "reject": EXIT_REJECT, "ambiguous": EXIT_AMBIGUOUS}


def _matrix_text(m: Matrix) -> List[List[str]]:
    return [[scalar_to_text(e) for e in row] for row in m.to_rows()]


def _matrix_approx(m: Matrix) -> List[List[List[float]]]:
    return [[[float(e.re), float(e.im)] for e in row] for row in m.to_rows()]


def _dist_payload(d: ClassicalDistribution) -> Dict:
    return {
        "bits": d.bits,
        "probabilities": [str(p) for p in d.probabilities],
    }


def _program_summary(program: CTCProgram) -> Dict:
    c = program.circuit
    ctc = getattr(c, "ctc_qubits", None)
    cr = getattr(c, "cr_qubits", None)
    if ctc is None:
        ctc = c.ctc_bits
        cr = getattr(c, "cr_bits", 1)
    return {
        "kind": program.kind,
        "ctc": ctc,
        "cr": cr,
        "output_bit": program.output_bit,
    }


def _verdict_payload(v: Verdict) -> Dict:
    if isinstance(v.witness, DensityMatrix):
        witness = {"state": _matrix_text(v.witness.matrix)}
    else:
        witness = _dist_payload(v.witness)
    return {
        "verdict": v.decision,
        "exact_accept_probability": str(v.exact_accept_probability),
        "half_comparison": v.half_comparison,
        "probability_range_approx": [v.probability_range[0], v.probability_range[1]],
        "certified": v.certified,
        "witness": witness,
    }


class _Emitter:
    """Collects stage timings and prints either prose or the JSON envelope."""

    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.timings: Dict[str, float] = {}
        self._mark = time.perf_counter()

    def stage(self, name: str):
        now = time.perf_counter()
        self.timings[name] = round((now - self._mark) * 1000.0, 3)
        self._mark = now

    def emit(self, data: Dict, lines: List[str]):
        if self.as_json:
            envelope = {
                "schema_version": SCHEMA_VERSION,
                "data": data,
                "timings_ms": self.timings,
            }
            print(json.dumps(envelope, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_valid_program(path: str, em: _Emitter) -> Tuple[Optional[CTCProgram], int]:
    program = parse_program(_read_file(path))
    em.stage("parse")
    report = validate_program(program)
    em.stage("validate")
    if not report.ok:
        for v in report.violations:
            print(f"violation: {v}", file=sys.stderr)
        return None, EXIT_SEMANTIC
    return program, EXIT_OK


def _verdict_lines(v: Verdict) -> List[str]:
    lo, hi = v.probability_range
    return [
        f"verdict: {v.decision}",
        f"exact acceptance probability: {v.exact_accept_probability}",
        f"range over all consistent states: [{lo:.6f}, {hi:.6f}]",
        f"compared to 1/2: {v.half_comparison}",
        f"all-states quantifier certified: {'yes' if v.certified else 'no'}",
    ]


# -- subcommands -----------------------------------------------------------

def _cmd_validate(args) -> int:
    em = _Emitter(args.json)
    program = parse_program(_read_file(args.file))
    em.stage("parse")
    report = validate_program(program)
    em.stage("validate")
    data = {
        "ok": report.ok,
        "violations": list(report.violations),
        "program": _program_summary(program),
    }
    lines = ["valid"] if report.ok else [f"violation: {v}" for v in report.violations]
    em.emit(data, lines)
    return EXIT_OK if report.ok else EXIT_SEMANTIC


def _seed_state(spec: str, dim: int) -> DensityMatrix:
    if spec == "zero":
        return DensityMatrix.basis_state(dim, 0)
    if spec == "mixed":
        return DensityMatrix.maximally_mixed(dim)
    if spec.startswith("basis:"):
        k = int(spec.split(":", 1)[1])
        return DensityMatrix.basis_state(dim, k)
    raise ValueError(f"unknown seed {spec!r} (use zero, mixed, or basis:<k>)")


def _cmd_fixpoint(args) -> int:
    em = _Emitter(args.json)
    program, code = _load_valid_program(args.file, em)
    if program is None:
        return code
    data: Dict = {"program": _program_summary(program), "seed": args.seed}
    lines: List[str]
    if program.kind == "quantum":
        proj = program_projector(program, allow_large=args.allow_large)
        rho = compute_fixed_point(proj, _seed_state(args.seed, proj.source.input_dim))
        em.stage("compute")
        data["fixed_point"] = _matrix_text(rho.matrix)
        data["fixed_point_approx"] = _matrix_approx(rho.matrix)
        lines = ["exact fixed point:"]
        lines += ["  [" + ", ".join(row) + "]" for row in data["fixed_point"]]
    elif program.kind == "classical":
        if args.seed != "zero":
            raise ValueError("seed selection applies to quantum programs only")
        _, induced = classical_table(program.circuit)
        dist, cycle = cycle_fixed_point(induced)
        em.stage("compute")
        width = program.circuit.ctc_bits
        data["cycle"] = [format(y, f"0{width}b") for y in cycle]
        data["distribution"] = _dist_payload(dist)
        lines = [
            f"cycle ({len(cycle)} strings): " + " ".join(data["cycle"]),
            "uniform probability " + str(dist.probabilities[cycle[0]]) + " each",
        ]
    else:
        if args.seed != "zero":
            raise ValueError("seed selection applies to quantum programs only")
        res = stationary_distribution(program.circuit.chain)
        em.stage("compute")
        data["distribution"] = _dist_payload(res.distribution)
        data["multiple"] = res.multiple
        data["classes"] = [_dist_payload(c) for c in res.classes]
        lines = [
            "stationary distribution: ("
            + ", ".join(str(p) for p in res.distribution.probabilities)
            + ")",
        ]
        if res.multiple:
            lines.append(
                f"stationary set is not unique ({len(res.classes)} recurrent classes); "
                f"reported the class average"
            )
    em.emit(data, lines)
    return EXIT_OK


def _decide_program(program: CTCProgram, allow_large: bool) -> Verdict:
    if program.kind == "quantum":
        return quantum_decide(program, allow_large=allow_large)
    if program.kind == "classical":
        return classical_decide(program)
    return stochastic_decide(program)


def _cmd_decide(args) -> int:
    em = _Emitter(args.json)
    program, code = _load_valid_program(args.file, em)
    if program is None:
        return code
    verdict = _decide_program(program, args.allow_large)
    em.stage("compute")
    data = {"program": _program_summary(program)}
    data.update(_verdict_payload(verdict))
    em.emit(data, _verdict_lines(verdict))
    return _DECISION_EXIT[verdict.decision]


def _parse_params(pairs: List[str], accepted: Tuple[str, ...]) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--param needs key=value, got {pair!r}")
        k, v = (part.strip() for part in pair.split("=", 1))
        if k not in accepted:
            raise ValueError(f"unknown --param key {k!r}; accepted: {', '.join(accepted) or 'none'}")
        out[k] = v
    return out


def _bitstring_set(text: str, n: int) -> List[bool]:
    table = [False] * (1 << n)
    cleaned = text.strip()
    if cleaned in ("", "none"):
        return table
    for token in cleaned.split(","):
        token = token.strip()
        if len(token) != n or any(c not in "01" for c in token):
            raise ValueError(f"bad {n}-bit string {token!r}")
        table[int(token, 2)] = True
    return table


def _verdict_demo(verdict: Verdict, data: Dict, extra: List[str]) -> Tuple[Dict, List[str], int]:
    data.update(_verdict_payload(verdict))
    return data, _verdict_lines(verdict) + extra, _DECISION_EXIT[verdict.decision]


def _demo_grandfather(params: Dict[str, str], em: _Emitter):
    program = parse_program(demo_source("grandfather"))
    em.stage("parse")
    verdict = quantum_decide(program)
    em.stage("compute")
    return _verdict_demo(verdict, {"program": _program_summary(program)}, [])


def _demo_np_search(params: Dict[str, str], em: _Emitter):
    n = int(params.get("n", "2"))
    check_np_search_bits(n)
    solutions = _bitstring_set(params.get("solutions", "10"), n)
    program = gadget_np_search(n, solutions)
    em.stage("parse")
    verdict = classical_decide(program)
    em.stage("compute")
    support = [format(y, f"0{n}b") for y in verdict.witness.support()]
    data = {
        "n": n,
        "solutions": [format(i, f"0{n}b") for i, s in enumerate(solutions) if s],
        "support": support,
    }
    return _verdict_demo(
        verdict, data, ["consistent support: " + (" ".join(support) or "(empty)")]
    )


def _demo_pspace(params: Dict[str, str], em: _Emitter):
    machine = parse_machine(machine_source(params.get("machine", "accept")))
    program = gadget_pspace(machine)
    em.stage("parse")
    verdict = classical_decide(program)
    em.stage("compute")
    run, answer = machine.canonical_run()
    width = program.circuit.ctc_bits
    data = {
        "machine": params.get("machine", "accept"),
        "run_length": len(run),
        "halting_answer": answer,
        "support": [format(y, f"0{width}b") for y in verdict.witness.support()],
    }
    return _verdict_demo(
        verdict,
        data,
        [f"canonical run visits {len(run)} configurations; loop carries bit {answer}"],
    )


def _demo_narrow(params: Dict[str, str], em: _Emitter):
    n = int(params.get("n", "4"))
    eps = rational_from_text(params.get("eps", "1/1024"))
    check_narrow_np_bits(n)
    witnesses = _bitstring_set(params.get("witnesses", "0111"), n)
    program = gadget_narrow_np(n, witnesses, eps)
    em.stage("parse")
    verdict = stochastic_decide(program)
    em.stage("compute")
    data = {
        "n": n,
        "eps": str(eps),
        "witness_count": sum(witnesses),
        "chain": _matrix_text(program.circuit.chain.matrix),
    }
    return _verdict_demo(verdict, data, [])


def _demo_perturb(params: Dict[str, str], em: _Emitter):
    eps = rational_from_text(params.get("eps", "1/100"))
    one = Rational(1)
    first = StochasticMatrix(2, Matrix.from_rows([[one, eps], [0, one - eps]]))
    second = StochasticMatrix(2, Matrix.from_rows([[one - eps, 0], [eps, one]]))
    pi1 = stationary_distribution(first).distribution
    pi2 = stationary_distribution(second).distribution
    cross1 = epsilon_fixed_point_check(second, pi1, eps)
    cross2 = epsilon_fixed_point_check(first, pi2, eps)
    em.stage("compute")
    data = {
        "eps": str(eps),
        "first_stationary": [str(p) for p in pi1.probabilities],
        "second_stationary": [str(p) for p in pi2.probabilities],
        "cross_distances": [str(cross1.exact_distance), str(cross2.exact_distance)],
        "within_eps": [cross1.ok, cross2.ok],
    }
    lines = [
        f"first chain stationary: ({', '.join(data['first_stationary'])})",
        f"second chain stationary: ({', '.join(data['second_stationary'])})",
        f"each is an exact {eps}-fixed-point of the other chain: "
        f"distances {data['cross_distances'][0]} and {data['cross_distances'][1]}",
    ]
    return data, lines, EXIT_OK


# name -> (demo, its --param keys); a demo stages timings, returns (data, lines, code)
_DEMOS = {
    "grandfather": (_demo_grandfather, ()),
    "np-search": (_demo_np_search, ("n", "solutions")),
    "pspace": (_demo_pspace, ("machine",)),
    "narrow": (_demo_narrow, ("n", "eps", "witnesses")),
    "perturb": (_demo_perturb, ("eps",)),
}


def _cmd_demo(args) -> int:
    em = _Emitter(args.json)
    demo, accepted = _DEMOS[args.name]
    data, lines, code = demo(_parse_params(args.param, accepted), em)
    em.emit({"demo": args.name, **data}, lines)
    return code


def _cmd_oracle(args) -> int:
    em = _Emitter(args.json)
    program, code = _load_valid_program(args.file, em)
    if program is None:
        return code
    if program.kind != "quantum":
        raise ValueError("the iteration oracle applies to quantum programs only")
    proj = program_projector(program, allow_large=args.allow_large)
    phi = proj.source
    seed = DensityMatrix.basis_state(phi.input_dim, 0)
    rho = compute_fixed_point(proj, seed)
    approx = cesaro_oracle(phi, seed, args.steps)
    import numpy as np  # float diagnostics only; kept off the import path

    deviation = float(np.max(np.abs(approx - to_complex_array(rho.matrix))))
    em.stage("compute")
    data = {
        "program": _program_summary(program),
        "steps": args.steps,
        "max_deviation_approx": deviation,
        "fixed_point": _matrix_text(rho.matrix),
    }
    em.emit(
        data,
        [f"max entry deviation between exact fixed point and {args.steps}-step average: "
         f"{deviation:.3e}"],
    )
    return EXIT_OK


@functools.cache  # one parser per process, built on first use; parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctcsim",
        description="Exact simulator for programs around a closed timelike curve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and semantically check a program file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("fixpoint", help="compute the consistent state of a program")
    p.add_argument("file")
    p.add_argument("--seed", default="zero", help="zero, mixed, or basis:<k>")
    p.add_argument("--allow-large", action="store_true",
                   help="permit 4 looped qubits (slow exact computation)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fixpoint)

    p = sub.add_parser("decide", help="run a program to an accept/reject/ambiguous verdict")
    p.add_argument("file")
    p.add_argument("--allow-large", action="store_true",
                   help="permit 4 looped qubits (slow exact computation)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("demo", help="run a built-in demonstration")
    p.add_argument("name", choices=list(_DEMOS))
    p.add_argument("--param", action="append", default=[], metavar="K=V")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("oracle", help="cross-check the exact fixed point numerically")
    p.add_argument("file")
    p.add_argument("--steps", type=int, required=True,
                   help="number of channel iterates to average")
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)
    return parser


def run_cli(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, UnicodeDecodeError) as exc:
        # a file that is not UTF-8 text is an input error, not a semantic one
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ContractViolationError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except Exception as exc:
        # a kernel bug must never read as a verdict, least of all "reject"
        import traceback  # kept off the import path, like numpy
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


def main(argv: Optional[List[str]] = None) -> int:
    return run_cli(argv)
