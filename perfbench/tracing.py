"""Span recorder for the traced run.

The library is not instrumented.  For the traced run only, each layer's
public functions are replaced by a recording wrapper at the name their
caller looks them up under (ctcsim.semantics.nullspace, not
ctcsim.exact.matrices.nullspace), and restored afterwards.  A span holds
its name, start, end, parent span and the index of the program being
decided, plus counters read from the call's arguments or result.  Spans
stay in memory until the run ends.

A span is named "<layer>.<function>", where the layer is the module of
src/ctcsim that defines the function.  A layer's self time is its span
time minus the time of its child spans.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "dsl", "circuits", "superop", "fixpoint", "exact", "semantics")


def _matmul_counts(args, result) -> Dict[str, int]:
    a, b = args[0], args[1]
    return {"mul_adds": a.rows * a.cols * b.cols}


def _table_counts(args, result) -> Dict[str, int]:
    circuit = args[0]
    return {"inputs": 0 if circuit.table is not None else 1 << circuit.total_bits}


def _cycle_counts(args, result) -> Dict[str, int]:
    return {"cycles": len(result)}


def _stationary_counts(args, result) -> Dict[str, int]:
    return {
        "classes": len(result.classes),
        "class_size_max": max(len(c.support()) for c in result.classes),
    }


def _projector_counts(args, result) -> Dict[str, int]:
    """Side n of R, fixed-space dimension d = trace(R) (R is a projector)
    and the largest numerator or denominator bit length in R."""
    r = result.r_matrix
    bits = 0
    for e in r.entries:
        for x in (e.re, e.im):
            bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return {"n": r.rows, "d": int(r.trace().re), "r_entry_bits_max": bits}


# (module, attribute looked up by the caller, span name, counters)
TARGETS = [
    ("ctcsim.cli", "parse_program", "dsl.parse_program", None),
    ("ctcsim.cli", "validate_program", "dsl.validate_program", None),
    ("ctcsim.cli", "quantum_decide", "semantics.quantum_decide", None),
    ("ctcsim.cli", "classical_decide", "semantics.classical_decide", None),
    ("ctcsim.cli", "stochastic_decide", "semantics.stochastic_decide", None),
    ("ctcsim.semantics", "program_to_natural", "superop.program_to_natural", None),
    ("ctcsim.semantics", "fixed_point_projector", "fixpoint.fixed_point_projector",
     _projector_counts),
    ("ctcsim.semantics", "compute_fixed_point", "fixpoint.compute_fixed_point", None),
    ("ctcsim.semantics", "accept_probability", "semantics.accept_probability", None),
    ("ctcsim.semantics", "acceptance_operator", "semantics.acceptance_operator", None),
    ("ctcsim.semantics", "circuit_unitary", "circuits.circuit_unitary", None),
    ("ctcsim.semantics", "classical_table", "circuits.classical_table", _table_counts),
    ("ctcsim.semantics", "cycle_fixed_point", "semantics.cycle_fixed_point", None),
    ("ctcsim.semantics", "enumerate_cycles", "semantics.enumerate_cycles", _cycle_counts),
    ("ctcsim.semantics", "stationary_distribution", "semantics.stationary_distribution",
     _stationary_counts),
    ("ctcsim.semantics", "nullspace", "exact.nullspace", None),
    ("ctcsim.superop", "circuit_unitary", "circuits.circuit_unitary", None),
    ("ctcsim.superop", "kraus_to_natural", "superop.kraus_to_natural", None),
    ("ctcsim.superop", "hermitian_psd_check", "exact.hermitian_psd_check", None),
    ("ctcsim.fixpoint", "symbolic_resolvent", "fixpoint.symbolic_resolvent", None),
    ("ctcsim.fixpoint", "projector_limit", "fixpoint.projector_limit", None),
    ("ctcsim.fixpoint", "det_and_adjugate", "exact.det_and_adjugate", None),
    ("ctcsim.fixpoint", "lagrange_interpolate", "exact.lagrange_interpolate", None),
    ("ctcsim.fixpoint", "hermitian_psd_check", "exact.hermitian_psd_check", None),
    ("ctcsim.fixpoint", "choi_matrix", "superop.choi_matrix", None),
    ("ctcsim.fixpoint", "verify_fixed_point", "fixpoint.verify_fixed_point", None),
    ("ctcsim.exact.matrices", "char_poly", "exact.char_poly", None),
    ("ctcsim.exact.matrices", "Matrix.__matmul__", "exact.matmul", _matmul_counts),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    program: Optional[int]
    counts: Dict[str, int] = field(default_factory=dict)
    raised: Optional[str] = None


class Recorder:
    """Collects spans while installed; one caller, one thread."""

    def __init__(self):
        self.spans: List[Span] = []
        self.program: Optional[int] = None
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.program)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.raised = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, name, count in TARGETS:
            owner = importlib.import_module(module)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[last]
            self._patched.append((owner, last, original))
            setattr(owner, last, self.wrap(name, original, count))

    def uninstall(self):
        while self._patched:
            owner, last, original = self._patched.pop()
            setattr(owner, last, original)

    def self_times(self) -> List[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [(s.end - s.start) - c for s, c in zip(self.spans, child)]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self_s, raised-exception counts, counters."""
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s, own in zip(self.spans, self.self_times()):
            row = out[s.name]
            row["calls"] += 1
            row["self_s"] += own
            if s.raised is not None:
                row["raised." + s.raised] += 1
            for key, value in s.counts.items():
                if key.endswith("_max"):
                    row[key] = max(row[key], value)
                else:
                    row[key] += value
        return out

    def layer_self(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for s, own in zip(self.spans, self.self_times()):
            totals[s.name.split(".", 1)[0]] += own
        return totals

    def span_records(self):
        for i, s in enumerate(self.spans):
            yield {
                "id": i,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "program": s.program,
                "counts": s.counts,
                "raised": s.raised,
            }

