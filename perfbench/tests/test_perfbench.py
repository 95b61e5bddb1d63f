"""Tests of the benchmark itself: generators, certificates, failure
accounting, tracing and the metric catalogue in BENCHMARK.json.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from certify import CHECKS  # noqa: E402
from generators import GENERATORS  # noqa: E402
from tracing import LAYERS, Recorder  # noqa: E402

from ctcsim.cli import run_cli  # noqa: E402
from ctcsim.dsl import parse_program, validate_program  # noqa: E402

SAMPLE = range(12)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generator_is_deterministic_and_valid(workload):
    generate = GENERATORS[workload]
    for i in SAMPLE:
        first, again = generate(5, i), generate(5, i)
        assert first.text == again.text
        report = validate_program(parse_program(first.text))
        assert report.ok, report.violations
    assert [generate(5, i).text for i in SAMPLE] != [generate(6, i).text for i in SAMPLE]


def test_generator_sizes():
    for i in SAMPLE:
        q = parse_program(GENERATORS["quantum-q2"](1, i).text).circuit
        assert (q.ctc_qubits, q.cr_qubits) in ((2, 1), (2, 2))
        c = parse_program(GENERATORS["classical-wide"](1, i).text).circuit
        assert 16 <= c.total_bits <= 17 and c.ctc_bits <= 12 and c.table is None
        s = GENERATORS["stochastic-chains"](1, i)
        assert 1 << s.spec["bits"] in (64, 128)
        assert 1 <= len(s.spec["classes"]) <= 4
        assert len(s.spec["columns"]) == 1 << s.spec["bits"]


def _decide(workload, index, tmp_path, seed=0):
    program = GENERATORS[workload](seed, index)
    path = tmp_path / f"{workload}-{index}.ctc"
    path.write_text(program.text)
    outcome = run.decide_one(run_cli, str(path))
    run.judge(outcome, program, CHECKS[workload])
    return program, outcome


# indices chosen so the verdict targets of each generator differ
VERDICT_PROBES = {
    "quantum-q2": range(6),
    "classical-wide": (0, 2),
    "stochastic-chains": (0, 4),
}


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generator_yields_several_verdicts_all_certified(workload, tmp_path):
    verdicts = set()
    for i in VERDICT_PROBES[workload]:
        _, outcome = _decide(workload, i, tmp_path)
        assert outcome["failure"] is None, outcome["failure"]
        verdicts.add(outcome["data"]["verdict"])
    assert len(verdicts) > 1


def test_tampered_outputs_count_as_failures(tmp_path):
    program, outcome = _decide("stochastic-chains", 1, tmp_path)
    assert outcome["failure"] is None
    data = json.loads(outcome["stdout"])["data"]
    check = CHECKS["stochastic-chains"]

    moved = dict(data, witness=dict(data["witness"]))
    probs = [Fraction(p) for p in data["witness"]["probabilities"]]
    src = next(i for i, p in enumerate(probs) if p)
    dst = next(i for i, p in enumerate(probs) if not p)
    probs[src], probs[dst] = probs[dst], probs[src]
    moved["witness"]["probabilities"] = [str(p) for p in probs]
    assert check(program.spec, moved) is not None

    wrong_exit = dict(outcome, code=1 if data["verdict"] != "reject" else 0)
    run.judge(wrong_exit, program, check)
    assert "exit code" in wrong_exit["failure"]

    crashed = dict(outcome, code=None, error="Traceback ...\nRuntimeError: boom\n")
    run.judge(crashed, program, check)
    assert crashed["failure"] == "raised: RuntimeError: boom"

    semantic = dict(outcome, code=3)
    run.judge(semantic, program, check)
    assert semantic["failure"].startswith("exit code 3")


def test_classical_certificate_recomputes_the_verdict(tmp_path):
    program, outcome = _decide("classical-wide", 2, tmp_path)
    assert outcome["failure"] is None
    data = dict(outcome["data"], verdict="accept")
    assert "cycles give" in CHECKS["classical-wide"](program.spec, data)


def test_decide_one_catches_exit_and_exceptions():
    def exits(argv):
        raise SystemExit(2)

    def raises(argv):
        raise RuntimeError("kernel bug")

    assert "SystemExit" in run.decide_one(exits, "x")["error"]
    assert "kernel bug" in run.decide_one(raises, "x")["error"]


def test_recorder_self_times_and_restore():
    import ctcsim.fixpoint as fixpoint
    from ctcsim.exact.matrices import Matrix

    original = Matrix.__dict__["__matmul__"]
    rec = Recorder()
    rec.install()
    try:
        assert Matrix.__dict__["__matmul__"] is not original
        outer = rec.wrap("cli.run_cli", lambda: Matrix.identity(2) @ Matrix.identity(2))
        rec.program = 7
        outer()
    finally:
        rec.uninstall()
    assert Matrix.__dict__["__matmul__"] is original
    assert fixpoint.lagrange_interpolate.__module__ == "ctcsim.exact.polys"
    root, child = rec.spans
    assert child.parent == 0 and child.program == 7 and child.counts == {"mul_adds": 8}
    own = rec.self_times()
    assert own[0] == pytest.approx((root.end - root.start) - (child.end - child.start))
    assert sum(rec.layer_self().values()) == pytest.approx(root.end - root.start)


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(1, 31))
    value, pct = run.tail(samples)
    assert value == 20 and sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_benchmark_json_matches_the_metrics_printed():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert {f"layer.{layer}.self_share" for layer in LAYERS} <= set(run.per_layer_units())
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
