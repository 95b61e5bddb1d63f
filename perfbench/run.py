"""Benchmark of ctcsim's exact decision pipeline, one workload per process.

    python3 perfbench/run.py --workload quantum-q2 --seed 1 --seconds 30 --trace 0

Set-up generates programs from the seed, writes them as DSL files and
times fresh imports of ctcsim.cli.  The run then decides files one after
another in-process through ctcsim.cli.run_cli(["decide", FILE, "--json"]),
the path a CLI user takes: closed loop, one caller, BLAS pinned to one
thread.  Every output is certified exactly after the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 first decides for
half the time untraced, then decides the same programs again with the
layer functions wrapped (see tracing.py), and prints per-layer metrics
per decision, the tracing overhead and the attribution check.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the line before it is the full record (environment, tail percentile,
verdict digest), also written with the spans under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import LAYERS, Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Every untraced run decides at least this many programs, so the tail
# percentile exists and the verdict digest always covers the same
# programs.  The traced run repeats its programs, so it needs fewer.
MIN_PROGRAMS = 12
MIN_TRACED_PROGRAMS = 4
SETUP_SAMPLES = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import ctcsim.cli; print(time.perf_counter() - t)"
EXPECTED_EXITS = {"accept": 0, "reject": 1, "ambiguous": 4}
# the traced run's self times must cover its wall time to within this share
ATTRIBUTION_TOLERANCE = 0.02

WORKLOADS = ("quantum-q2", "classical-wide", "stochastic-chains")
END_TO_END_UNITS = {
    "decide_s_p50": "s",
    "decide_s_tail": "s",
    "programs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metrics: (span name, counter) reported per decision
LAYER_SELF = (
    "cli.run_cli",
    "dsl.parse_program",
    "dsl.validate_program",
    "circuits.circuit_unitary",
    "circuits.classical_table",
    "superop.program_to_natural",
    "superop.kraus_to_natural",
    "superop.choi_matrix",
    "fixpoint.fixed_point_projector",
    "fixpoint.symbolic_resolvent",
    "fixpoint.projector_limit",
    "fixpoint.compute_fixed_point",
    "fixpoint.verify_fixed_point",
    "exact.lagrange_interpolate",
    "exact.det_and_adjugate",
    "exact.matmul",
    "exact.hermitian_psd_check",
    "exact.char_poly",
    "exact.nullspace",
    "semantics.quantum_decide",
    "semantics.accept_probability",
    "semantics.acceptance_operator",
    "semantics.classical_decide",
    "semantics.cycle_fixed_point",
    "semantics.enumerate_cycles",
    "semantics.stochastic_decide",
    "semantics.stationary_distribution",
)
LAYER_COUNTS = (
    ("exact.lagrange_interpolate.calls", "exact.lagrange_interpolate", "calls"),
    ("exact.det_and_adjugate.calls", "exact.det_and_adjugate", "calls"),
    ("exact.det_and_adjugate.singular", "exact.det_and_adjugate", "raised.SingularMatrixError"),
    ("exact.matmul.calls", "exact.matmul", "calls"),
    ("exact.matmul.mul_adds", "exact.matmul", "mul_adds"),
    ("exact.hermitian_psd_check.calls", "exact.hermitian_psd_check", "calls"),
    ("exact.nullspace.calls", "exact.nullspace", "calls"),
    ("circuits.circuit_unitary.calls", "circuits.circuit_unitary", "calls"),
    ("circuits.classical_table.inputs", "circuits.classical_table", "inputs"),
    ("semantics.cycles", "semantics.enumerate_cycles", "cycles"),
    ("semantics.stationary_distribution.classes", "semantics.stationary_distribution", "classes"),
    ("fixpoint.n", "fixpoint.fixed_point_projector", "n"),
    ("fixpoint.d", "fixpoint.fixed_point_projector", "d"),
)
LAYER_MAXIMA = (
    ("semantics.stationary_distribution.class_size_max", "semantics.stationary_distribution",
     "class_size_max"),
    ("fixpoint.r_entry_bits_max", "fixpoint.fixed_point_projector", "r_entry_bits_max"),
)


def per_layer_units() -> dict:
    units = {name + ".self_s": "s/decision" for name in LAYER_SELF}
    units.update({metric: "count/decision" for metric, _, _ in LAYER_COUNTS})
    units.update({metric: "count" for metric, _, _ in LAYER_MAXIMA})
    units.update({f"layer.{layer}.self_share": "ratio" for layer in LAYERS})
    units.update({"trace.overhead_ratio": "ratio", "trace.attribution_gap": "ratio"})
    return units


def pin_blas_threads():
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS


def measure_setup() -> list:
    """Seconds for fresh processes to import ctcsim.cli, one per sample."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout))
    return samples


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import networkx
    import numpy
    from ctcsim.exact import scalars

    return {
        "rational_backend": "gmpy2" if scalars._HAVE_GMPY2 else "fractions",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
        "seed": seed,
    }


def decide_one(run_cli, path: str) -> dict:
    """One CLI decision; the caller owns every exception it raises."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(["decide", path, "--json"])
    except (Exception, SystemExit):
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "code": code, "error": error, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def decide_loop(run_cli, programs, paths, seconds=None, minimum=MIN_PROGRAMS, count=None,
                recorder=None) -> list:
    """Decide programs in order, wrapping around the pool if it runs out.

    With count, decide exactly that many.  Otherwise keep going while the
    next decision (estimated at the median so far) still fits in seconds,
    and decide at least minimum.
    """
    outcomes = []
    start = time.perf_counter()
    while True:
        i = len(outcomes)
        if count is not None:
            if i == count:
                break
        elif i >= minimum:
            estimate = statistics.median(o["seconds"] for o in outcomes)
            if time.perf_counter() - start + estimate > seconds:
                break
        k = i % len(programs)
        if recorder is not None:
            recorder.program = programs[k].index
        outcome = decide_one(run_cli, paths[k])
        outcome["program"] = k
        outcomes.append(outcome)
    return outcomes


def judge(outcome: dict, program, check) -> None:
    """Fill outcome["failure"] (None when certified) and outcome["data"]."""
    outcome["data"] = None
    if outcome["error"] is not None:
        outcome["failure"] = "raised: " + outcome["error"].strip().splitlines()[-1]
        return
    if outcome["code"] not in EXPECTED_EXITS.values():
        outcome["failure"] = f"exit code {outcome['code']}: {outcome['stderr'].strip()[:200]}"
        return
    try:
        data = json.loads(outcome["stdout"])["data"]
    except (ValueError, KeyError) as exc:
        outcome["failure"] = f"unreadable JSON output: {exc}"
        return
    outcome["data"] = data
    if EXPECTED_EXITS.get(data.get("verdict")) != outcome["code"]:
        outcome["failure"] = f"verdict {data.get('verdict')!r} with exit code {outcome['code']}"
        return
    try:
        outcome["failure"] = check(program.spec, data)
    except Exception:
        outcome["failure"] = "certificate raised: " + traceback.format_exc(limit=2)


def verdict_digest(outcomes: list, head: list, programs: int) -> str:
    """sha256 over (verdict, exact p_acc, certified) of the first programs
    decisions, which every run of a seed in that mode makes.  head names
    the workload, seed and rational backend, so results of another seed
    or of gmpy2 against fractions never compare equal."""
    rows = []
    for o in outcomes[:programs]:
        d = o["data"] or {}
        rows.append([o["program"], d.get("verdict"), d.get("exact_accept_probability"),
                     d.get("certified")])
    return hashlib.sha256(json.dumps([head, rows]).encode()).hexdigest()


def tail(samples: list):
    """Highest nearest-rank percentile with at least ten samples above it."""
    ordered = sorted(samples)
    rank = max(len(ordered) - 10, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end_metrics(outcomes: list, setup: list) -> tuple:
    times = [o["seconds"] for o in outcomes]
    tail_s, tail_pct = tail(times)
    metrics = {
        "decide_s_p50": statistics.median(times),
        "decide_s_tail": tail_s,
        "programs_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"decide_s_tail_percentile": tail_pct, "decide_samples": len(times)}


def per_layer_metrics(recorder, decisions: int, untraced_s: float, traced_s: float) -> tuple:
    summary = recorder.summary()
    metrics = {}
    for name in LAYER_SELF:
        metrics[name + ".self_s"] = (summary[name]["self_s"] if name in summary else 0.0) / decisions
    for metric, name, key in LAYER_COUNTS:
        metrics[metric] = (summary[name][key] if name in summary else 0) / decisions
    for metric, name, key in LAYER_MAXIMA:
        metrics[metric] = summary[name][key] if name in summary else 0
    layer_self = recorder.layer_self()
    self_sum = sum(layer_self.values())
    for layer, own in layer_self.items():
        metrics[f"layer.{layer}.self_share"] = own / self_sum
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    gap = 1.0 - self_sum / traced_s
    metrics["trace.attribution_gap"] = gap
    extra = {
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "self_time_sum_s": self_sum,
        "spans": len(recorder.spans),
    }
    return metrics, extra, abs(gap) <= ATTRIBUTION_TOLERANCE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ctcsim" / "cli.py").is_file():
        print(f"ctcsim sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import ctcsim.cli
    from certify import CHECKS
    from generators import GENERATORS

    setup = measure_setup()
    env = environment(args.seed)
    generate, check = GENERATORS[args.workload], CHECKS[args.workload]
    pool = MIN_PROGRAMS + int(4 * args.seconds)
    programs = [generate(args.seed, i) for i in range(pool)]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="programs-", dir=OUT))
    try:
        paths = []
        for prog in programs:
            path = workdir / f"program-{prog.index:04d}.ctc"
            path.write_text(prog.text)
            paths.append(str(path))
        run_cli = ctcsim.cli.run_cli
        if args.trace:
            untraced = decide_loop(run_cli, programs, paths, seconds=args.seconds / 2,
                                   minimum=MIN_TRACED_PROGRAMS)
            recorder = Recorder()
            traced_cli = recorder.wrap("cli.run_cli", run_cli)
            recorder.install()
            try:
                traced = decide_loop(traced_cli, programs, paths, count=len(untraced),
                                     recorder=recorder)
            finally:
                recorder.uninstall()
            outcomes = untraced + traced
        else:
            outcomes = decide_loop(run_cli, programs, paths, seconds=args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for o in outcomes:
        judge(o, programs[o["program"]], check)
    failures = [o for o in outcomes if o["failure"] is not None]
    digested = MIN_TRACED_PROGRAMS if args.trace else MIN_PROGRAMS
    correct = not failures
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_samples_s": setup,
        "decide_seconds": [o["seconds"] for o in outcomes],
        "attempted": len(outcomes),
        "failed": len(failures),
        "error_rate": len(failures) / len(outcomes),
        "failures": [f"program {o['program']}: {o['failure']}" for o in failures[:5]],
        "verdict_counts": {v: sum(1 for o in outcomes if (o["data"] or {}).get("verdict") == v)
                           for v in EXPECTED_EXITS},
        "verdict_digest": verdict_digest(
            outcomes, [args.workload, args.seed, env["rational_backend"]], digested),
        "verdict_digest_programs": digested,
    }
    if args.trace:
        metrics, extra, attributed = per_layer_metrics(
            recorder, len(traced),
            sum(o["seconds"] for o in untraced), sum(o["seconds"] for o in traced))
        record.update(extra, attribution_ok=attributed)
        correct = correct and attributed
        units = per_layer_units()
    else:
        metrics, extra = end_to_end_metrics(outcomes, setup)
        record.update(extra)
        units = END_TO_END_UNITS
    record["metrics"] = metrics

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    if args.trace:
        with open(results / f"{stem}-spans.jsonl", "w") as fh:
            for span in recorder.span_records():
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
