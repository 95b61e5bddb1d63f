import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_quantum_program

import ctcsim.semantics
from ctcsim import cli
from ctcsim.circuits import QuantumCircuit
from ctcsim.cli import EXIT_INTERNAL, main, run_cli
from ctcsim.dsl import parse_program, program_to_text
from ctcsim.errors import ContractViolationError, ResourceLimitError
from ctcsim.exact.matrices import Matrix, _KernelBug
from ctcsim.exact.scalars import Rational, rational_from_text, scalar_from_text
from ctcsim.gallery import QUANTUM_DEMOS, demo_source, machine_source
from ctcsim.semantics import gadget_np_search, quantum_decide
from ctcsim.superop import DensityMatrix

GRANDFATHER = QUANTUM_DEMOS["grandfather"]

BAD_GATE = """quantum
registers ctc=1 cr=0
defgate G = [1/2, 0; 0, 1]
apply G ctc[0]
"""

OVERFLOW = """quantum
registers ctc=1 cr=1
apply X ctc[3]
"""

DOUBLY_STOCHASTIC = """stochastic
registers ctc=1 cr=1
matrix = [1/2, 1/2; 1/2, 1/2]
output-rule 1
output cr[0]
"""

FOUR_QUBITS = """quantum
registers ctc=4 cr=0
apply X ctc[0]
"""


def write(tmp_path, text, name="prog.ctc"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, json.loads(out), err


# -- validate ----------------------------------------------------------------

def test_validate_ok(tmp_path, capsys):
    code, out, err = run(capsys, ["validate", write(tmp_path, GRANDFATHER)])
    assert code == 0
    assert out.strip() == "valid"


def test_validate_semantic_violation(tmp_path, capsys):
    code, out, err = run(capsys, ["validate", write(tmp_path, BAD_GATE)])
    assert code == 3
    assert "squared norm" in out


def test_validate_json_envelope(tmp_path, capsys):
    code, doc, err = run_json(capsys, ["validate", write(tmp_path, GRANDFATHER)])
    assert code == 0
    assert set(doc) == {"schema_version", "data", "timings_ms"}
    assert doc["schema_version"] == 1
    assert doc["data"]["ok"] is True
    assert doc["data"]["violations"] == []
    assert doc["data"]["program"] == {
        "kind": "quantum", "ctc": 1, "cr": 1, "output_bit": 0,
    }
    assert all(isinstance(v, float) and v >= 0 for v in doc["timings_ms"].values())
    assert "timings_ms" not in doc["data"]


def test_parse_error_exit_and_position(tmp_path, capsys):
    code, out, err = run(capsys, ["validate", write(tmp_path, OVERFLOW)])
    assert code == 2
    assert "line 3, col 9" in err


def test_missing_file(capsys):
    code, out, err = run(capsys, ["validate", "/no/such/file.ctc"])
    assert code == 2
    assert "cannot read" in err


def test_undecodable_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "binary.ctc"
    path.write_bytes(b"quantum\n\xff\n")
    code, out, err = run(capsys, ["decide", str(path)])
    assert code == 2
    assert "cannot read input" in err


# -- decide ------------------------------------------------------------------

def test_decide_grandfather_is_ambiguous(tmp_path, capsys):
    code, out, err = run(capsys, ["decide", write(tmp_path, GRANDFATHER)])
    assert code == 4
    assert "verdict: ambiguous" in out
    assert "exact acceptance probability: 1/2" in out
    assert "compared to 1/2: equal" in out


def test_decide_force_one_accepts(tmp_path, capsys):
    code, out, err = run(
        capsys, ["decide", write(tmp_path, QUANTUM_DEMOS["force-one"])]
    )
    assert code == 0
    assert "verdict: accept" in out


def test_decide_classical_reject(tmp_path, capsys):
    text = program_to_text(gadget_np_search(2, [False] * 4))
    code, out, err = run(capsys, ["decide", write(tmp_path, text)])
    assert code == 1
    assert "verdict: reject" in out


def test_decide_stochastic_ambiguous(tmp_path, capsys):
    code, out, err = run(capsys, ["decide", write(tmp_path, DOUBLY_STOCHASTIC)])
    assert code == 4


def test_decide_json_payload(tmp_path, capsys):
    code, doc, err = run_json(capsys, ["decide", write(tmp_path, GRANDFATHER)])
    assert code == 4
    data = doc["data"]
    assert data["verdict"] == "ambiguous"
    assert data["exact_accept_probability"] == "1/2"
    assert rational_from_text(data["exact_accept_probability"])
    assert data["half_comparison"] == "equal"
    assert data["certified"] is True
    lo, hi = data["probability_range_approx"]
    assert isinstance(lo, float) and isinstance(hi, float)
    state = data["witness"]["state"]
    assert state == [["1/2", "0"], ["0", "1/2"]]
    for row in state:
        for cell in row:
            scalar_from_text(cell)  # every cell is an exact literal


def test_decide_json_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, GRANDFATHER)
    _, doc1, _ = run_json(capsys, ["decide", path])
    _, doc2, _ = run_json(capsys, ["decide", path])
    assert json.dumps(doc1["data"], sort_keys=True) == json.dumps(
        doc2["data"], sort_keys=True
    )


def decide_data(text):
    """Exit code and --json data of `decide` on a program text; the float
    range is dropped, since it alone may come from floats."""
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "prog.ctc")
        Path(path).write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run_cli(["decide", "--json", path])
    data = json.loads(out.getvalue())["data"]
    del data["probability_range_approx"]
    return code, data


QUANTUM_TEXTS = st.one_of(
    st.sampled_from(
        [t for t in QUANTUM_DEMOS.values() if parse_program(t).output_bit is not None]
    ),
    st.integers(0, 100_000).map(
        lambda seed: program_to_text(random_quantum_program(random.Random(seed), r=2))
    ),
)


@given(QUANTUM_TEXTS, st.sampled_from([-5.0, 0.5, float("nan")]))
def test_poisoned_eigenvalues_change_no_verdict(text, value):
    """No float decides a verdict: with eigvalsh returning a constant or
    NaN, `decide` gives the same verdict, exact p_acc and exit code."""
    expected = decide_data(text)
    calls = []

    def poisoned(a):
        calls.append(a)
        return np.full(len(a), value)

    with mock.patch("numpy.linalg.eigvalsh", poisoned):
        assert decide_data(text) == expected
    assert calls


# -- fixpoint ----------------------------------------------------------------

def test_internal_error_has_its_own_exit_code(tmp_path, capsys, monkeypatch):
    def broken(R, I, nc):
        raise _KernelBug("inexact division in fraction-free elimination")

    monkeypatch.setattr("ctcsim.semantics._grid_kernel", broken)
    code = run_cli(["decide", write(tmp_path, DOUBLY_STOCHASTIC)])
    err = capsys.readouterr().err
    assert code == EXIT_INTERNAL == 6
    assert err.startswith("internal error: inexact division")
    assert "Traceback (most recent call last)" in err
    assert err.rstrip().endswith("_KernelBug: inexact division in fraction-free elimination")


def test_key_error_from_a_bug_is_an_internal_error(tmp_path, capsys, monkeypatch):
    """Only ValueError and contract violations read as exit 3; a KeyError
    raised inside the decision is a bug like any other."""
    def broken(R, I, nc):
        raise KeyError("pivot")

    monkeypatch.setattr("ctcsim.semantics._grid_kernel", broken)
    code = run_cli(["decide", write(tmp_path, DOUBLY_STOCHASTIC)])
    err = capsys.readouterr().err
    assert code == EXIT_INTERNAL
    assert err.startswith("internal error: 'pivot'")
    assert err.rstrip().endswith("KeyError: 'pivot'")


def test_negative_stationary_mass_is_a_contract_violation(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        "ctcsim.semantics._grid_kernel", lambda R, I, nc: ((1, 0), [([2, -1], [0, 0])])
    )
    code = run_cli(["decide", write(tmp_path, DOUBLY_STOCHASTIC)])
    assert code == 3
    assert "stationary solve produced negative mass" in capsys.readouterr().err


def test_acceptance_mismatch_is_a_contract_violation(tmp_path, capsys, monkeypatch):
    exact = ctcsim.semantics.accept_probability

    def off_by_a_seventh(program, rho):
        return exact(program, rho) + Rational(1, 7)

    monkeypatch.setattr("ctcsim.semantics.accept_probability", off_by_a_seventh)
    with pytest.raises(ContractViolationError, match="differs from"):
        quantum_decide(parse_program(GRANDFATHER))
    code = run_cli(["decide", write(tmp_path, GRANDFATHER)])
    assert code == 3
    assert "differs from" in capsys.readouterr().err


def test_fixpoint_quantum_exact_matrix(tmp_path, capsys):
    code, doc, err = run_json(capsys, ["fixpoint", write(tmp_path, GRANDFATHER)])
    assert code == 0
    assert doc["data"]["fixed_point"] == [["1/2", "0"], ["0", "1/2"]]
    approx = doc["data"]["fixed_point_approx"]
    assert approx[0][0] == [0.5, 0.0]


def test_fixpoint_seed_selection(tmp_path, capsys):
    path = write(tmp_path, QUANTUM_DEMOS["dephase"])
    code, doc, err = run_json(capsys, ["fixpoint", path, "--seed", "basis:1"])
    assert code == 0
    assert doc["data"]["fixed_point"] == [["0", "0"], ["0", "1"]]
    code, _, _ = run(capsys, ["fixpoint", path, "--seed", "mixed"])
    assert code == 0


def test_fixpoint_bad_seed(tmp_path, capsys):
    code, out, err = run(
        capsys, ["fixpoint", write(tmp_path, GRANDFATHER), "--seed", "vortex"]
    )
    assert code == 3
    assert "unknown seed" in err


def test_fixpoint_classical_cycle(tmp_path, capsys):
    text = program_to_text(gadget_np_search(2, [False, False, True, False]))
    code, doc, err = run_json(capsys, ["fixpoint", write(tmp_path, text)])
    assert code == 0
    assert doc["data"]["cycle"] == ["10"]
    probs = doc["data"]["distribution"]["probabilities"]
    assert probs == ["0", "0", "1", "0"]


def test_fixpoint_classical_rejects_seed(tmp_path, capsys):
    text = program_to_text(gadget_np_search(2, [False] * 4))
    code, out, err = run(
        capsys, ["fixpoint", write(tmp_path, text), "--seed", "mixed"]
    )
    assert code == 3


def test_fixpoint_stochastic_distribution(tmp_path, capsys):
    code, doc, err = run_json(
        capsys, ["fixpoint", write(tmp_path, DOUBLY_STOCHASTIC)]
    )
    assert code == 0
    assert doc["data"]["distribution"]["probabilities"] == ["1/2", "1/2"]
    assert doc["data"]["multiple"] is False


def test_fixpoint_resource_cap(tmp_path, capsys):
    code, out, err = run(capsys, ["fixpoint", write(tmp_path, FOUR_QUBITS)])
    assert code == 5
    assert "resource cap" in err


# -- demo --------------------------------------------------------------------

def test_demo_grandfather(capsys):
    code, out, err = run(capsys, ["demo", "grandfather"])
    assert code == 4


def test_demo_np_search_params(capsys):
    code, doc, err = run_json(
        capsys,
        ["demo", "np-search", "--param", "n=2", "--param", "solutions=10"],
    )
    assert code == 0
    assert doc["data"]["support"] == ["10"]
    code, out, err = run(
        capsys, ["demo", "np-search", "--param", "n=2", "--param", "solutions=none"]
    )
    assert code == 1


def test_demo_np_search_bad_param(capsys):
    code, out, err = run(
        capsys, ["demo", "np-search", "--param", "n=2", "--param", "solutions=777"]
    )
    assert code == 3
    assert "bad 2-bit string" in err


@pytest.mark.parametrize(
    "demo, table, expected",
    [("np-search", "solutions", 5), ("narrow", "witnesses", 3)],
)
def test_demo_width_is_checked_before_the_table(capsys, demo, table, expected):
    # a 2^60-entry table is refused by Python without allocating, so an
    # unchecked width would surface as an internal error (exit 6)
    code, out, err = run(
        capsys, ["demo", demo, "--param", "n=60", "--param", f"{table}=none"]
    )
    assert code == expected
    assert "internal error" not in err


def test_demo_pspace(capsys):
    code, doc, err = run_json(capsys, ["demo", "pspace"])
    assert code == 0
    assert doc["data"]["halting_answer"] == 1
    assert doc["data"]["run_length"] == 3
    code, out, err = run(capsys, ["demo", "pspace", "--param", "machine=reject"])
    assert code == 1
    code, out, err = run(capsys, ["demo", "pspace", "--param", "machine=stray"])
    assert code == 0


def test_demo_pspace_unknown_machine(capsys):
    code, out, err = run(capsys, ["demo", "pspace", "--param", "machine=warp"])
    assert code == 3
    # a ValueError, so the message is not quoted as a KeyError's would be
    assert err.startswith("error: unknown machine 'warp'; available: accept, long,")


def test_unknown_gallery_names_raise_value_error():
    with pytest.raises(ValueError, match=r"^unknown demo 'warp'; available: dephase,"):
        demo_source("warp")
    with pytest.raises(ValueError, match=r"^unknown machine 'warp'; available: accept,"):
        machine_source("warp")


def test_demo_narrow_default_value(capsys):
    code, doc, err = run_json(capsys, ["demo", "narrow"])
    assert code == 0
    assert doc["data"]["exact_accept_probability"] == "1023/1039"
    assert doc["data"]["witness_count"] == 1
    code, out, err = run(capsys, ["demo", "narrow", "--param", "witnesses=none"])
    assert code == 1


def test_demo_perturb(capsys):
    code, doc, err = run_json(capsys, ["demo", "perturb", "--param", "eps=1/10"])
    assert code == 0
    data = doc["data"]
    assert data["first_stationary"] == ["1", "0"]
    assert data["second_stationary"] == ["0", "1"]
    assert data["cross_distances"] == ["1/10", "1/10"]
    assert data["within_eps"] == [True, True]


def test_demo_rejects_malformed_param(capsys):
    code, out, err = run(capsys, ["demo", "narrow", "--param", "oops"])
    assert code == 3
    assert "key=value" in err


@pytest.mark.parametrize(
    "demo, param, accepted",
    [("narrow", "epsilon=1/3", "n, eps, witnesses"), ("np-search", "N=3", "n, solutions"),
     ("grandfather", "n=2", "none")],
)
def test_demo_rejects_unknown_param_key(capsys, demo, param, accepted):
    code, out, err = run(capsys, ["demo", demo, "--param", param, "--json"])
    assert code == 3
    assert f"unknown --param key {param.split('=')[0]!r}; accepted: {accepted}" in err


def test_unknown_demo_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo", "warpdrive"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


# -- oracle --------------------------------------------------------------------

def test_oracle_matches_exact(tmp_path, capsys):
    code, doc, err = run_json(
        capsys, ["oracle", write(tmp_path, GRANDFATHER), "--steps", "4000"]
    )
    assert code == 0
    assert doc["data"]["max_deviation_approx"] < 1e-2
    assert doc["data"]["fixed_point"] == [["1/2", "0"], ["0", "1/2"]]


def test_oracle_quantum_only(tmp_path, capsys):
    text = program_to_text(gadget_np_search(2, [False] * 4))
    code, out, err = run(
        capsys, ["oracle", write(tmp_path, text), "--steps", "10"]
    )
    assert code == 3
    assert "quantum programs only" in err


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_oracle_refuses_too_few_steps_before_the_exact_work(tmp_path, capsys, monkeypatch, steps):
    def refuse(program, allow_large=False):
        raise AssertionError("projector built for an oracle with no terms")

    monkeypatch.setattr("ctcsim.cli.program_projector", refuse)
    code, out, err = run(capsys, ["oracle", write(tmp_path, GRANDFATHER), "--steps", steps])
    assert (code, out, err) == (3, "", "error: need at least one term\n")


# -- robustness ----------------------------------------------------------------

FIVE_LOOPED = """quantum
registers ctc=5 cr=1
apply X ctc[0]
apply CNOT ctc[0], cr[0]
output cr[0]
"""


@pytest.mark.parametrize(
    "command", [["decide"], ["fixpoint"], ["oracle", "--steps", "10"]]
)
def test_cap_is_checked_before_the_natural_matrix(tmp_path, capsys, monkeypatch, command):
    # q = 5 would need a 1024x1024 natural matrix; it must not be built
    def refuse(program):
        raise AssertionError("natural matrix built for an oversized program")

    monkeypatch.setattr("ctcsim.semantics.program_to_natural", refuse)
    path = write(tmp_path, FIVE_LOOPED)
    code, out, err = run(capsys, command + [path, "--allow-large"])
    assert code == 5
    assert "1024x1024" in err


TEN_QUBITS = """quantum
registers ctc=2 cr=8
apply X ctc[0]
output cr[0]
"""


def test_ten_qubit_circuit_is_refused_before_any_column_is_built(tmp_path, capsys, monkeypatch):
    def refuse(circuit, inputs):
        raise AssertionError("columns built for an oversized circuit")

    monkeypatch.setattr(QuantumCircuit, "_columns", refuse)
    code, out, err = run(capsys, ["decide", write(tmp_path, TEN_QUBITS)])
    assert code == 5
    assert err == (
        "resource cap: circuit on 10 qubits would need a 2^10x2^10 exact matrix "
        "(cap is 8 qubits)\n"
    )
    program = parse_program(TEN_QUBITS)
    with pytest.raises(ResourceLimitError):
        quantum_decide(program)
    assert not {"_unitary", "_isometry"} & set(program.circuit.__dict__)


def test_huge_register_is_refused_without_work(tmp_path, capsys):
    text = FIVE_LOOPED.replace("ctc=5", "ctc=" + "9" * 30)
    code, out, err = run(capsys, ["decide", write(tmp_path, text)])
    assert code == 5
    assert "cap is 8 qubits" in err


def _fuzz_cases(count: int, seed: int):
    """Single-character and single-line mutations of shipped sources."""
    sources = list(QUANTUM_DEMOS.values()) + [
        program_to_text(gadget_np_search(2, [False, False, True, False])),
        DOUBLY_STOCHASTIC,
    ]
    alphabet = sorted(set("".join(sources)) | set("9/-*[];i\n "))
    all_lines = [ln for src in sources for ln in src.splitlines(keepends=True)]
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        text = rng.choice(sources)
        roll = rng.random()
        if roll < 0.2:
            # a digit for a digit: register sizes, wires, matrix entries
            pos = rng.choice([k for k, c in enumerate(text) if c.isdigit()])
            text = text[:pos] + rng.choice("0123456789") + text[pos + 1:]
        elif roll < 0.6:
            pos = rng.randrange(len(text))
            op = rng.choice(["replace", "insert", "delete"])
            ch = rng.choice(alphabet)
            if op == "replace":
                text = text[:pos] + ch + text[pos + 1:]
            elif op == "insert":
                text = text[:pos] + ch + text[pos:]
            else:
                text = text[:pos] + text[pos + 1:]
        else:
            lines = text.splitlines(keepends=True)
            i = rng.randrange(len(lines))
            op = rng.choice(["delete", "duplicate", "swap", "foreign"])
            if op == "delete":
                del lines[i]
            elif op == "duplicate":
                lines.insert(i, lines[i])
            elif op == "swap":
                j = rng.randrange(len(lines))
                lines[i], lines[j] = lines[j], lines[i]
            else:
                lines[i] = rng.choice(all_lines)
            text = "".join(lines)
        cases.append(text)
    return cases


def test_mutated_sources_exit_with_documented_codes(tmp_path, capsys):
    t0 = time.perf_counter()
    seen = set()
    for n, text in enumerate(_fuzz_cases(200, seed=2669)):
        path = write(tmp_path, text, f"m{n}.ctc")
        for command in ("validate", "decide"):
            code = run_cli([command, path])
            err = capsys.readouterr().err
            assert code in {0, 1, 2, 3, 4, 5}, (command, text, err)
            seen.add(code)
    # the mutations reach past the parser: verdicts, semantic errors and
    # oversized registers occur
    assert {0, 1, 2, 3, 4, 5} <= seen
    assert time.perf_counter() - t0 < 15.0


# decides a classical and a stochastic program in a fresh interpreter and
# prints which of the float and graph libraries got loaded on the way
NO_FLOAT_LIBS_PROBE = """
import contextlib, io, sys, tempfile
from pathlib import Path
import ctcsim.cli
from ctcsim.dsl import program_to_text
from ctcsim.exact.scalars import Rational
from ctcsim.gallery import MACHINE_DEMOS
from ctcsim.semantics import gadget_narrow_np, gadget_pspace, parse_machine

def loaded():
    return sorted(m for m in ("numpy", "networkx") if m in sys.modules)

print("import", loaded())
programs = {
    "classical": gadget_pspace(parse_machine(MACHINE_DEMOS["accept"])),
    "stochastic": gadget_narrow_np(3, [False] * 7 + [True], Rational(1, 1000)),
}
with tempfile.TemporaryDirectory() as tmp:
    for kind, program in programs.items():
        path = Path(tmp) / (kind + ".ctc")
        path.write_text(program_to_text(program))
        with contextlib.redirect_stdout(io.StringIO()):
            code = ctcsim.cli.run_cli(["decide", str(path), "--json"])
        print(kind, code, loaded())
"""


def test_exact_decisions_load_neither_numpy_nor_networkx():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + sys.path))
    done = subprocess.run(
        [sys.executable, "-c", NO_FLOAT_LIBS_PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["import []", "classical 0 []", "stochastic 0 []"]


def test_no_decision_reaches_the_characteristic_polynomial(tmp_path, capsys, monkeypatch):
    # char_poly is the PSD check's test oracle; decisions eliminate instead
    runs = [
        [command, write(tmp_path, text, f"{name}.ctc")]
        for name, text in QUANTUM_DEMOS.items()
        for command in ("decide", "fixpoint")
    ]
    expected = [run(capsys, argv)[:2] for argv in runs]

    def refuse(m):
        raise AssertionError("a decision computed a characteristic polynomial")

    monkeypatch.setattr("ctcsim.exact.matrices.char_poly", refuse)
    assert [run(capsys, argv)[:2] for argv in runs] == expected
    half = Rational(1, 2)
    DensityMatrix(2, Matrix.from_rows([[half, half], [half, half]]))


def test_no_decision_builds_the_full_unitary(tmp_path, capsys, monkeypatch):
    # the channel reads the isometry; circuit_unitary serves library callers
    paths = [write(tmp_path, text, f"{name}.ctc") for name, text in QUANTUM_DEMOS.items()]
    runs = [[command, path] for path in paths for command in ("decide", "fixpoint")]
    runs += [["oracle", "--steps", "10", path] for path in paths]
    runs += [["demo", "grandfather"]]
    expected = [run(capsys, argv)[:2] for argv in runs]

    def refuse(circuit):
        raise AssertionError("a decision built the full unitary")

    monkeypatch.setattr(QuantumCircuit, "_unitary", property(refuse))
    assert [run(capsys, argv)[:2] for argv in runs] == expected


def _usage_error(capsys, parse):
    with pytest.raises(SystemExit) as exc:
        parse(["decide"])
    return exc.value.code, capsys.readouterr().err


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    cli._build_parser.cache_clear()
    usage = _usage_error(capsys, run_cli)
    assert usage[0] == 2
    assert usage == _usage_error(capsys, cli._build_parser.__wrapped__().parse_args)
    code, doc, err = run_json(
        capsys, ["demo", "np-search", "--param", "n=3", "--param", "solutions=101"]
    )
    assert (code, doc["data"]["n"]) == (0, 3)
    # a --param list from the call before must not reach this one
    code, doc, err = run_json(capsys, ["demo", "np-search"])
    assert (code, doc["data"]["n"], doc["data"]["solutions"]) == (0, 2, ["10"])
    assert run(capsys, ["decide", write(tmp_path, GRANDFATHER)])[0] == 4
    assert _usage_error(capsys, run_cli) == usage
    assert cli._build_parser.cache_info().misses == 1


# imports the CLI in a fresh interpreter: the internal-error branch's
# traceback module stays unloaded and no argparse tree is built yet
LEAN_IMPORT_PROBE = """
import sys
import ctcsim.cli
print("traceback" in sys.modules, ctcsim.cli._build_parser.cache_info().currsize)
"""


def test_importing_the_cli_builds_no_parser_and_loads_no_traceback():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + sys.path))
    done = subprocess.run(
        [sys.executable, "-c", LEAN_IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "0"]


def test_huge_classical_register_is_refused_fast(tmp_path, capsys):
    text = "classical\nregisters ctc=1000000000 cr=1\ncopy cr[0] <- ctc[0]\noutput cr[0]\n"
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["decide", write(tmp_path, text)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 5
    assert "exceeds the cap of 20" in err


def test_demo_tour_script_runs():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src")] + sys.path))
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "demo_tour.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    headers = [line for line in done.stdout.splitlines() if line.startswith("==")]
    assert headers == [
        "== quantum gallery ==",
        "== machine reduction ==",
        "== search gadget, n = 3 ==",
        "== narrow loop, single witness among 2^4 ==",
    ]
