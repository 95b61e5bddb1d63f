"""The scripts run from a checkout that is not installed, as README gives them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "name, expected",
    [("demo_tour.py", "== quantum gallery =="), ("scale_gate.py", " 4 refused: ")],
    ids=["demo_tour", "scale_gate"],
)
def test_script_runs_without_pythonpath(tmp_path, name, expected):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout


@pytest.mark.parametrize("value", ["0", "4"])
def test_scale_gate_refuses_qubits_outside_its_timing_loop(value):
    """q = 4 has its own branch, so a timing loop past 3 would die on the cap;
    such a value is a usage error instead of a traceback."""
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "scale_gate.py"), "--allow-large", "--max-qubits", value],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 2
    assert "invalid choice" in done.stderr
    assert "Traceback" not in done.stderr
