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
