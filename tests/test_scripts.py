"""The scripts under scripts/ run end to end on a desk demo and exit 0.

They import the package from src/ of this checkout and name its operator
classes, so a rename there breaks them before any test of the library."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["step_probe.py", "--steps", "20", "--repeat", "1"],
        ["rate_study.py", "--demo", "std-both-infeasible", "--iters", "3000", "--warm", "1000"],
    ],
    ids=["step_probe", "rate_study"],
)
def test_script_exits_zero(argv):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
