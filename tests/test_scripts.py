"""The scripts under scripts/ run end to end on small inputs and exit 0.

They import the package from src/ of this checkout and name its operator
classes, so a rename there breaks them before any test of the library."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from pdhglp import demos
from pdhglp.instance_io import save_problem

from helpers import block_copies

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["step_probe.py", "--steps", "20", "--repeat", "1"], ""),
        (
            ["rate_study.py", "--demo", "std-both-infeasible", "--iters", "3000", "--warm", "1000"],
            "(2/k) bound worst slack",
        ),
        # Exits 0 only when the solver's verdict is the oracle's cell on all
        # 8 desk demos and 8 random cell instances.
        (["demo_sweep.py", "--per-cell", "2", "--include-desk"], "agreement: 16/16"),
        # An empty directory: every default instance is listed as missing.
        (
            ["netlib_report.py", "--dir", "{tmp_path}"],
            "missing (skipped): box1, woodinfe, ex72a, ex73a, bgdbg1, chemcom",
        ),
    ],
    ids=["step_probe", "rate_study", "demo_sweep", "netlib_report"],
)
def test_script_exits_zero(argv, expected, tmp_path):
    argv = [a.format(tmp_path=tmp_path) for a in argv]
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
    assert expected in done.stdout


# std-both-infeasible copied k times lowers to 2k x 3k: fused blocks fit in
# linalg.DENSE_LIMIT entries at k = 1, dense A at k = 20, and A is CSR at
# k = 41.
@pytest.mark.parametrize("copies,storage", [(1, "fused"), (20, "dense"), (41, "csr")])
def test_step_probe_prints_the_operators_storage(copies, storage, tmp_path):
    path = tmp_path / "instance.json"
    save_problem(block_copies(demos.std_both_infeasible(), copies), path)
    argv = [str(SCRIPTS / "step_probe.py"), str(path), "--steps", "20", "--repeat", "1"]
    done = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    load, _, *table = done.stdout.splitlines()
    ms, size = re.fullmatch(r"load (\d+\.\d{3}) ms \(best of 1\), (\d+) bytes", load).groups()
    assert float(ms) > 0 and int(size) == path.stat().st_size
    rows = [line.split()[:2] for line in table]
    assert rows == [["lowered", storage], ["shifted", storage]]
