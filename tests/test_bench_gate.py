"""The benchmark's desk gate, run as a test: every desk item at seed 3 is
solved at the default PdhgConfig and must pass perfbench/check.py's
check_solve, whose certificate re-check is exact.verify_certificate_exact.
The perfbench modules are loaded read-only; the instance files go under
pytest's tmp_path."""

import importlib.util
import sys
from pathlib import Path

from pdhglp import instance_io, pdhg
from pdhglp.pdhg import PdhgConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    # perfbench's modules import one another by bare name.
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_desk_items_pass_the_bench_gate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _load("planted", monkeypatch)
    corpus = _load("corpus", monkeypatch)
    check = _load("check", monkeypatch)
    items = corpus.setup_desk(3)
    assert len(items) == 56
    config = PdhgConfig()
    failed = []
    for item in items:
        outcome = pdhg.run(instance_io.load_problem(item.path), config)
        verdict = check.check_solve(item, outcome, config.eps)
        if not verdict.passed:
            failed.append(f"{item.name}: {verdict.reason}")
    assert not failed, failed
