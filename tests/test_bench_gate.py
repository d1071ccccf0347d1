"""The benchmark's own instances, run as tests.

Every desk item at seed 3 is solved at the default PdhgConfig and must pass
perfbench/check.py's check_solve, whose certificate re-check is
exact.verify_certificate_exact, and none may end by waiting out the grace
window.  Every general-form sparse item, written as MPS, must read back as
exactly the planted problem it was written from.
The perfbench modules are loaded read-only; the instance files go under
pytest's tmp_path."""

import numpy as np

from pdhglp import instance_io, pdhg
from pdhglp.mps import load_mps
from pdhglp.pdhg import PdhgConfig


def test_desk_items_pass_the_bench_gate(tmp_path, monkeypatch, perfbench):
    monkeypatch.chdir(tmp_path)
    perfbench("planted")
    corpus = perfbench("corpus")
    check = perfbench("check")
    items = corpus.setup_desk(3)
    assert len(items) == 56
    config = PdhgConfig()
    failed = []
    waited = []
    for item in items:
        outcome = pdhg.run(instance_io.load_problem(item.path), config)
        verdict = check.check_solve(item, outcome, config.eps)
        if not verdict.passed:
            failed.append(f"{item.name}: {verdict.reason}")
        if outcome.termination is pdhg.Termination.GRACE_DEADLINE:
            waited.append(item.name)
    assert not failed, failed
    # Every one-sided desk verdict ends on a feasible point of the other
    # side, never by waiting out the grace window.
    assert not waited, waited


def test_sparse_mps_items_load_as_planted(tmp_path, monkeypatch, perfbench):
    monkeypatch.chdir(tmp_path)
    perfbench("planted")
    corpus = perfbench("corpus")
    items = [it for it in corpus.setup_sparse(3) if it.form == "general"]
    assert len(items) == 4
    for item in items:
        assert item.path.endswith(".mps")
        got = load_mps(item.path)
        want = corpus.planted_to_lp(item.planted)
        assert got.a.same_entries(want.a), item.name
        for field in ("c", "b", "l", "u"):
            g, w = getattr(got, field), getattr(want, field)
            assert g.dtype == w.dtype == np.float64
            assert g.tobytes() == w.tobytes(), (item.name, field)
        assert got.name == want.name
        assert got.objective_offset == want.objective_offset
