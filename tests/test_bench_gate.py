"""The benchmark's own instances, run as tests.

Every desk item at seed 3 is solved at the default PdhgConfig and must pass
perfbench/check.py's check_solve, whose certificate re-check is
exact.verify_certificate_exact, and every one-sided verdict must return a
feasible point of the other side.  Every general-form sparse item, written
as MPS, must read back as exactly the planted problem it was written from.
The perfbench modules are loaded read-only; the instance files go under
pytest's tmp_path."""

import numpy as np

from pdhglp import instance_io, pdhg
from pdhglp.mps import load_mps
from pdhglp.pdhg import PdhgConfig, SolveStatus, Termination, kkt_residual


def test_desk_items_pass_the_bench_gate(tmp_path, monkeypatch, perfbench):
    monkeypatch.chdir(tmp_path)
    perfbench("planted")
    corpus = perfbench("corpus")
    check = perfbench("check")
    items = corpus.setup_desk(3)
    assert len(items) == 56
    config = PdhgConfig()
    one_sided = (SolveStatus.PRIMAL_INFEASIBLE, SolveStatus.DUAL_INFEASIBLE)
    rules = (Termination.OTHER_SIDE_FEASIBLE, Termination.WITNESS_SOLVE)
    failed = []
    unproven = []
    for item in items:
        p = instance_io.load_problem(item.path)
        outcome = pdhg.run(p, config)
        verdict = check.check_solve(item, outcome, config.eps)
        if not verdict.passed:
            failed.append(f"{item.name}: {verdict.reason}")
        if outcome.status in one_sided:
            # The verdict claims the other side feasible: it must end on a
            # point of that side, found by the ray move or the sub-solve,
            # that passes kkt_tol recomputed on the instance.
            again = kkt_residual(p, outcome.x, outcome.y)
            primal = outcome.status is SolveStatus.PRIMAL_INFEASIBLE
            residual = again.dual if primal else again.primal
            if outcome.termination not in rules or residual > config.kkt_tol:
                unproven.append((item.name, outcome.termination.value, residual))
    assert not failed, failed
    assert not unproven, unproven


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
