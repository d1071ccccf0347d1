"""The support candidate and the optimal-cell polish of run(): one Gram
projection per settled active pattern, checked like every other candidate."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from pdhglp import demos, exact, linalg, pdhg
from pdhglp.certificates import CandidateKind
from pdhglp.linalg import SparseMatrix
from pdhglp.model import GeneralFormLp, StandardFormLp, standard_to_general
from pdhglp.pdhg import PdhgConfig, SolveStatus, kkt_residual, run

PLANTED = Path(__file__).resolve().parents[1] / "perfbench" / "planted.py"

VERDICT_CELL = {
    SolveStatus.OPTIMAL: "both_feasible",
    SolveStatus.PRIMAL_INFEASIBLE: "primal_infeasible",
    SolveStatus.DUAL_INFEASIBLE: "dual_infeasible",
    SolveStatus.BOTH_INFEASIBLE: "both_infeasible",
}


def _certificates(out):
    return [r for r in (out.primal_certificate, out.dual_certificate) if r]


def _polished(out) -> bool:
    """Whether run returned the polished point rather than its iterate."""
    return out.status is SolveStatus.OPTIMAL and not np.array_equal(out.x, out.state.x)


@pytest.mark.parametrize("general", [False, True], ids=["standard", "general"])
@pytest.mark.parametrize("cell", demos.CELLS)
def test_verdicts_and_certificates_over_seeds_and_intervals(cell, general):
    kinds = set()
    for seed in range(6):
        p = demos.random_cell_instance(cell, np.random.default_rng([seed, 31]))
        if general:
            p = standard_to_general(p)
        assert exact.classify_lp(p).cell == cell
        for interval in (20, 40, 100):
            cfg = PdhgConfig(check_interval=interval)
            out = run(p, cfg)
            assert VERDICT_CELL.get(out.status) == cell, (seed, interval, out.status)
            for rep in _certificates(out):
                kinds.add(rep.kind)
                assert rep.exact is True
                assert exact.verify_certificate_exact(rep.vector, p, rep.side).valid
            if out.status is SolveStatus.OPTIMAL:
                assert out.kkt.max <= cfg.kkt_tol
                again = kkt_residual(p, out.x, out.y, out.r)
                assert again.max <= cfg.kkt_tol
    if cell != "both_feasible":
        assert CandidateKind.SUPPORT in kinds


def test_polish_returns_a_checked_point_off_the_iterate():
    # Checked every 20 steps, std_feasible's pattern holds from k=20 to
    # k=40, where the polish solves the LP to KKT 0; the iterate is not
    # there yet.
    p = demos.std_feasible()
    cfg = PdhgConfig(check_interval=20)
    out = run(p, cfg)
    assert _polished(out)
    assert out.iterations == 40
    assert out.kkt.max == kkt_residual(p, out.x, out.y).max <= cfg.kkt_tol
    assert out.primal_objective == pytest.approx(2.0, abs=1e-12)
    assert kkt_residual(p, out.state.x, out.state.y).max > cfg.kkt_tol


def test_failed_polish_is_not_returned(monkeypatch):
    # A polished point that misses kkt_tol is dropped: the run goes on and
    # returns its own iterate.
    def far_off(ps, a, x, pattern):
        d, w, x_opt, y_opt = support_point(ps, a, x, pattern)
        return d, w, x_opt + 1.0, y_opt

    support_point = pdhg._support_point
    monkeypatch.setattr(pdhg, "_support_point", far_off)
    out = run(demos.std_feasible(), PdhgConfig(check_interval=20))
    assert out.status is SolveStatus.OPTIMAL and not _polished(out)
    assert out.iterations > 40


def test_one_projection_per_settled_pattern(monkeypatch):
    patterns = []
    support_point = pdhg._support_point

    def recorded(ps, a, x, pattern):
        patterns.append(pattern.tobytes())
        return support_point(ps, a, x, pattern)

    monkeypatch.setattr(pdhg, "_support_point", recorded)
    cfg = PdhgConfig(max_iters=2000, eps=1e-300, kkt_tol=1e-300, check_interval=20)
    for p in (demos.example1(0.0, 1.0), demos.std_both_infeasible()):
        patterns.clear()
        out = run(p, cfg)
        assert patterns and len(patterns) == len(set(patterns))
        assert len(patterns) == sum(t.seq == "support" for t in out.trace)


@pytest.mark.parametrize("general", [False, True], ids=["standard", "general"])
def test_no_projection_past_the_gram_limit(general):
    # Over 1000 rows of std_both_infeasible copies; tolerances of 1e-300
    # keep the run going past checks whose pattern held, where a smaller
    # support would be projected.
    p = demos.std_both_infeasible()
    copies = pdhg._GRAM_MAX_ORDER // p.m + 1
    p = demos.block_copies(standard_to_general(p) if general else p, copies)
    out = run(p, PdhgConfig(max_iters=200, eps=1e-300, kkt_tol=1e-300))
    assert any(t.k > 40 and not t.active_changed for t in out.trace)
    assert not any(t.seq == "support" for t in out.trace)


def _planted_module():
    spec = importlib.util.spec_from_file_location("perfbench_planted", PLANTED)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the class is built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _planted_lp(q):
    a = SparseMatrix.from_triplets(q.m, q.n, q.rows, q.cols, q.vals.astype(float))
    c, b = q.c.astype(float), q.b.astype(float)
    if q.form == "standard":
        return StandardFormLp(c=c, a=a, b=b, name=q.name)
    return GeneralFormLp(c=c, a=a, b=b, l=q.l, u=q.u, name=q.name)


def test_one_projection_per_planted_300x1200_item():
    # The benchmark's sparse corpus: planted instances in every cell and
    # both forms, at its size and solver settings.
    planted = _planted_module()
    rng = np.random.default_rng(0)
    cfg = PdhgConfig(max_iters=200_000, eps=1e-8, kkt_tol=1e-8)
    for form in planted.FORMS:
        for cell in planted.CELLS:
            q = planted.planted_instance(cell, form, 300, 1200, 8, rng)
            p = _planted_lp(q)
            assert p.m * p.n > linalg.DENSE_LIMIT
            out = run(p, cfg)
            assert VERDICT_CELL.get(out.status) == cell, (form, cell)
            assert sum(t.seq == "support" for t in out.trace) == 1, (form, cell)
            assert out.iterations <= 1000, (form, cell)
            for rep in _certificates(out):
                assert rep.kind is CandidateKind.SUPPORT
