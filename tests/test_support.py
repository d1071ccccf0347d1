"""The support candidate and the optimal-cell polish of run(): one Gram
projection per settled active pattern, checked like every other candidate."""

import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from pdhglp import demos, exact, linalg, pdhg
from pdhglp.certificates import CandidateKind
from pdhglp.linalg import SparseMatrix
from pdhglp.model import GeneralFormLp, StandardFormLp, general_form, standard_to_general
from pdhglp.pdhg import PdhgConfig, SolveStatus, Termination, kkt_residual, run

PLANTED = Path(__file__).resolve().parents[1] / "perfbench" / "planted.py"

VERDICT_CELL = {
    SolveStatus.OPTIMAL: "both_feasible",
    SolveStatus.PRIMAL_INFEASIBLE: "primal_infeasible",
    SolveStatus.DUAL_INFEASIBLE: "dual_infeasible",
    SolveStatus.BOTH_INFEASIBLE: "both_infeasible",
}

ONE_SIDED = ("primal_infeasible", "dual_infeasible")
ONE_SIDED_RULES = (Termination.OTHER_SIDE_FEASIBLE, Termination.WITNESS_SOLVE)


def _certificates(out):
    return [r for r in (out.primal_certificate, out.dual_certificate) if r]


def _other_side_residual(p, out) -> float:
    """kkt_residual's part, recomputed on p from the returned x and y, for
    the side a one-sided verdict claims feasible."""
    again = kkt_residual(p, out.x, out.y)
    return again.dual if out.status is SolveStatus.PRIMAL_INFEASIBLE else again.primal


def _polished(out) -> bool:
    """Whether run returned the polished point rather than its iterate."""
    return out.status is SolveStatus.OPTIMAL and not np.array_equal(out.x, out.state.x)


@pytest.mark.parametrize("general", [False, True], ids=["standard", "general"])
@pytest.mark.parametrize("cell", demos.CELLS)
def test_verdicts_and_certificates_over_seeds_and_intervals(cell, general):
    kinds = set()
    # Among these draws are one-sided verdicts whose moved point lies at a
    # ray step near 1e14, where a product not taken on p misses the
    # recomputed residual by more than kkt_tol.
    for seed in range(24):
        p = demos.random_cell_instance(cell, np.random.default_rng([seed, 31]))
        if general:
            p = standard_to_general(p)
        assert exact.classify_lp(p).cell == cell
        for interval, step_factor in itertools.product((20, 40, 100), (0.5, 0.9)):
            cfg = PdhgConfig(check_interval=interval, step_factor=step_factor)
            out = run(p, cfg)
            case = (seed, interval, step_factor, out.status)
            assert VERDICT_CELL.get(out.status) == cell, case
            if cell in ONE_SIDED:
                assert out.termination in ONE_SIDED_RULES, case
                assert _other_side_residual(p, out) <= cfg.kkt_tol, case
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


def test_general_form_polish_keeps_paired_rows_nonnegative():
    # standard_to_general writes each equality as rows (a, -a).  Both rows
    # of a pair can have y > 0, where a least-norm y_R splits into +w/2 and
    # -w/2; the iterate moved onto {K'y_R = c_F} keeps y >= 0 there, so the
    # general form is polished at k=80 like its standard form.
    p = demos.random_cell_instance("both_feasible", np.random.default_rng([1, 31]))
    for q in (p, standard_to_general(p)):
        out = run(q)
        assert out.termination is Termination.POLISH, q.name
        assert out.iterations == 80
    assert np.all(out.y >= 0.0)


def test_failed_polish_is_not_returned(monkeypatch):
    # A polished point that misses kkt_tol is dropped: the run goes on and
    # returns its own iterate.
    def far_off(support, x, y):
        x_p, y_p = project(support, x, y)
        return x_p + 1.0, y_p

    project = linalg.Support.project
    monkeypatch.setattr(linalg.Support, "project", far_off)
    out = run(demos.std_feasible(), PdhgConfig(check_interval=20))
    assert out.status is SolveStatus.OPTIMAL and not _polished(out)
    assert out.iterations > 40


@pytest.mark.parametrize("general", [False, True], ids=["standard", "general"])
@pytest.mark.parametrize(
    "build,status",
    [
        (demos.std_primal_infeasible, SolveStatus.PRIMAL_INFEASIBLE),
        (demos.std_dual_infeasible, SolveStatus.DUAL_INFEASIBLE),
        # Its dual iterate at k=40 violates rows that only the move along
        # the certificate's ray clears; without the move the run stops at
        # k=80.
        (
            lambda: demos.random_cell_instance(
                "primal_infeasible", np.random.default_rng([6, 31])
            ),
            SolveStatus.PRIMAL_INFEASIBLE,
        ),
    ],
    ids=["primal", "dual", "primal-needs-the-ray"],
)
def test_one_sided_verdict_ends_with_a_feasible_point_of_the_other_side(
    build, status, general
):
    # The certificate passes at the first check, and a point of the other
    # side, moved along its ray, passes kkt_residual there too.
    p = build()
    out = run(standard_to_general(p) if general else p)
    assert out.status is status
    assert out.termination is Termination.OTHER_SIDE_FEASIBLE
    assert out.iterations == 40


def test_moved_point_is_tested_on_its_own_products():
    # At k=40 this draw's y moves along the certificate by t of about 6e14.
    # There A'y + t A'w is not A'(y + t w) to kkt_tol: the moved point must
    # pass with its own product on p.a, the one its outcome reports, and is
    # the point returned.
    p = demos.random_cell_instance("primal_infeasible", np.random.default_rng([22, 29]))
    cfg = PdhgConfig(check_interval=20, step_factor=0.5)
    out = run(p, cfg)
    assert out.status is SolveStatus.PRIMAL_INFEASIBLE
    assert out.termination is Termination.OTHER_SIDE_FEASIBLE
    assert out.iterations == 40
    assert _other_side_residual(p, out) <= cfg.kkt_tol
    assert out.kkt.dual == kkt_residual(p, out.x, out.y).dual


@pytest.mark.parametrize("general", [False, True], ids=["standard", "general"])
def test_both_infeasible_never_finds_a_feasible_point(general, monkeypatch):
    # Checked every step, one side can certify before the other; neither
    # side has a feasible point, so every search for one on p must fail.
    # Only the searches of the outer run, on p itself, are recorded: the
    # witness sub-solve's problem has a feasible point by construction.
    found = []
    feasible = pdhg._other_side_feasible

    def recorded(q, *args):
        point = feasible(q, *args)
        if q is general_form(p):
            found.append(point is not None)
        return point

    monkeypatch.setattr(pdhg, "_other_side_feasible", recorded)
    problems = [demos.std_both_infeasible()] + [
        demos.random_cell_instance("both_infeasible", np.random.default_rng([s, 31]))
        for s in range(3)
    ]
    for p in problems:
        p = standard_to_general(p) if general else p
        for interval, step_factor in itertools.product((1, 7, 20, 40), (0.5, 0.9)):
            out = run(p, PdhgConfig(check_interval=interval, step_factor=step_factor))
            case = (p.name, interval, step_factor)
            assert out.status is SolveStatus.BOTH_INFEASIBLE, case
            assert out.termination is not Termination.OTHER_SIDE_FEASIBLE, case
    assert found and not any(found)


def test_witness_problem_zeroes_the_certified_side_and_keeps_the_bound_kinds():
    inf = np.inf
    p = GeneralFormLp(
        c=np.array([1.0, -2.0, 3.0]),
        a=SparseMatrix.from_dense([[1.0, 2.0, -1.0], [0.0, 1.0, 1.0]]),
        b=np.array([4.0, -1.0]),
        l=np.array([1.0, -inf, -2.0]),
        u=np.array([3.0, 2.0, inf]),
    )
    dual = pdhg._witness_problem(p, "dual")
    assert not dual.c.any()
    for name in ("b", "l", "u"):
        assert np.array_equal(getattr(dual, name), getattr(p, name))
    primal = pdhg._witness_problem(p, "primal")
    assert not primal.b.any() and np.array_equal(primal.c, p.c)
    assert np.array_equal(primal.l, [0.0, -inf, -2.0])
    assert np.array_equal(primal.u, [3.0, 2.0, inf])
    want = p.masks
    for q in (dual, primal):
        assert q.a is p.a
        got = q.masks
        for kind in ("boxed", "lower", "upper", "free"):
            assert np.array_equal(getattr(got, kind), getattr(want, kind))
    # A standard-form problem reaches it as its lowering: only b changes.
    lowered = demos.std_primal_infeasible().general
    std = pdhg._witness_problem(lowered, "primal")
    assert not std.b.any()
    for name in ("c", "l", "u", "eq"):
        assert np.array_equal(getattr(std, name), getattr(lowered, name))


@pytest.mark.parametrize("general", [False, True], ids=["standard", "general"])
def test_witness_sub_solve_decides_the_seed_4_dual_infeasible_draw(general):
    # Every feasible point of this 3 x 4 draw uses column 1, which the
    # iterate keeps at 0 for hundreds of steps, so the ray move finds none
    # at the first certificate; the sub-solve on p with c = 0 finds one.
    p = demos.random_cell_instance("dual_infeasible", np.random.default_rng([4, 29]))
    p = standard_to_general(p) if general else p
    for interval, step_factor in itertools.product((20, 40, 100), (0.5, 0.9)):
        cfg = PdhgConfig(check_interval=interval, step_factor=step_factor)
        out = run(p, cfg)
        case = (interval, step_factor)
        assert out.status is SolveStatus.DUAL_INFEASIBLE, case
        assert out.termination is Termination.WITNESS_SOLVE, case
        assert out.iterations <= 500, case
        assert kkt_residual(p, out.x, out.y).primal <= cfg.kkt_tol, case
        rep = out.dual_certificate
        assert rep.exact is True, case
        assert exact.verify_certificate_exact(rep.vector, p, "dual").valid, case


def test_witness_sub_solve_finds_the_second_certificate():
    # The primal certificate passes at k=40 and no dual-feasible point is
    # found; the sub-solve on p with b = 0 returns the dual certificate
    # after 40 steps of its own.
    p = demos.random_cell_instance("both_infeasible", np.random.default_rng([1, 29]))
    out = run(p, PdhgConfig(check_interval=40, step_factor=0.9))
    assert out.status is SolveStatus.BOTH_INFEASIBLE
    assert out.termination is Termination.WITNESS_SOLVE
    assert out.iterations == 80
    assert out.primal_certificate.k == 40 and out.dual_certificate.k == 80
    for rep in _certificates(out):
        assert rep.exact is True
        assert exact.verify_certificate_exact(rep.vector, p, rep.side).valid


def test_one_eigh_per_projected_pattern(monkeypatch, no_verdict):
    # ex1(0,2) is primal infeasible.  no_verdict keeps every certificate
    # and every optimal point from passing, so the run makes no sub-solve
    # and projects on each pattern that settles up to its budget.
    calls = []
    eigh = np.linalg.eigh

    def counted(g):
        calls.append(g.shape)
        return eigh(g)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    cfg = PdhgConfig(max_iters=2000, check_interval=20)
    out = run(demos.example1(0.0, 2.0), cfg)
    assert out.termination is Termination.BUDGET and out.iterations == 2000
    projections = sum(t.seq == "support" for t in out.trace)
    assert projections >= 1 and len(calls) == projections


def test_one_projection_per_settled_pattern(monkeypatch):
    # A support is its columns, its rows and where the other columns are
    # held, which tells a column at its lower bound from one at its upper.
    patterns = []
    within_cap = linalg.Support.within_cap

    def recorded(a, c, b, cols, rows, x):
        held = np.where(cols, 0.0, x)
        patterns.append((cols.tobytes(), rows.tobytes(), held.tobytes()))
        return within_cap(a, c, b, cols, rows, x)

    monkeypatch.setattr(linalg.Support, "within_cap", recorded)
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
    copies = linalg.GRAM_MAX_ORDER // p.m + 1
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
