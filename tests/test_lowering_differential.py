"""The standard form solved as its lowering, against frozen copies of the
standard-form formulas the solver used before.

make_operator, kkt_residual, the two certificate tests and run take a
standard-form problem p as its lowering p.general (-A x = -b on equality
rows, 0 <= x), where y keeps the standard iteration's sign.  The copies
(reference_kkt, reference_primal_test, reference_dual_test) are kept here,
and only here, so that the lowering can be held to them: the same step
sizes, scaling factors, trajectories, KKT parts and certificate figures,
to the bit.
"""

import numpy as np
import pytest

from pdhglp import certificates as certs
from pdhglp import demos, linalg
from pdhglp.linalg import StepSizes, max0
from pdhglp.pdhg import PdhgConfig, StandardFormOperator, kkt_residual, make_operator, run
from pdhglp.scaling import ruiz_pock_chambolle

# ---------------------------------------------------------------------------
# The reference: the standard-form branches of kkt_residual and of the two
# certificate tests.


def reference_kkt(p, x, y):
    ax, aty = p.a.matvec(x), p.a.rmatvec(y)
    primal = max(max0(np.abs(ax - p.b)), max0(-x))
    dual = max0(-aty - p.c)
    pobj, dobj = float(p.c @ x), -float(p.b @ y)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    b_scale, c_scale = 1.0 + max0(np.abs(p.b)), 1.0 + max0(np.abs(p.c))
    return primal / b_scale, dual / c_scale, gap


def _figures(obj, residual):
    """(objective_term, scaled_error) of a test."""
    return obj, (residual / obj if obj > 0.0 else None)


def reference_primal_test(p, y):
    return _figures(-float(p.b @ y), max0(-p.a.rmatvec(y)))


def reference_dual_test(p, d):
    return _figures(-float(p.c @ d), max(max0(np.abs(p.a.matvec(d))), max0(-d)))


# ---------------------------------------------------------------------------


def _problems():
    probs = [demos.DEMO_BUILDERS[name]() for name in sorted(demos.DEMO_BUILDERS) if name != "ex1"]
    for cell in demos.CELLS:
        probs += [demos.random_cell_instance(cell, np.random.default_rng([s, 29])) for s in range(3)]
    big = demos.block_copies(demos.std_both_infeasible(), 41, seed=3)
    assert big.m * big.n > linalg.DENSE_LIMIT  # the operator's blocks are CSR
    return probs + [big]


PROBLEMS = _problems()
IDS = [f"{i}-{p.name}" for i, p in enumerate(PROBLEMS)]


@pytest.mark.parametrize("p", PROBLEMS, ids=IDS)
def test_lowered_step_is_the_standard_step_to_the_bit(p):
    steps = StepSizes.for_matrix(p.a)
    assert StepSizes.for_matrix(p.general.a) == steps
    for got, want in zip(ruiz_pock_chambolle(p.general.a), ruiz_pock_chambolle(p.a)):
        assert got.tobytes() == want.tobytes()
    z0 = np.random.default_rng(p.m * p.n).standard_normal(p.n + p.m)
    got = make_operator(p, steps).trajectory(z0, 2000)
    want = StandardFormOperator(p, steps).trajectory(z0, 2000)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", PROBLEMS, ids=IDS)
def test_kkt_and_certificate_figures_are_the_standard_formulas(p):
    out = run(p, PdhgConfig(max_iters=2000))
    rng = np.random.default_rng(p.m + p.n)
    points = [(out.x, out.y), (out.state.x, out.state.y), (np.zeros(p.n), np.zeros(p.m))]
    points += [(rng.standard_normal(p.n), rng.standard_normal(p.m)) for _ in range(5)]
    for rep in (out.primal_certificate, out.dual_certificate):
        if rep is not None:
            vec = rep.vector
            points.append((vec, np.zeros(p.m)) if rep.side == "dual" else (np.zeros(p.n), vec))
    for x, y in points:
        kkt = kkt_residual(p, x, y)
        assert (kkt.primal, kkt.dual, kkt.gap) == reference_kkt(p, x, y)
        cand = certs.CertificateCandidate(certs.CandidateKind.DIFFERENCE, 1, x, y)
        if y.any():
            rep = certs.check_primal_infeasibility(cand, p, 1e-8)
            assert (rep.objective_term, rep.scaled_error) == reference_primal_test(p, y)
        if x.any():
            rep = certs.check_dual_infeasibility(cand, p, 1e-8)
            assert (rep.objective_term, rep.scaled_error) == reference_dual_test(p, x)
