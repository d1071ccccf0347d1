"""The periodic check of run() makes its own products once and shares them
among the KKT residuals and the certificate tests; these tests hold it to
the products a fresh check would compute, and count them."""

import numpy as np
import pytest

from pdhglp import certificates as certs
from pdhglp import demos, linalg, pdhg
from pdhglp.linalg import SparseMatrix
from pdhglp.model import GeneralFormLp, standard_to_general, to_standard_form
from pdhglp.pdhg import PdhgConfig, run


def _desk_demos():
    """ex1 in its four cells and the std-* demos, each in both forms."""
    out = []
    for alpha, beta in ((0.0, 1.0), (1.0, 2.0), (0.0, 2.0), (1.0, 1.0)):
        p = demos.example1(alpha, beta)
        out += [(f"ex1({alpha:g},{beta:g})", p)]
        out += [(f"ex1({alpha:g},{beta:g})_std", to_standard_form(p)[0])]
    for name in sorted(demos.DEMO_BUILDERS):
        if name.startswith("std-"):
            p = demos.DEMO_BUILDERS[name]()
            out += [(name, p), (f"{name}_gen", standard_to_general(p))]
    return out


DESK = _desk_demos()
# The general-form desk demos copied past linalg.DENSE_LIMIT, where run iterates
# the scaled operator and its checks pull the products back.
BLOCKS = [
    (f"{name}*{copies}", demos.block_copies(p, copies))
    for name, p in DESK
    if isinstance(p, GeneralFormLp)
    for copies in [int(np.sqrt(linalg.DENSE_LIMIT / (p.m * p.n))) + 1]
]


def _same_report(got, want):
    assert got.passed == want.passed
    assert got.reasons == want.reasons
    if want.scaled_error is None:
        assert got.scaled_error is None
    else:
        # The cached products are the same sums in another order (dense
        # BLAS against sparse, (A'y)/k against A'(y/k)), so they agree to
        # rounding.
        assert got.scaled_error == pytest.approx(want.scaled_error, rel=1e-9)


@pytest.mark.parametrize("name,p", DESK + BLOCKS, ids=[n for n, _ in DESK + BLOCKS])
def test_cached_check_matches_fresh_check(name, p, monkeypatch):
    extract = certs.extract
    checks = {
        attr: getattr(certs, attr)
        for attr in (
            "check_primal_infeasibility",
            "check_dual_infeasibility",
        )
    }
    # id(candidate) -> (candidate, its fresh twin); holding the candidate
    # keeps its id from being reused.
    fresh = {}
    counts = {"candidates": 0, "reports": 0}

    def extract_both(state, kind, products=None):
        cand = extract(state, kind, products)
        assert cand.ax is not None and cand.aty is not None
        fresh[id(cand)] = (cand, extract(state, kind))
        counts["candidates"] += 1
        return cand

    def fresh_twin(cand, p):
        if id(cand) not in fresh:
            # The support candidate does not come from extract; its twin
            # has the same parts and takes its products from p.
            assert cand.kind is certs.CandidateKind.SUPPORT
            assert cand.ax is not None and cand.aty is not None
            twin = certs.candidate(cand.kind, cand.k, cand.x_part, cand.y_part)
            fresh[id(cand)] = (cand, twin)
            counts["candidates"] += 1
        return fresh[id(cand)][1]

    def compared(check):
        def wrapper(cand, p, eps, *args):
            got = check(cand, p, eps, *args)
            want = check(fresh_twin(cand, p), p, eps)
            pairs = zip(got, want) if isinstance(got, tuple) else [(got, want)]
            for g, w in pairs:
                _same_report(g, w)
                counts["reports"] += 1
            return got

        return wrapper

    monkeypatch.setattr(certs, "extract", extract_both)
    for attr, check in checks.items():
        monkeypatch.setattr(certs, attr, compared(check))
    out = run(p)
    assert counts["candidates"] == len(out.trace) > 0
    assert counts["reports"] == 2 * counts["candidates"]


@pytest.mark.parametrize(
    "p",
    [
        demos.example1(1.0, 2.0),
        demos.example1(0.0, 1.0),
        demos.std_both_infeasible(),
        # 102 x 102, past linalg.DENSE_LIMIT: run iterates the scaled operator and
        # pulls its products back for the checks.
        demos.block_copies(demos.example1(1.0, 2.0), 34),
    ],
    ids=["ex1(1,2)", "ex1(0,1)", "std-both-infeasible", "ex1(1,2)*34"],
)
def test_check_costs_six_products(p, monkeypatch):
    counts = {"products": 0}
    make_operator = pdhg.make_operator

    def counted(f):
        def wrapper(*args):
            counts["products"] += 1
            return f(*args)

        return wrapper

    def make_counted_operator(p, steps):
        # The operator is the last piece of set-up: products before it are
        # the step sizes' norm estimate, which a solve pays once.
        counts["products"] = 0
        op = make_operator(p, steps)
        op._mat, op._rmat = counted(op._mat), counted(op._rmat)
        return op

    repair = pdhg._repair

    def uncounted_repair(rep, p):
        # The exact repair's products (a repaired primal report's reduced
        # costs) are not the check's.
        before = counts["products"]
        repair(rep, p)
        counts["products"] = before

    monkeypatch.setattr(pdhg, "make_operator", make_counted_operator)
    monkeypatch.setattr(pdhg, "_repair", uncounted_repair)
    for attr in ("matvec", "rmatvec"):
        monkeypatch.setattr(SparseMatrix, attr, counted(getattr(SparseMatrix, attr)))
    cfg = PdhgConfig(max_iters=400, eps=1e-300, kkt_tol=1e-300, check_interval=40)
    out = run(p, cfg)
    checks = len({t.k for t in out.trace})
    projections = sum(t.seq == "support" for t in out.trace)
    assert checks > 1 and projections >= 1
    # The steps run on the operator's stacked blocks and make none of these
    # products.  Each check makes six: A x^k and A'y^k, then one per side
    # for the difference and one per side for the average.  A support
    # projection works on its own copy of the support block; its candidate
    # and its polished point then take one product per side each.
    assert counts["products"] == 6 * checks + 4 * projections
