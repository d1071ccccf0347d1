"""The periodic check of run() takes every product it reads from the
problem's own A, once, and shares A x^k and A'y^k among the KKT residuals
and the normalized iterate; these tests hold it to the products a fresh
check would compute, and count them."""

import numpy as np
import pytest

from pdhglp import certificates as certs
from pdhglp import demos, linalg, pdhg
from pdhglp.linalg import SparseMatrix
from pdhglp.model import (
    GeneralFormLp,
    general_form,
    standard_to_general,
    to_standard_form,
)
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
# The general-form desk demos copied past linalg.DENSE_LIMIT, where A is stored
# in CSR.
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
        # The normalized iterate's carried products are the same sums in
        # another order ((A'y)/k against A'(y/k)), so they agree to
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

    def extract_both(state, kind, ax=None, aty=None):
        cand = extract(state, kind, ax, aty)
        # Only the normalized iterate carries products.
        carries = kind is certs.CandidateKind.NORMALIZED_ITERATE
        assert (cand.ax is not None) == (cand.aty is not None) == carries
        fresh[id(cand)] = (cand, extract(state, kind))
        counts["candidates"] += 1
        return cand

    def fresh_twin(cand, p):
        if id(cand) not in fresh:
            # The support candidate does not come from extract and carries
            # no products; its twin has the same parts.
            assert cand.kind is certs.CandidateKind.SUPPORT
            assert cand.ax is None and cand.aty is None
            twin = certs.CertificateCandidate(cand.kind, cand.k, cand.x_part, cand.y_part)
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
        # 102 x 102, past linalg.DENSE_LIMIT: A is stored in CSR.
        demos.block_copies(demos.example1(1.0, 2.0), 34),
    ],
    ids=["ex1(1,2)", "ex1(0,1)", "std-both-infeasible", "ex1(1,2)*34"],
)
def test_check_costs_six_products(p, monkeypatch, no_verdict):
    counts = {"products": 0, "zero parts": 0}
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
        return make_operator(p, steps)

    repair = pdhg._repair

    def uncounted_repair(rep, p):
        # The exact repair's products (a repaired primal report's reduced
        # costs) are not the check's.
        before = counts["products"]
        repair(rep, p)
        counts["products"] = before

    def zero_parts_counted(check, part, product):
        def wrapper(cand, *args):
            # A side test returns at once on a zero part, with no product.
            zero = not np.abs(getattr(cand, part)).any()
            counts["zero parts"] += zero and getattr(cand, product) is None
            return check(cand, *args)

        return wrapper

    monkeypatch.setattr(pdhg, "make_operator", make_counted_operator)
    monkeypatch.setattr(pdhg, "_repair", uncounted_repair)
    for attr, part, product in (
        ("check_primal_infeasibility", "y_part", "aty"),
        ("check_dual_infeasibility", "x_part", "ax"),
    ):
        check = zero_parts_counted(getattr(certs, attr), part, product)
        monkeypatch.setattr(certs, attr, check)
    for attr in ("matvec", "rmatvec"):
        monkeypatch.setattr(SparseMatrix, attr, counted(getattr(SparseMatrix, attr)))
    out = run(p, PdhgConfig(max_iters=400, check_interval=40))
    checks = len({t.k for t in out.trace})
    projections = sum(t.seq == "support" for t in out.trace)
    assert checks > 1 and projections >= 1
    # The steps run on the operator's stacked blocks and make none of these
    # products.  Each check makes six: A x^k and A'y^k, then one per side
    # for the difference and one per side for the average.  A support
    # projection works on its own copy of the support block; its candidate
    # and its polished point then take one product per side each.  The
    # test of a zero part of a candidate that carries no product takes
    # none.
    assert counts["products"] == 6 * checks + 4 * projections - counts["zero parts"]


@pytest.mark.parametrize(
    "p",
    [
        demos.example1(1.0, 2.0),
        demos.std_primal_infeasible(),
        demos.block_copies(demos.example1(1.0, 2.0), 34),
        demos.block_copies(demos.std_primal_infeasible(), 41),
    ],
    ids=["ex1(1,2)", "std-primal-infeasible", "ex1(1,2)*34", "std-primal-infeasible*41"],
)
def test_check_products_are_of_the_problems_own_matrix(p, monkeypatch):
    # Dense and CSR storage alike, every A x and A'y a check reads is the
    # product of p's A on the point it goes with, to the bit: no product
    # of the scaled matrix is pulled back.
    q = general_form(p)
    kkt_residual, extract = pdhg.kkt_residual, certs.extract
    seen = {"kkt": 0, "iterates": 0}

    def bits(v):
        return np.asarray(v).tobytes()

    def checked_kkt(lp, x, y, r=None, ax=None, aty=None):
        assert lp is q
        if ax is not None:
            assert bits(ax) == bits(q.a.matvec(x))
            assert bits(aty) == bits(q.a.rmatvec(y))
            seen["kkt"] += 1
        return kkt_residual(lp, x, y, r, ax, aty)

    def checked_extract(state, kind, *products):
        cand = extract(state, kind, *products)
        if kind is certs.CandidateKind.NORMALIZED_ITERATE:
            k = state.k
            assert bits(cand.ax) == bits(q.a.matvec(state.x) / k)
            assert bits(cand.aty) == bits(q.a.rmatvec(state.y) / k)
            seen["iterates"] += 1
        return cand

    monkeypatch.setattr(pdhg, "kkt_residual", checked_kkt)
    monkeypatch.setattr(certs, "extract", checked_extract)
    out = run(p)
    checks = len({t.k for t in out.trace})
    assert seen["iterates"] == checks > 0
    assert seen["kkt"] >= checks
