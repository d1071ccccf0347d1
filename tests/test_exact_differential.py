"""exact's certificate test and repair against a frozen copy of the earlier
implementation, which wrote each form's sign conditions out by hand.

The copy (reference_verify, reference_repair) is kept here, and only here,
so that the conditions exact derives from its feasibility systems can be
compared with the hand-written ones: the same validity on every vector,
the same repair of the certificates pdhg.run returns, and only repairs that
pass the exact test.

The oracle reads a standard-form problem through its lowering and an
equality row as such; both are also held here to the pair embedding
(standard_to_general, _pair_expanded), which shares no code with them.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdhglp import demos, exact, pdhg
from pdhglp.exact import exactify_vector, repair_certificate, verify_certificate_exact
from pdhglp.linalg import SparseMatrix
from pdhglp.model import GeneralFormLp, StandardFormLp, standard_to_general
from test_mps_differential import _pair_expanded

# ---------------------------------------------------------------------------
# The reference: per-form sign checks and a repair on (equalities,
# inequalities) of each side.


def _frac(x):
    return Fraction(float(x))


def reference_verify(cert, p, kind) -> bool:
    vec = exactify_vector(cert)
    a = p.a.to_dense()
    if all(v == 0 for v in vec):
        return False
    ok = True
    if isinstance(p, StandardFormLp):
        if kind == "primal":
            aty = [sum(_frac(a[r][i]) * vec[r] for r in range(p.m)) for i in range(p.n)]
            ok &= all(v >= 0 for v in aty)
            ok &= sum(_frac(p.b[r]) * vec[r] for r in range(p.m)) < 0
        else:
            ok &= all(v >= 0 for v in vec)
            ax = [sum(_frac(a[r][i]) * vec[i] for i in range(p.n)) for r in range(p.m)]
            ok &= all(v == 0 for v in ax)
            ok &= sum(_frac(p.c[i]) * vec[i] for i in range(p.n)) < 0
        return ok
    masks = p.masks
    if kind == "primal":
        ok &= all(v >= 0 for v in vec)
        aty = [sum(_frac(a[r][i]) * vec[r] for r in range(p.m)) for i in range(p.n)]
        obj = sum(_frac(p.b[r]) * vec[r] for r in range(p.m))
        for i in range(p.n):
            r_i = -aty[i]
            if masks.free[i]:
                ok &= r_i == 0
            elif masks.lower[i]:
                ok &= r_i >= 0
                obj += _frac(p.l[i]) * r_i if r_i >= 0 else 0
            elif masks.upper[i]:
                ok &= r_i <= 0
                obj += _frac(p.u[i]) * r_i if r_i <= 0 else 0
            else:
                obj += _frac(p.l[i]) * max(r_i, Fraction(0))
                obj -= _frac(p.u[i]) * max(-r_i, Fraction(0))
        return ok and obj > 0
    ax = [sum(_frac(a[r][i]) * vec[i] for i in range(p.n)) for r in range(p.m)]
    ok &= all(v >= 0 for v in ax)
    for i in range(p.n):
        if masks.boxed[i]:
            ok &= vec[i] == 0
        elif masks.lower[i]:
            ok &= vec[i] >= 0
        elif masks.upper[i]:
            ok &= vec[i] <= 0
    return ok and sum(_frac(p.c[i]) * vec[i] for i in range(p.n)) < 0


def _sign_constraints(p, side):
    a = p.a.to_dense()

    def line(values):
        return {j: Fraction(float(v)) for j, v in enumerate(values) if v != 0.0}

    def unit(j):
        return {j: Fraction(1)}

    cols = [line(a[:, i]) for i in range(p.n)]
    if isinstance(p, StandardFormLp):
        if side == "primal":
            return [], cols
        return [line(a[r]) for r in range(p.m)], [unit(i) for i in range(p.n)]
    masks = p.masks
    if side == "primal":
        eqs = [cols[i] for i in range(p.n) if masks.free[i]]
        ineqs = [unit(r) for r in range(p.m)]
        ineqs += [cols[i] for i in range(p.n) if masks.lower[i] or masks.upper[i]]
        return eqs, ineqs
    eqs = [unit(i) for i in range(p.n) if masks.boxed[i]]
    ineqs = [line(a[r]) for r in range(p.m)]
    ineqs += [unit(i) for i in range(p.n) if masks.lower[i] or masks.upper[i]]
    return eqs, ineqs


def reference_repair(vec, p, side):
    vec = np.asarray(vec, dtype=np.float64)
    if not np.any(vec):
        return None
    eqs, ineqs = _sign_constraints(p, side)
    v = [Fraction(float(x)) for x in vec]
    vmax = max(abs(f) for f in v)

    def dot(row):
        return sum((c * v[j] for j, c in row.items()), Fraction(0))

    tight = [
        row for row in ineqs if row and abs(dot(row)) <= 1e-7 * max(map(abs, row.values())) * vmax
    ]
    basis = exact._null_basis(eqs + tight, len(v))
    if not basis:
        return None
    coords = np.linalg.lstsq(np.array(basis, dtype=np.float64).T, vec, rcond=None)[0]
    for den in (10, 10**2, 10**3, 10**4, 10**5, 10**6, 10**9):
        coef = exactify_vector(coords, max_denominator=den)
        fixed = [sum(c * b[j] for c, b in zip(coef, basis)) for j in range(len(v))]
        if not any(fixed):
            continue
        ints = exact._coprime_integers(fixed)
        if max(abs(i) for i in ints) > 10**9:
            continue
        out = np.array(ints, dtype=np.float64)
        if reference_verify(out, p, side):
            return out
    return None


# ---------------------------------------------------------------------------
# Small integer LPs with a vector of either side, planted or not.

KINDS = ("free", "lower", "upper", "boxed")


def _plant(general, side, a, v, kinds):
    """Make v meet the side's sign conditions on (a, kinds); the objective
    is left to the drawn costs and right-hand side."""
    if not general and side == "primal":  # A'y >= 0
        a[:, a.T @ v < 0] *= -1
    elif not general:  # x >= 0, Ax = 0
        v = np.abs(v)
        v[0] = 1.0
        a[:, 0] = -(a[:, 1:] @ v[1:])
    elif side == "primal":  # y >= 0; the sign of r = -A'y suits each bound kind
        v = np.abs(v)
        r = -(a.T @ v)
        for i, ri in enumerate(r):
            if ri > 0 and kinds[i] in ("free", "upper"):
                kinds[i] = "lower"
            elif ri < 0 and kinds[i] in ("free", "lower"):
                kinds[i] = "upper"
    else:  # Ad >= 0; d moves only where its bounds allow
        a[a @ v < 0] *= -1
        for i, di in enumerate(v):
            if di > 0 and kinds[i] in ("upper", "boxed"):
                kinds[i] = "lower"
            elif di < 0 and kinds[i] in ("lower", "boxed"):
                kinds[i] = "upper"
    return a, v, kinds


@st.composite
def lp_and_vector(draw, general=None):
    if general is None:
        general = draw(st.booleans())
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    side = draw(st.sampled_from(["primal", "dual"]))

    def ints(size, lo=-3, hi=3):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)), float)

    a = ints(m * n).reshape(m, n)
    b, c = ints(m), ints(n)
    v = ints(m if side == "primal" else n)
    kinds = [draw(st.sampled_from(KINDS)) for _ in range(n)]
    if draw(st.booleans()):
        a, v, kinds = _plant(general, side, a, v, kinds)
    if general:
        lo = ints(n, -2, 2)
        l = np.where([k in ("lower", "boxed") for k in kinds], lo, -np.inf)
        u = np.where([k in ("upper", "boxed") for k in kinds], lo + ints(n, 0, 3), np.inf)
        p = GeneralFormLp(c, SparseMatrix.from_dense(a), b, l, u)
    else:
        p = StandardFormLp(c, SparseMatrix.from_dense(a), b)
    # A near-certificate: relative noise like a float solve leaves.
    noise = draw(st.sampled_from([0.0, 1e-12, 1e-9]))
    if noise:
        v = v * (1.0 + noise * ints(len(v), -1, 1))
    return p, side, v


@given(lp_and_vector())
def test_verify_matches_the_reference(case):
    p, side, v = case
    assert verify_certificate_exact(v, p, side).valid == reference_verify(v, p, side)


@given(lp_and_vector())
def test_every_repair_passes_verify(case):
    p, side, v = case
    fixed = repair_certificate(v, p, side)
    if fixed is not None:
        assert verify_certificate_exact(fixed, p, side).valid
        assert reference_verify(fixed, p, side)


def _oracle_agrees(problems):
    """classify_lp's cell and verify_certificate_exact's validity, the same
    on every (problem, side, vector) of problems."""
    cells = {exact.classify_lp(q).cell for q, _, _ in problems}
    valid = {verify_certificate_exact(v, q, side).valid for q, side, v in problems}
    assert len(cells) == 1 and len(valid) == 1, (cells, valid)


@given(lp_and_vector(general=False))
def test_standard_form_lowering_and_pair_embedding_agree(case):
    p, side, v = case
    # A primal certificate y of p certifies the pair rows (a, b), (-a, -b)
    # as (max(-y, 0), max(y, 0)); a dual one is the same ray.
    w = np.concatenate([np.maximum(-v, 0.0), np.maximum(v, 0.0)]) if side == "primal" else v
    _oracle_agrees([(p, side, v), (p.general, side, v), (standard_to_general(p), side, w)])


@given(lp_and_vector(general=True), st.data())
def test_equality_rows_agree_with_their_pair_expansion(case, data):
    p, side, v = case
    eq = np.array(data.draw(st.lists(st.booleans(), min_size=p.m, max_size=p.m)))
    p = dataclasses.replace(p, eq=eq)
    w = v
    if side == "primal":
        # y_r on an equality row certifies its pair as (max(y_r, 0), max(-y_r, 0)).
        w = np.array([z for yr, e in zip(v, eq) for z in ((max(yr, 0.0), max(-yr, 0.0)) if e else (yr,))])
    _oracle_agrees([(p, side, v), (_pair_expanded(p), side, w)])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("general", [False, True], ids=["standard", "general"])
@pytest.mark.parametrize("cell", demos.CELLS)
def test_run_certificates_repair_as_the_reference_does(cell, general, seed, monkeypatch):
    p = demos.random_cell_instance(cell, np.random.default_rng([seed, 29]))
    if general:
        p = standard_to_general(p)
    # Keep run's float certificates: with integer_data False it only re-checks.
    monkeypatch.setattr(exact, "integer_data", lambda p: False)
    out = pdhg.run(p)
    for rep in (out.primal_certificate, out.dual_certificate):
        if rep is None:
            continue
        ours = repair_certificate(rep.vector, p, rep.side)
        ref = reference_repair(rep.vector, p, rep.side)
        assert (ours is None) == (ref is None)
        if ours is not None:
            assert np.array_equal(ours, ref)
        assert verify_certificate_exact(rep.vector, p, rep.side).valid == reference_verify(
            rep.vector, p, rep.side
        )


@pytest.mark.parametrize("seed", range(8))
def test_run_on_mixed_equality_rows_matches_the_oracle(seed):
    # A random cell instance with a random half of its rows read as
    # inequalities: run's verdict is the oracle's cell, and every
    # certificate it returns passes the exact test on that problem.
    rng = np.random.default_rng([seed, 41])
    base = demos.random_cell_instance(demos.CELLS[seed % 4], rng)
    p = GeneralFormLp(
        base.c, base.a, base.b, np.zeros(base.n), np.full(base.n, np.inf),
        eq=rng.random(base.m) < 0.5,
    )
    out = pdhg.run(p)
    cell = exact.classify_lp(p).cell
    assert out.status.value == ("optimal" if cell == "both_feasible" else cell)
    for rep in (out.primal_certificate, out.dual_certificate):
        if rep is not None:
            assert verify_certificate_exact(rep.vector, p, rep.side).valid
