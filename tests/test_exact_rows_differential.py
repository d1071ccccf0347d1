"""exact's integer-row oracle against a frozen copy of the earlier one,
which held every system as dense Fraction rows and eliminated in Fraction
arithmetic.

The copy (the reference_* names and RefLp) is kept here, and only here.
exact stores each row scaled by a positive rational to coprime integers,
so its rows are compared with the reference's up to a positive factor per
row, right-hand side included.  Everything read off the elimination must
be the same: feasibility, the witness, the cell, the optimum's status and
value; the Farkas multipliers refer to the scaled rows, so they are held to
the Farkas conditions on exact's own stored rows.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdhglp import exact, instance_io
from pdhglp.exact import ExactLp
from pdhglp.linalg import SparseMatrix
from pdhglp.model import GeneralFormLp, general_form

# ---------------------------------------------------------------------------
# The reference: dense Fraction rows, Fraction Fourier-Motzkin.

_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    if isinstance(x, float):
        if not x:
            return _ZERO
        return Fraction(int(x)) if x.is_integer() else Fraction(x)
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass
class RefLp:
    n: int
    rows: list = field(default_factory=list)
    rhs: list = field(default_factory=list)

    def add_le(self, coeffs, b):
        self.rows.append([_frac(v) for v in coeffs])
        self.rhs.append(_frac(b))

    def add_ge(self, coeffs, b):
        self.add_le([-v for v in coeffs], -b)

    def add_eq(self, coeffs, b):
        self.add_le(coeffs, b)
        self.add_ge(coeffs, b)

    @property
    def m(self):
        return len(self.rows)


class _Row:
    __slots__ = ("a", "b", "lam", "anc")

    def __init__(self, a, b, lam, anc):
        self.a, self.b, self.lam, self.anc = a, b, lam, anc


def _canonical_key(a):
    for v in a:
        if v != 0:
            s = abs(v)
            return tuple(x / s for x in a)
    return None


def _fm_scan(rs):
    groups = {}
    for r in rs:
        key = _canonical_key(r.a)
        if key is None:
            if r.b < 0:
                return None, r
            continue
        rb = r.b / abs(next(v for v in r.a if v != 0))
        kept = groups.setdefault(key, [])
        if any(sb <= rb and s.anc <= r.anc for sb, s in kept):
            continue
        kept[:] = [(sb, s) for sb, s in kept if not (rb <= sb and r.anc <= s.anc)]
        kept.append((rb, r))
    return [s for g in groups.values() for _, s in g], None


def reference_fm_eliminate(sys, targets):
    m = sys.m
    rows = []
    for i in range(m):
        lam = [Fraction(0)] * m
        lam[i] = Fraction(1)
        rows.append(_Row(list(sys.rows[i]), sys.rhs[i], lam, frozenset((i,))))
    stages = []
    rows, bad = _fm_scan(rows)
    if bad is not None:
        return rows, bad, stages
    remaining = list(targets)
    eliminated = 0
    while remaining:

        def cost(j):
            p = sum(1 for r in rows if r.a[j] > 0)
            q = sum(1 for r in rows if r.a[j] < 0)
            return (p * q, j)

        j = min(remaining, key=cost)
        remaining.remove(j)
        stages.append((j, rows))
        eliminated += 1
        pos = [r for r in rows if r.a[j] > 0]
        neg = [r for r in rows if r.a[j] < 0]
        new_rows = [r for r in rows if r.a[j] == 0]
        for rp, rn in itertools.product(pos, neg):
            anc = rp.anc | rn.anc
            if len(anc) > eliminated + 1:
                continue
            sp, sn = rp.a[j], -rn.a[j]
            a = [rp.a[t] / sp + rn.a[t] / sn for t in range(sys.n)]
            b = rp.b / sp + rn.b / sn
            lam = [rp.lam[t] / sp + rn.lam[t] / sn for t in range(m)]
            new_rows.append(_Row(a, b, lam, anc))
        rows, bad = _fm_scan(new_rows)
        if bad is not None:
            return rows, bad, stages
    return rows, None, stages


def reference_decide(sys):
    """(feasible, witness or None)."""
    rows, bad, stages = reference_fm_eliminate(sys, list(range(sys.n)))
    if bad is not None:
        return False, None
    witness = [Fraction(0)] * sys.n
    for j, stage_rows in reversed(stages):
        lo = hi = None
        for r in stage_rows:
            if r.a[j] == 0:
                continue
            rest = sum(r.a[t] * witness[t] for t in range(sys.n) if t != j and r.a[t] != 0)
            bound = (r.b - rest) / r.a[j]
            if r.a[j] > 0:
                hi = bound if hi is None else min(hi, bound)
            else:
                lo = bound if lo is None else max(lo, bound)
        if lo is not None and hi is not None:
            witness[j] = (lo + hi) / 2
        elif lo is not None:
            witness[j] = lo
        elif hi is not None:
            witness[j] = hi
    return True, witness


def reference_primal_system(p):
    a = p.a.csr.toarray().tolist()
    sys = RefLp(p.n)
    for r in range(p.m):
        sys.add_ge(a[r], p.b[r])
        if p.eq[r]:
            sys.add_le(a[r], p.b[r])
    for i in range(p.n):
        e = [float(j == i) for j in range(p.n)]
        if np.isfinite(p.l[i]):
            sys.add_ge(e, p.l[i])
        if np.isfinite(p.u[i]):
            sys.add_le(e, p.u[i])
    return sys


def reference_dual_system(p):
    at = p.a.csr.toarray().T.tolist()
    sys = RefLp(p.m)
    masks = p.masks
    for r in np.flatnonzero(~p.eq):
        sys.add_ge([float(j == r) for j in range(p.m)], 0)
    for i in range(p.n):
        if masks.free[i]:
            sys.add_eq(at[i], p.c[i])
        elif masks.lower[i]:
            sys.add_le(at[i], p.c[i])
        elif masks.upper[i]:
            sys.add_ge(at[i], p.c[i])
    return sys


def reference_optimum(p):
    """(status, value)."""
    base = reference_primal_system(p)
    sys = RefLp(p.n + 1)
    sys.add_le([_frac(v) for v in p.c] + [Fraction(-1)], 0)
    for a, b in zip(base.rows, base.rhs):
        sys.add_le(list(a) + [Fraction(0)], b)
    if not reference_decide(sys)[0]:
        return "infeasible", None
    rows, bad, _ = reference_fm_eliminate(sys, list(range(p.n)))
    assert bad is None
    lows = [r.b / r.a[p.n] for r in rows if r.a[p.n] < 0]
    if not lows:
        return "unbounded", None
    return "optimal", max(lows) + _frac(p.objective_offset)


# ---------------------------------------------------------------------------
# The comparisons.


def _positive_multiple(row, b, ref_row, ref_b):
    """row (by its nonzero integer entries) and b are ref_row, ref_b times
    one positive rational."""
    assert all(isinstance(c, int) and c for c in row.values())
    assert set(row) == {j for j, v in enumerate(ref_row) if v}
    if not row:
        return b == ref_b
    j = next(iter(row))
    factor = row[j] / ref_row[j]
    same = all(c == factor * ref_row[t] for t, c in row.items())
    return factor > 0 and same and b == factor * ref_b


def _same_system(sys, ref):
    assert sys.n == ref.n and sys.m == ref.m
    for i, (row, b, ref_row, ref_b) in enumerate(zip(sys.rows, sys.rhs, ref.rows, ref.rhs)):
        assert _positive_multiple(row, b, ref_row, ref_b), i
        assert not row or math.gcd(*row.values()) == 1, i


def _same_projection(sys, ref, targets):
    """_fm_eliminate keeps the reference's rows, in order, up to a positive
    factor each and with the same ancestors: before every elimination, and
    at the end."""
    rows, bad, stages = exact._fm_eliminate(sys, targets)
    ref_rows, ref_bad, ref_stages = reference_fm_eliminate(ref, targets)
    assert (bad is None) == (ref_bad is None)
    assert [j for j, _ in stages] == [j for j, _ in ref_stages]
    pairs = [(got, want) for (_, got), (_, want) in zip(stages, ref_stages)]
    for got, want in [*pairs, (rows, ref_rows)]:
        assert (got is None) == (want is None)
        assert len(got or ()) == len(want or ())
        for r, w in zip(got or (), want or ()):
            assert set(r.lam) == w.anc and _positive_multiple(r.a, r.b, w.a, w.b)


def _same_decision(sys, ref):
    res = exact.decide_feasibility(sys)
    feasible, witness = reference_decide(ref)
    assert res.feasible == feasible
    if feasible:
        assert res.witness == witness
        return
    lam = res.farkas
    assert len(lam) == sys.m and all(isinstance(v, int) and v >= 0 for v in lam)
    for t in range(sys.n):
        assert sum(li * row.get(t, 0) for li, row in zip(lam, sys.rows)) == 0
    assert sum(li * b for li, b in zip(lam, sys.rhs)) < 0


def _check_against_reference(p):
    g = general_form(p)
    systems = {
        "primal": (exact._primal_system(g), reference_primal_system(g)),
        "dual": (exact._dual_system(g), reference_dual_system(g)),
    }
    for sys, ref in systems.values():
        _same_system(sys, ref)
        _same_projection(sys, ref, list(range(sys.n)))
        _same_decision(sys, ref)
    # A "primal" certificate is a ray of the dual system, a "dual" one of
    # the primal system.
    for side, system in (("primal", "dual"), ("dual", "primal")):
        rows = exact._cone_rows(g, side)
        ref = systems[system][1]
        assert len(rows) == ref.m
        for row, ref_row in zip(rows, ref.rows):
            assert _positive_multiple(row, Fraction(0), ref_row, Fraction(0))
    cell = exact.classify_lp(p)
    assert (cell.primal_feasible, cell.dual_feasible) == (
        reference_decide(systems["primal"][1])[0],
        reference_decide(systems["dual"][1])[0],
    )
    opt = exact.exact_optimum(p)
    assert (opt.status, opt.value) == reference_optimum(g)


VALUE = st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.0, -3.0, 0.5, -1.5, 0.1, 1 / 3, 6.0])
KINDS = ("free", "lower", "upper", "boxed")


@st.composite
def general_lps(draw):
    m, n = draw(st.integers(0, 4)), draw(st.integers(1, 4))

    def vec(size):
        return np.array(draw(st.lists(VALUE, min_size=size, max_size=size)))

    a = vec(m * n).reshape(m, n)
    kinds = [draw(st.sampled_from(KINDS)) for _ in range(n)]
    lo = vec(n)
    l = np.where([k in ("lower", "boxed") for k in kinds], lo, -np.inf)
    u = np.where([k in ("upper", "boxed") for k in kinds], lo + np.abs(vec(n)), np.inf)
    eq = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    offset = draw(st.sampled_from([0.0, 0.25, -2.0]))
    a = SparseMatrix.from_dense(a)
    return GeneralFormLp(vec(n), a, vec(m), l, u, objective_offset=offset, eq=eq)


@given(general_lps())
def test_general_lps_match_the_reference(p):
    _check_against_reference(p)


def _systems(a, b):
    sys, ref = ExactLp(len(a[0])), RefLp(len(a[0]))
    for row, rhs in zip(a, b):
        sys.add_le(row, rhs)
        ref.add_le(row, rhs)
    return sys, ref


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.tuples(st.lists(VALUE, min_size=n, max_size=n), VALUE),
            min_size=1,
            max_size=9,
        )
    )
)
def test_systems_match_the_reference(rows):
    sys, ref = _systems([a for a, _ in rows], [b for _, b in rows])
    _same_system(sys, ref)
    _same_projection(sys, ref, list(range(sys.n)))
    _same_decision(sys, ref)


# Integer systems a_i'x <= b_i in which an elimination meets parallel rows
# with nested ancestries whose coefficients have different gcds, so which
# row the scan keeps depends on dividing their right-hand sides by the gcd.
# Found by a random search over entries in -3..3.
GCD_SENSITIVE = [
    (
        [[-1, -2, 1, 0, 2], [2, -3, -2, 3, -2], [3, 2, -3, 3, -1], [0, -2, -3, -3, 3],
         [-2, 3, 0, 0, 1], [0, -3, 1, 0, -1], [3, 2, 0, -3, 0], [3, 2, 0, 0, -2],
         [2, 2, -2, 0, -3], [-1, -3, -2, 0, -3]],
        [-2, 0, 1, -1, -1, -2, -3, 0, -1, -2],
    ),
    (
        [[1, -1, -3, 0], [2, -1, 1, 2], [-1, -2, -3, 0], [-2, 1, 1, 1], [-1, -3, -1, 0],
         [-1, 3, -2, -3], [0, 1, 1, 0], [1, 1, -2, 0], [-1, -3, 1, -1], [1, 3, 2, 0],
         [-2, 3, 3, 2]],
        [2, -1, 3, -4, 1, -1, 3, 0, -2, -2, 0],
    ),
    (
        [[0, -2, 3, 1, 0], [1, -2, 0, -2, 2], [-3, 3, -1, -2, -1], [0, -2, -2, 1, 2],
         [1, -1, -2, 0, 0], [-3, 3, 0, 0, -2], [2, 1, -3, 1, -1], [2, -2, 2, 3, 3],
         [3, -3, 3, -2, -1]],
        [4, -1, -3, 1, -4, -2, 2, 3, 0],
    ),
]


@pytest.mark.parametrize("a,b", GCD_SENSITIVE, ids=range(len(GCD_SENSITIVE)))
def test_gcd_sensitive_eliminations_keep_the_reference_rows(a, b):
    sys, ref = _systems(a, b)
    _same_projection(sys, ref, list(range(sys.n)))
    _same_decision(sys, ref)


def test_desk_corpus_matches_the_reference(tmp_path, monkeypatch, perfbench):
    monkeypatch.chdir(tmp_path)
    perfbench("planted")
    items = perfbench("corpus").setup_desk(3)
    assert len(items) == 56
    for item in items:
        _check_against_reference(instance_io.load_problem(item.path))


SCALARS = [
    [1, -2, 0],
    [np.int64(4), np.int64(-6), np.int64(0)],
    [np.float64(0.5), np.float64(-0.25), 0.0],
    [Fraction(2, 3), Fraction(-4, 9), Fraction(0)],
    [0.1, 3, Fraction(1, 7)],
    [0, 0, 0],
]


@pytest.mark.parametrize("coeffs", SCALARS, ids=range(len(SCALARS)))
@pytest.mark.parametrize("b", [3, np.int64(-2), np.float64(0.75), Fraction(5, 6), 0.1])
def test_add_le_stores_a_positive_multiple(coeffs, b):
    sys, ref = ExactLp(3), RefLp(3)
    for s in (sys, ref):
        s.add_le(coeffs, b)
        s.add_ge(coeffs, b)
        s.add_eq(coeffs, b)
    _same_system(sys, ref)
    # The factor depends on the coefficients alone: opposite rows stay
    # exact negatives of each other.
    assert sys.rows[1] == {j: -c for j, c in sys.rows[0].items()}
    assert sys.rhs[1] == -sys.rhs[0]
