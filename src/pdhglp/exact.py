"""Exact rational feasibility oracle for desk-scale LPs.

Every system here is a list of rows a_i'x <= b_i, each stored by its
nonzero entries as coprime integers and a right-hand side that is a
Fraction (ExactLp).  Fourier-Motzkin elimination with multiplier tracking
combines such rows in integer arithmetic and decides feasibility of the
system, producing either an exact witness or exact Farkas multipliers
(lambda >= 0 with lambda'A = 0 and lambda'b < 0).  On top of that sit a
four-cell classifier (primal/dual feasibility of an LP), an exact optimal
value via epigraph projection, exact verification of floating-point
certificates, and an exact repair that turns an eps-accurate certificate
into an integer one that passes that verification.

The certificate conditions are stated once, as the oracle's systems: a
primal-infeasibility certificate is a ray of the dual feasible set
(_dual_system) and a dual-infeasibility certificate a ray of the primal
feasible set (_primal_system).  So verification tests the cone rows of
that system, its rows with the right-hand side dropped, plus one
certificate objective, and the repair takes its tight rows from the same
list, keeping opposite pairs of rows as equalities.

Every entry point takes either LP form and works on model.general_form(p),
whose systems are built from the CSR rows of A and A'.  It refuses, with
ValueError, the numbers the solver refuses (model.number_errors): entries
of c, b, A and the offset must be finite, the bounds not NaN, no lower
bound +inf and no upper bound -inf; any other infinite bound means none.
An elimination that outgrows _MAX_INTERMEDIATE_ROWS raises
linalg.SolverError.

Sizes are guarded: the oracle takes at most MAX_VARIABLES variables and
MAX_CONSTRAINTS constraints, and the repair at most REPAIR_MAX_DIM rows and
columns (repair_fits), since its elimination is cubic in the size.
pdhg.run repairs the certificates of problems that fit and leaves the rest
alone; the oracle serves the tests and `pdhglp oracle`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .linalg import SolverError
from .model import GeneralFormLp, StandardFormLp, general_form, number_errors

__all__ = [
    "ExactLp",
    "FeasibilityResult",
    "LpClassification",
    "ExactCheck",
    "ExactOptimum",
    "decide_feasibility",
    "classify_lp",
    "exact_optimum",
    "verify_certificate_exact",
    "exactify_vector",
    "repair_fits",
    "integer_data",
    "repair_certificate",
]

MAX_VARIABLES = 12
MAX_CONSTRAINTS = 60
_MAX_INTERMEDIATE_ROWS = 50_000

# A row by its nonzero entries, {column: coefficient}.
_SparseRow = dict[int, int]


def _ratio(v) -> tuple[int, int]:
    """v exactly, as a numerator and a denominator that are Python integers
    (numpy's integers overflow)."""
    return (v.item() if isinstance(v, np.generic) else v).as_integer_ratio()


def _integer_row(cols: Sequence[int], vals: Sequence) -> tuple[_SparseRow, Fraction]:
    """The row with the values vals in the columns cols, scaled by a
    positive rational to coprime integers, and that factor."""
    nz = [(j, *_ratio(v)) for j, v in zip(cols, vals) if v]
    den = math.lcm(*(d for _, _, d in nz))
    ints = {j: num * (den // d) for j, num, d in nz}
    g = math.gcd(*ints.values()) or 1
    return {j: c // g for j, c in ints.items()}, Fraction(den, g)


@dataclass
class ExactLp:
    """Inequality system a_i'x <= b_i over the rationals.

    rows[i] holds a_i by its nonzero entries, scaled by a positive rational
    to coprime integers, and rhs[i] is b_i scaled by the same factor.  The
    factor depends on a_i alone, so a row and its negation (add_eq, or both
    bounds of a variable) are stored as exact negatives of each other.
    """

    n: int
    rows: list[_SparseRow] = field(default_factory=list)
    rhs: list[Fraction] = field(default_factory=list)

    def add_le(self, coeffs: Sequence, b) -> None:
        if len(coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(coeffs)}")
        self._add(_integer_row(range(self.n), coeffs), b)

    def add_ge(self, coeffs: Sequence, b) -> None:
        self.add_le([-v for v in coeffs], -b)

    def add_eq(self, coeffs: Sequence, b) -> None:
        self.add_le(coeffs, b)
        self.add_ge(coeffs, b)

    def _add(self, scaled: tuple[_SparseRow, Fraction], b, sign: int = 1) -> None:
        """Store sign * a'x <= sign * b for a row scaled by _integer_row."""
        row, factor = scaled
        self.rows.append(row if sign > 0 else {j: -c for j, c in row.items()})
        self.rhs.append(sign * factor * Fraction(*_ratio(b)))

    @property
    def m(self) -> int:
        return len(self.rows)


@dataclass
class FeasibilityResult:
    feasible: bool
    witness: list[Fraction] | None = None
    farkas: list[int] | None = None


class _Row:
    __slots__ = ("a", "b", "lam")

    def __init__(self, a: _SparseRow, b: Fraction, lam: _SparseRow):
        self.a = a
        self.b = b
        self.lam = lam  # positive multipliers of the original rows it combines


def _combine(p: _SparseRow, sp: int, q: _SparseRow, sq: int) -> _SparseRow:
    """p * sp + q * sq by its nonzero entries."""
    out = {t: c * sp for t, c in p.items()}
    for t, c in q.items():
        out[t] = out.get(t, 0) + c * sq
    return {t: c for t, c in out.items() if c}


def _fm_scan(rs: list[_Row]):
    """Drop tautologies and dominated parallel rows; spot contradictions.

    Parallel rows have the same coefficients once each row is divided by
    their gcd, and they are compared by their right-hand sides divided by
    it.  A parallel row is dropped only when some kept row is at least as
    tight AND combines a subset of its ancestors.  Tightness alone is not
    enough: the ancestor-count pruning consults ancestries, and swapping a
    narrow-ancestry row for a tighter wide-ancestry one can starve it of
    the combination that exposes a contradiction.
    """
    groups: dict[frozenset, list[tuple[Fraction, _Row]]] = {}
    for r in rs:
        if not r.a:
            if r.b < 0:
                return None, r
            continue
        g = math.gcd(*r.a.values())
        rb = r.b / g
        kept = groups.setdefault(frozenset((t, c // g) for t, c in r.a.items()), [])
        anc = r.lam.keys()
        if any(sb <= rb and s.lam.keys() <= anc for sb, s in kept):
            continue
        kept[:] = [(sb, s) for sb, s in kept if not (rb <= sb and anc <= s.lam.keys())]
        kept.append((rb, r))
    rows = [s for g in groups.values() for _, s in g]
    return rows, None


def _fm_eliminate(sys: ExactLp, targets: list[int]):
    """Project the targeted variables out, returning (rows, bad, stages).

    bad is a contradictory row (0'x <= negative) when one appears, with its
    Farkas multipliers; stages records the pre-elimination rows per variable
    for witness back-substitution.  Eliminating x_j from rows p (p_j > 0)
    and q (q_j < 0) gives the integer row p * (-q_j) + q * p_j, multipliers
    included, divided by the gcd of its coefficients and multipliers.  Rows
    combining more original rows than eliminations-plus-one are redundant
    (Imbert's criterion) and dropped, which keeps the double-exponential
    growth in check at oracle scale.
    """
    if sys.n > MAX_VARIABLES + 1:
        raise ValueError(f"too many variables for the exact oracle: {sys.n}")
    if sys.m > 3 * MAX_CONSTRAINTS + 2 * MAX_VARIABLES + 1:
        raise ValueError(f"too many constraints for the exact oracle: {sys.m}")
    rows = [_Row(a, b, {i: 1}) for i, (a, b) in enumerate(zip(sys.rows, sys.rhs))]

    stages: list[tuple[int, list[_Row]]] = []
    rows, bad = _fm_scan(rows)
    if bad is not None:
        return rows, bad, stages

    remaining = list(targets)
    eliminated = 0
    while remaining:
        # Cheapest elimination first: fewest pairwise products.
        def cost(j: int) -> tuple[int, int]:
            p = sum(1 for r in rows if r.a.get(j, 0) > 0)
            q = sum(1 for r in rows if r.a.get(j, 0) < 0)
            return (p * q, j)

        j = min(remaining, key=cost)
        remaining.remove(j)
        stages.append((j, rows))
        eliminated += 1

        pos = [r for r in rows if r.a.get(j, 0) > 0]
        neg = [r for r in rows if r.a.get(j, 0) < 0]
        new_rows = [r for r in rows if j not in r.a]
        max_anc = eliminated + 1
        for rp, rn in itertools.product(pos, neg):
            if len(rp.lam.keys() | rn.lam.keys()) > max_anc:
                continue
            sp, sn = rp.a[j], -rn.a[j]
            a = _combine(rp.a, sn, rn.a, sp)
            lam = _combine(rp.lam, sn, rn.lam, sp)
            g = math.gcd(*a.values(), *lam.values())
            a = {t: c // g for t, c in a.items()}
            lam = {i: c // g for i, c in lam.items()}
            new_rows.append(_Row(a, (rp.b * sn + rn.b * sp) / g, lam))
        if len(new_rows) > _MAX_INTERMEDIATE_ROWS:
            raise SolverError("elimination produced too many rows")
        rows, bad = _fm_scan(new_rows)
        if bad is not None:
            return rows, bad, stages
    return rows, None, stages


def decide_feasibility(sys: ExactLp) -> FeasibilityResult:
    """Decide a'x <= b exactly.

    When infeasible, farkas holds integer multipliers over the rows as
    stored, in order: scaled to coprime integers, and negated or split by
    add_ge/add_eq.
    """
    rows, bad, stages = _fm_eliminate(sys, list(range(sys.n)))
    if bad is not None:
        # Self-check: lam >= 0, lam'A = 0, lam'b < 0 must hold exactly.
        lam = [bad.lam.get(i, 0) for i in range(sys.m)]
        if any(v < 0 for v in lam):
            raise RuntimeError("negative Farkas multiplier")
        total: _SparseRow = {}
        for li, row in zip(lam, sys.rows):
            total = _combine(total, 1, row, li)
        if total:
            raise RuntimeError("Farkas multipliers do not cancel the rows")
        if not sum(li * b for li, b in zip(lam, sys.rhs)) < 0:
            raise RuntimeError("Farkas multipliers do not certify infeasibility")
        return FeasibilityResult(False, farkas=lam)

    # Feasible: back-substitute a witness in reverse elimination order.
    witness = [Fraction(0)] * sys.n
    for j, stage_rows in reversed(stages):
        lo: Fraction | None = None
        hi: Fraction | None = None
        for r in stage_rows:
            if j not in r.a:
                continue
            # witness[j] is still 0, so the dot product leaves it out.
            bound = (r.b - _dot(r.a, witness)) / r.a[j]
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
    for row, rhs in zip(sys.rows, sys.rhs):
        if _dot(row, witness) > rhs:
            raise RuntimeError("back-substituted witness violates the system")
    return FeasibilityResult(True, witness=witness)


def _oracle_form(p: StandardFormLp | GeneralFormLp) -> GeneralFormLp:
    """general_form(p), or ValueError("invalid problem: ...") naming what
    model.number_errors finds in it, the numbers the solver refuses too.
    A problem without rows or with crossed bounds is classified."""
    p = general_form(p)
    errors = number_errors(p)
    if errors:
        raise ValueError("invalid problem: " + "; ".join(errors))
    return p


def _csr_rows(mat) -> list[tuple[list[int], list[float]]]:
    """The rows of a scipy CSR matrix as (columns, values) lists."""
    ptr, cols, vals = mat.indptr.tolist(), mat.indices.tolist(), mat.data.tolist()
    return [(cols[s:e], vals[s:e]) for s, e in zip(ptr, ptr[1:])]


def _primal_system(p: GeneralFormLp) -> ExactLp:
    """The primal feasible set: A x >= b (and <= b on equality rows), l <= x <= u."""
    sys = ExactLp(p.n)
    for (cols, vals), b, eq in zip(_csr_rows(p.a.csr), p.b.tolist(), p.eq.tolist()):
        row = _integer_row(cols, vals)
        sys._add(row, b, -1)
        if eq:
            sys._add(row, b)
    for i, (l, u) in enumerate(zip(p.l.tolist(), p.u.tolist())):
        if math.isfinite(l):
            sys._add(({i: 1}, 1), l, -1)
        if math.isfinite(u):
            sys._add(({i: 1}, 1), u)
    return sys


def _dual_system(p: GeneralFormLp) -> ExactLp:
    """The dual feasible set in the iteration's sign convention: y >= 0 on
    the inequality rows, with the sign of r = c - A'y that each bound kind
    allows (A'y + c >= 0 on a standard-form lowering)."""
    sys = ExactLp(p.m)
    masks = p.masks
    for r in np.flatnonzero(~p.eq).tolist():
        sys._add(({r: 1}, 1), 0, -1)
    # r_i >= 0 (A'y <= c) on free and lower-bounded columns, r_i <= 0
    # (A'y >= c) on free and upper-bounded ones; boxed: r_i unrestricted.
    le = (masks.free | masks.lower).tolist()
    ge = (masks.free | masks.upper).tolist()
    for i, (rows, vals) in enumerate(_csr_rows(p.a.transposed_csr())):
        col = _integer_row(rows, vals)
        if le[i]:
            sys._add(col, p.c[i])
        if ge[i]:
            sys._add(col, p.c[i], -1)
    return sys


@dataclass(frozen=True)
class LpClassification:
    primal_feasible: bool
    dual_feasible: bool

    @property
    def cell(self) -> str:
        if self.primal_feasible and self.dual_feasible:
            return "both_feasible"
        if self.primal_feasible:
            return "dual_infeasible"
        if self.dual_feasible:
            return "primal_infeasible"
        return "both_infeasible"


def classify_lp(p: StandardFormLp | GeneralFormLp) -> LpClassification:
    """Exact feasibility of the problem and its dual; one of four cells."""
    p = _oracle_form(p)
    primal = decide_feasibility(_primal_system(p))
    dual = decide_feasibility(_dual_system(p))
    return LpClassification(primal.feasible, dual.feasible)


@dataclass(frozen=True)
class ExactOptimum:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None


def exact_optimum(p: StandardFormLp | GeneralFormLp) -> ExactOptimum:
    """Exact optimal value by projecting the epigraph onto the t axis."""
    p = _oracle_form(p)
    t = p.n
    sys = ExactLp(t + 1)
    sys.add_le([*p.c, -1], 0)  # c'x <= t
    base = _primal_system(p)
    sys.rows += base.rows
    sys.rhs += base.rhs
    rows, bad, _ = _fm_eliminate(sys, list(range(t)))
    if bad is not None:
        return ExactOptimum("infeasible")
    # What survives bounds t alone.  c'x <= t is the one row in t, so each
    # such row is a lower bound on t, and the tightest is the optimal value.
    lows = [r.b / r.a[t] for r in rows if t in r.a]
    if not lows:
        return ExactOptimum("unbounded")
    return ExactOptimum("optimal", max(lows) + Fraction(p.objective_offset))


def exactify_vector(
    v: np.ndarray, round_tol: float = 1e-12, max_denominator: int = 10**9
) -> list[Fraction]:
    """Snap a float certificate to rationals.

    A vector whose entries are all integers of magnitude below 2**53 (a
    repaired certificate) is returned as those exact integers.  Any other
    vector is normalized by its largest magnitude, entries below round_tol
    are zeroed, and denominators are limited to max_denominator, so that
    accumulated solver roundoff does not survive into the exact sign checks.
    """
    arr = np.asarray(v, dtype=np.float64)
    if np.all((arr == np.round(arr)) & (np.abs(arr) < 2.0**53)):
        return [Fraction(int(x)) for x in arr.tolist()]
    scale = float(np.max(np.abs(arr)))
    out = []
    for x in arr / scale:
        if abs(x) <= round_tol:
            out.append(Fraction(0))
        else:
            out.append(Fraction(x).limit_denominator(max_denominator))
    return out


@dataclass(frozen=True)
class ExactCheck:
    valid: bool
    reasons: tuple[str, ...] = ()


def _cone_rows(p: GeneralFormLp, side: str) -> list[_SparseRow]:
    """The rows g with g'v <= 0 on every certificate v of the side.

    A "primal" certificate (of primal infeasibility) is a ray y of the dual
    feasible set and a "dual" one a ray d of the primal feasible set, so
    these are the rows of _dual_system or _primal_system with the
    right-hand side dropped.  A row whose negation is also a row makes an
    equality: A'y = 0 on free columns, Ad = 0 on equality rows, d = 0 on
    boxed variables.
    """
    return (_dual_system(p) if side == "primal" else _primal_system(p)).rows


def _check_side(vec: np.ndarray, p: StandardFormLp | GeneralFormLp, side: str) -> None:
    """Raise ValueError for an unknown side, or unless vec has the length of
    a certificate of the side: m for "primal", n for "dual"."""
    if side not in ("primal", "dual"):
        raise ValueError(f"unknown certificate side {side!r}")
    want = p.m if side == "primal" else p.n
    if len(vec) != want:
        raise ValueError(f"a {side} certificate has length {want}, got {len(vec)}")


def _dot(row: _SparseRow, v: Sequence) -> int | Fraction:
    return sum(c * v[j] for j, c in row.items())


def _exact_dot(values: Sequence[float], v: Sequence[int]) -> Fraction:
    """sum(values[j] * v[j]) exactly for float values and integer v, in
    integers over the largest denominator, a power of two."""
    terms = [(float(x).as_integer_ratio(), vj) for x, vj in zip(values, v) if x and vj]
    den = max((d for (_, d), _ in terms), default=1)
    return Fraction(sum(n * (den // d) * vj for (n, d), vj in terms), den)


def _objective(p: GeneralFormLp, side: str, v: list[int]) -> Fraction:
    """The certificate objective, positive on every certificate of the
    side: -c'd for "dual"; for "primal", b'y + l'r+ - u'r- with r = -A'y
    over the finite nonzero bounds (-b'y on a standard-form lowering)."""
    if side == "dual":
        return -_exact_dot(p.c, v)
    obj = _exact_dot(p.b, v)
    lo, hi = (np.where(np.isfinite(w), w, 0.0) for w in (p.l, p.u))
    at = _csr_rows(p.a.transposed_csr())
    for i in np.flatnonzero((lo != 0.0) | (hi != 0.0)):
        rows, vals = at[i]
        r = -_exact_dot(vals, [v[j] for j in rows])
        obj += Fraction(lo[i]) * r if r > 0 else Fraction(hi[i]) * r if r < 0 else 0
    return obj


def _check(
    v: list[Fraction], p: GeneralFormLp, side: str, rows: list[_SparseRow]
) -> ExactCheck:
    """The exact test of v against the side's cone rows and objective, on
    v scaled to coprime integers."""
    if not any(v):
        return ExactCheck(False, ("certificate is zero",))
    v = _coprime_integers(v)
    system = "dual" if side == "primal" else "primal"
    reasons = [
        f"g'v > 0 on row {i} of the {system} system"
        for i, row in enumerate(rows)
        if _dot(row, v) > 0
    ]
    if not _objective(p, side, v) > 0:
        reasons.append("certificate objective is not positive")
    return ExactCheck(not reasons, tuple(reasons))


def verify_certificate_exact(
    cert: np.ndarray, p: StandardFormLp | GeneralFormLp, kind: str
) -> ExactCheck:
    """Exact test of a snapped float certificate (exactify_vector).

    kind "primal" verifies a primal-infeasibility certificate, a dual ray y
    of length m; kind "dual" a dual-infeasibility certificate, a primal ray
    d of length n.  It holds when g'v <= 0 on every row of _cone_rows and
    the certificate objective (_objective) is positive.  An unknown kind or
    a vector of another length raises ValueError.
    """
    _check_side(cert, p, kind)
    p = _oracle_form(p)
    return _check(exactify_vector(cert), p, kind, _cone_rows(p, kind))


# Snap denominators repair_certificate tries, coarsest first.
_REPAIR_DENOMINATORS = (10, 10**2, 10**3, 10**4, 10**5, 10**6, 10**9)
# A cone row is tight for the repair when its exact value is within this
# multiple of ||row||_inf * ||v||_inf of zero.
_REPAIR_TIGHT = Fraction(1, 10**7)
# Largest entry of a repaired certificate: a float holds every integer up to
# it exactly, and exactify_vector reads such a vector as its exact integers.
_REPAIR_MAX_ENTRY = 2**53 - 1
# Most rows and most columns of a problem the repair takes on.  A side has
# at most m + 2n or 2m + n cone rows, so the elimination stays within 36.
# On a shared 2-core Xeon, a certificate run returns on a dense 12 x 12 LP
# with free variables takes 1-2 ms to repair, with integer data or not; at
# 60 x 12 it takes 9-10 ms with integer data and 23-26 ms without.
REPAIR_MAX_DIM = MAX_VARIABLES


def _primitive(v: list[int]) -> list[int]:
    """v divided by the gcd of its entries; a zero v stays zero."""
    g = math.gcd(*v) or 1
    return [i // g for i in v]


def _coprime_integers(v: Sequence) -> list[int]:
    """v, floats or Fractions, scaled by a positive rational to coprime integers."""
    ratios = [_ratio(x) for x in v]
    den = math.lcm(*(d for _, d in ratios))
    return _primitive([num * (den // d) for num, d in ratios])


def _null_basis(rows: list[_SparseRow], n: int) -> list[list[int]]:
    """Integer vectors spanning {v : row'v = 0 for every row} over the
    rationals, one per free column of the rows' reduced echelon form, found
    by Gauss-Jordan elimination that keeps each row primitive in integers."""
    mat = [[row.get(j, 0) for j in range(n)] for row in rows]
    pivots: list[int] = []
    for col in range(n):
        top = len(pivots)
        piv = next((i for i in range(top, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        p = mat[top]
        for i, row in enumerate(mat):
            f = row[col]
            if i != top and f:
                mat[i] = _primitive([p[col] * u - f * w for u, w in zip(row, p)])
        pivots.append(col)
    den = math.lcm(*(mat[i][col] for i, col in enumerate(pivots)))
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[free] = den
        for i, col in enumerate(pivots):
            v[col] = -mat[i][free] * (den // mat[i][col])
        basis.append(_primitive(v))
    return basis


def repair_fits(p: StandardFormLp | GeneralFormLp) -> bool:
    """Whether repair_certificate takes p: at most REPAIR_MAX_DIM rows and
    REPAIR_MAX_DIM columns."""
    return p.m <= REPAIR_MAX_DIM and p.n <= REPAIR_MAX_DIM


def integer_data(p: StandardFormLp | GeneralFormLp) -> bool:
    """Whether every entry of A, b and c and every finite bound of p is an
    integer, a cheap test that repair_certificate may succeed.

    On non-integer float data the cone rows hold entries with denominators
    near 2**52, so the integer vectors the repair builds from them exceed
    _REPAIR_MAX_ENTRY; on dense 6 x 9 and 12 x 12 LPs it repaired none of
    12 certificates, and each attempt takes 1-2 ms.
    """
    p = general_form(p)
    parts = [p.a.csr.data, p.b, p.c, p.l[np.isfinite(p.l)], p.u[np.isfinite(p.u)]]
    return all(bool(np.all(v == np.round(v))) for v in parts)


def repair_certificate(
    vec: np.ndarray, p: StandardFormLp | GeneralFormLp, side: str
) -> np.ndarray | None:
    """An integer-valued certificate near vec that passes
    verify_certificate_exact on p, or None when none is found.

    side is "primal" (vec is a dual ray) or "dual" (vec is a primal ray),
    as in verify_certificate_exact.  The side's cone rows that come in
    opposite pairs (equalities), or that are within _REPAIR_TIGHT of zero
    at vec, are collected, and an integer basis of their null space is
    found in exact arithmetic.  vec's least-squares coordinates in that
    basis are snapped with exactify_vector(., max_denominator=D) for each
    snap denominator D in turn, so every candidate meets the collected rows
    with equality.  A candidate, scaled to coprime integers, is returned as
    floats if its largest entry is at most _REPAIR_MAX_ENTRY (2**53 - 1, so
    the floats are those integers, and exactify_vector reads them back
    unsnapped) and it passes verify_certificate_exact.  The null-space
    elimination is fraction-free, on the integer rows, and cubic in the
    number of rows, so a problem that
    repair_fits refuses raises ValueError, as do an unknown side and a
    vector of another length.
    """
    _check_side(vec, p, side)
    if not repair_fits(p):
        raise ValueError(f"too large for the exact repair: {p.m} x {p.n}")
    vec = np.asarray(vec, dtype=np.float64)
    if not np.any(vec):
        return None
    p = _oracle_form(p)
    rows = _cone_rows(p, side)
    v = _coprime_integers(vec)
    vmax = max(map(abs, v))
    keys = {tuple(row.items()) for row in rows}
    # One row per equation: g and -g give the same one.
    tight: dict[tuple, _SparseRow] = {}
    for row in rows:
        key = tuple(row.items())
        neg = tuple((j, -c) for j, c in key)
        if row and (
            neg in keys
            or abs(_dot(row, v)) <= _REPAIR_TIGHT * max(map(abs, row.values())) * vmax
        ):
            tight.setdefault(max(key, neg), row)
    basis = _null_basis(list(tight.values()), len(v))
    if not basis:
        return None
    coords = np.linalg.lstsq(np.array(basis, dtype=np.float64).T, vec, rcond=None)[0]
    for den in _REPAIR_DENOMINATORS:
        coef = _coprime_integers(exactify_vector(coords, max_denominator=den))
        ints = _primitive([sum(c * x for c, x in zip(coef, b)) for b in zip(*basis)])
        if not any(ints):
            continue
        if max(abs(i) for i in ints) > _REPAIR_MAX_ENTRY:
            continue
        out = np.array(ints, dtype=np.float64)
        if _check(exactify_vector(out), p, side, rows).valid:
            return out
    return None
