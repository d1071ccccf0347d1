"""Exact rational feasibility oracle for desk-scale LPs.

Everything here runs in Fraction arithmetic: Fourier-Motzkin elimination
with multiplier tracking decides feasibility of a system a_i'x <= b_i and
produces either an exact witness or exact Farkas multipliers (lambda >= 0
with lambda'A = 0 and lambda'b < 0).  On top of that sit a four-cell
classifier (primal/dual feasibility of an LP), an exact optimal value via
epigraph projection, exact verification of floating-point certificates,
and an exact repair that turns an eps-accurate certificate into an integer
one that passes that verification.

The certificate conditions are stated once, as the oracle's systems: a
primal-infeasibility certificate is a ray of the dual feasible set
(_dual_system) and a dual-infeasibility certificate a ray of the primal
feasible set (_primal_system).  So verification tests the cone rows of
that system, its rows with the right-hand side dropped, plus one
certificate objective, and the repair takes its tight rows from the same
list, keeping opposite pairs of rows as equalities.

Every entry point takes either LP form and works on model.general_form(p).

Sizes are guarded: the oracle takes at most MAX_VARIABLES variables and
MAX_CONSTRAINTS constraints, and the repair at most REPAIR_MAX_DIM rows and
columns (repair_fits), since Fraction arithmetic grows fast with the size.
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

from .model import GeneralFormLp, StandardFormLp, general_form

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
_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    # Fraction(float) is exact for the stored binary value.  Zero floats
    # share one object and other integral ones go through int, Fraction's
    # fast path.
    if isinstance(x, float):
        if not x:
            return _ZERO
        return Fraction(int(x)) if x.is_integer() else Fraction(x)
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass
class ExactLp:
    """Inequality system a_i'x <= b_i over the rationals."""

    n: int
    rows: list[list[Fraction]] = field(default_factory=list)
    rhs: list[Fraction] = field(default_factory=list)

    def add_le(self, coeffs: Sequence, b) -> None:
        row = [_frac(v) for v in coeffs]
        if len(row) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(row)}")
        self.rows.append(row)
        self.rhs.append(_frac(b))

    def add_ge(self, coeffs: Sequence, b) -> None:
        self.add_le([-v for v in coeffs], -b)

    def add_eq(self, coeffs: Sequence, b) -> None:
        self.add_le(coeffs, b)
        self.add_ge(coeffs, b)

    @property
    def m(self) -> int:
        return len(self.rows)


@dataclass
class FeasibilityResult:
    feasible: bool
    witness: list[Fraction] | None = None
    farkas: list[Fraction] | None = None


class _Row:
    __slots__ = ("a", "b", "lam", "anc")

    def __init__(
        self,
        a: list[Fraction],
        b: Fraction,
        lam: list[Fraction],
        anc: frozenset[int],
    ):
        self.a = a
        self.b = b
        self.lam = lam
        self.anc = anc  # original rows this one combines


def _canonical_key(a: list[Fraction]) -> tuple | None:
    """Scale so the first nonzero coefficient is +-1; None for a zero row."""
    for v in a:
        if v != 0:
            s = abs(v)
            return tuple(x / s for x in a)
    return None


def _fm_scan(rs: list[_Row]):
    """Drop tautologies and dominated parallel rows; spot contradictions.

    A parallel row is dropped only when some kept row is at least as tight
    AND combines a subset of its ancestors.  Tightness alone is not enough:
    the ancestor-count pruning consults ancestries, and swapping a
    narrow-ancestry row for a tighter wide-ancestry one can starve it of
    the combination that exposes a contradiction.
    """
    groups: dict[tuple, list[tuple[Fraction, _Row]]] = {}
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
    rows = [s for g in groups.values() for _, s in g]
    return rows, None


def _fm_eliminate(sys: ExactLp, targets: list[int]):
    """Project the targeted variables out, returning (rows, bad, stages).

    bad is a contradictory row (0'x <= negative) when one appears, with its
    Farkas multipliers; stages records the pre-elimination rows per variable
    for witness back-substitution.  Rows combining more original rows than
    eliminations-plus-one are redundant (Imbert's criterion) and dropped,
    which keeps the double-exponential growth in check at oracle scale.
    """
    m = sys.m
    rows: list[_Row] = []
    for i in range(m):
        lam = [Fraction(0)] * m
        lam[i] = Fraction(1)
        rows.append(_Row(list(sys.rows[i]), sys.rhs[i], lam, frozenset((i,))))

    stages: list[tuple[int, list[_Row]]] = []
    rows, bad = _fm_scan(rows)
    if bad is not None:
        return rows, bad, stages

    remaining = list(targets)
    eliminated = 0
    while remaining:
        # Cheapest elimination first: fewest pairwise products.
        def cost(j: int) -> tuple[int, int]:
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
        max_anc = eliminated + 1
        for rp, rn in itertools.product(pos, neg):
            anc = rp.anc | rn.anc
            if len(anc) > max_anc:
                continue
            sp, sn = rp.a[j], -rn.a[j]
            a = [rp.a[t] / sp + rn.a[t] / sn for t in range(sys.n)]
            b = rp.b / sp + rn.b / sn
            lam = [rp.lam[t] / sp + rn.lam[t] / sn for t in range(m)]
            new_rows.append(_Row(a, b, lam, anc))
        if len(new_rows) > _MAX_INTERMEDIATE_ROWS:
            raise RuntimeError("elimination produced too many rows")
        rows, bad = _fm_scan(new_rows)
        if bad is not None:
            return rows, bad, stages
    return rows, None, stages


def decide_feasibility(sys: ExactLp) -> FeasibilityResult:
    """Decide a'x <= b exactly.

    When infeasible, farkas holds multipliers over the stored rows in order
    (note add_ge/add_eq store negated/<=-split rows, so multipliers refer to
    those).
    """
    if sys.n > MAX_VARIABLES + 1:
        raise ValueError(f"too many variables for the exact oracle: {sys.n}")
    if sys.m > 3 * MAX_CONSTRAINTS + 2 * MAX_VARIABLES + 1:
        raise ValueError(f"too many constraints for the exact oracle: {sys.m}")

    rows, bad, stages = _fm_eliminate(sys, list(range(sys.n)))
    if bad is not None:
        # Self-check: lam >= 0, lam'A = 0, lam'b < 0 must hold exactly.
        lam = bad.lam
        if any(v < 0 for v in lam):
            raise RuntimeError("negative Farkas multiplier")
        for t in range(sys.n):
            if sum(lam[i] * sys.rows[i][t] for i in range(sys.m)) != 0:
                raise RuntimeError("Farkas multipliers do not cancel the rows")
        if not sum(lam[i] * sys.rhs[i] for i in range(sys.m)) < 0:
            raise RuntimeError("Farkas multipliers do not certify infeasibility")
        return FeasibilityResult(False, farkas=lam)

    # Feasible: back-substitute a witness in reverse elimination order.
    witness = [Fraction(0)] * sys.n
    for j, stage_rows in reversed(stages):
        lo: Fraction | None = None
        hi: Fraction | None = None
        for r in stage_rows:
            if r.a[j] == 0:
                continue
            rest = r.b - sum(
                r.a[t] * witness[t] for t in range(sys.n) if t != j and r.a[t] != 0
            )
            bound = rest / r.a[j]
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
        if sum(rv * wv for rv, wv in zip(row, witness) if rv != 0) > rhs:
            raise RuntimeError("back-substituted witness violates the system")
    return FeasibilityResult(True, witness=witness)


def _primal_system(p: GeneralFormLp) -> ExactLp:
    """The primal feasible set: A x >= b (and <= b on equality rows), l <= x <= u."""
    a = p.a.to_dense().tolist()
    sys = ExactLp(p.n)
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


def _dual_system(p: GeneralFormLp) -> ExactLp:
    """The dual feasible set in the iteration's sign convention: y >= 0 on
    the inequality rows, with the sign of r = c - A'y that each bound kind
    allows (A'y + c >= 0 on a standard-form lowering)."""
    at = p.a.to_dense().T.tolist()
    sys = ExactLp(p.m)
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
        # boxed: r_i unrestricted, no constraint
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
    p = general_form(p)
    primal = decide_feasibility(_primal_system(p))
    dual = decide_feasibility(_dual_system(p))
    return LpClassification(primal.feasible, dual.feasible)


@dataclass(frozen=True)
class ExactOptimum:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None


def exact_optimum(p: StandardFormLp | GeneralFormLp) -> ExactOptimum:
    """Exact optimal value by projecting the epigraph onto the t axis."""
    p = general_form(p)
    base = _primal_system(p)
    n = p.n
    sys = ExactLp(n + 1)
    row = [_frac(v) for v in p.c] + [Fraction(-1)]
    sys.add_le(row, 0)  # c'x <= t
    for a, b in zip(base.rows, base.rhs):
        sys.add_le(list(a) + [Fraction(0)], b)
    res = decide_feasibility(sys)
    if not res.feasible:
        return ExactOptimum("infeasible")
    # Project out the original variables; what survives bounds t alone, and
    # the tightest lower bound is the optimal value.
    rows: list[tuple[Fraction, Fraction]] = _project_last(sys, n)
    lo: Fraction | None = None
    for coef, b in rows:
        if coef < 0:
            cand = b / coef
            lo = cand if lo is None else max(lo, cand)
    if lo is None:
        return ExactOptimum("unbounded")
    offset = _frac(p.objective_offset)
    return ExactOptimum("optimal", lo + offset)


def _project_last(sys: ExactLp, n_eliminate: int) -> list[tuple[Fraction, Fraction]]:
    """Eliminate the first n_eliminate variables, return rows on the last one."""
    rows, bad, _ = _fm_eliminate(sys, list(range(n_eliminate)))
    if bad is not None:
        # Callers establish feasibility before projecting.
        raise RuntimeError("projection of an infeasible system")
    t = sys.n - 1
    return [(r.a[t], r.b) for r in rows if r.a[t] != 0]


def exactify_vector(
    v: np.ndarray, round_tol: float = 1e-12, max_denominator: int = 10**9
) -> list[Fraction]:
    """Snap a float certificate to rationals.

    Normalizes by the largest magnitude, zeroes entries below round_tol, and
    limits denominators so that accumulated solver roundoff does not survive
    into the exact sign checks.
    """
    arr = np.asarray(v, dtype=np.float64)
    scale = float(np.max(np.abs(arr))) if arr.size else 0.0
    if scale == 0.0:
        return [Fraction(0)] * arr.size
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


_SparseRow = dict[int, int]


def _cone_rows(p: GeneralFormLp, side: str) -> list[_SparseRow]:
    """The rows g with g'v <= 0 on every certificate v of the side.

    A "primal" certificate (of primal infeasibility) is a ray y of the dual
    feasible set and a "dual" one a ray d of the primal feasible set, so
    these are the rows of _dual_system or _primal_system with the
    right-hand side dropped.  Each is scaled to integers by the lcm of its
    denominators, which keeps every sign, and stored by its nonzero
    entries.  A row whose negation is also a row makes an equality: A'y = 0
    on free columns, Ad = 0 on equality rows, d = 0 on boxed variables.
    """
    sys = _dual_system(p) if side == "primal" else _primal_system(p)
    rows = []
    for row in sys.rows:
        nz = [(j, c.numerator, c.denominator) for j, c in enumerate(row) if c]
        den = math.lcm(*(d for _, _, d in nz))
        rows.append({j: num * (den // d) for j, num, d in nz})
    return rows


def _check_side(vec: np.ndarray, p: StandardFormLp | GeneralFormLp, side: str) -> None:
    """Raise ValueError for an unknown side, or unless vec has the length of
    a certificate of the side: m for "primal", n for "dual"."""
    if side not in ("primal", "dual"):
        raise ValueError(f"unknown certificate side {side!r}")
    want = p.m if side == "primal" else p.n
    if len(vec) != want:
        raise ValueError(f"a {side} certificate has length {want}, got {len(vec)}")


def _dot(row: _SparseRow, v: Sequence[int]) -> int:
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
    at = p.a.to_dense().T
    for i in np.flatnonzero((lo != 0.0) | (hi != 0.0)):
        r = -_exact_dot(at[i].tolist(), v)
        obj += _frac(lo[i]) * r if r > 0 else _frac(hi[i]) * r if r < 0 else 0
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
    p = general_form(p)
    return _check(exactify_vector(cert), p, kind, _cone_rows(p, kind))


# Snap denominators repair_certificate tries, coarsest first.
_REPAIR_DENOMINATORS = (10, 10**2, 10**3, 10**4, 10**5, 10**6, 10**9)
# A cone row is tight for the repair when its exact value is within this
# multiple of ||row||_inf * ||v||_inf of zero.
_REPAIR_TIGHT = Fraction(1, 10**7)
# Largest entry of a repaired certificate: a float holds it exactly, and
# exactify_vector's snap of it is the identity at desk sizes.
_REPAIR_MAX_ENTRY = 10**9
# Most rows and most columns of a problem the repair takes on.  A side has
# at most m + 2n or 2m + n cone rows, so the elimination stays within 36.
# On one Xeon core, a certificate of a dense 12 x 12 LP with integer data
# takes about 0.01 s to repair; at 60 x 12 the Fraction arithmetic took
# 2.5-3.5 s with integer data and 15-18 s without.
REPAIR_MAX_DIM = MAX_VARIABLES


def _coprime_integers(v: list[Fraction]) -> list[int]:
    """v scaled by a positive rational to coprime integers (v nonzero)."""
    den = math.lcm(*(f.denominator for f in v))
    ints = [f.numerator * (den // f.denominator) for f in v]
    g = math.gcd(*ints)
    return [i // g for i in ints]


def _null_basis(rows: list[_SparseRow], n: int) -> list[list[int]]:
    """Integer vectors spanning {v : row'v = 0 for every row} over the
    rationals: one per free column of the rows' reduced echelon form, found
    by exact Gauss-Jordan elimination."""
    mat = [[Fraction(row.get(j, 0)) for j in range(n)] for row in rows]
    pivots: list[int] = []
    for col in range(n):
        top = len(pivots)
        piv = next((i for i in range(top, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        inv = 1 / mat[top][col]
        mat[top] = [v * inv for v in mat[top]]
        for i in range(len(mat)):
            f = mat[i][col]
            if i != top and f != 0:
                mat[i] = [u - f * w for u, w in zip(mat[i], mat[top])]
        pivots.append(col)
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -mat[i][free]
        basis.append(_coprime_integers(v))
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
    12 certificates and spent 0.06-0.35 s on each.
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
    floats if its largest entry is at most _REPAIR_MAX_ENTRY and it passes
    verify_certificate_exact.  The elimination runs in Fraction arithmetic,
    cubic in the number of rows, so a problem that repair_fits refuses
    raises ValueError, as do an unknown side and a vector of another
    length.
    """
    _check_side(vec, p, side)
    if not repair_fits(p):
        raise ValueError(f"too large for the exact repair: {p.m} x {p.n}")
    vec = np.asarray(vec, dtype=np.float64)
    if not np.any(vec):
        return None
    p = general_form(p)
    rows = _cone_rows(p, side)
    v = _coprime_integers([Fraction(float(x)) for x in vec])
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
        coef = exactify_vector(coords, max_denominator=den)
        fixed = [sum(c * b[j] for c, b in zip(coef, basis)) for j in range(len(v))]
        if not any(fixed):
            continue
        ints = _coprime_integers(fixed)
        if max(abs(i) for i in ints) > _REPAIR_MAX_ENTRY:
            continue
        out = np.array(ints, dtype=np.float64)
        if _check(exactify_vector(out), p, side, rows).valid:
            return out
    return None
