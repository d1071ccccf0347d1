"""LP problem containers and the bridge between the two canonical forms.

Two shapes are used throughout:

  standard form   min c'x   s.t.  Ax = b,  x >= 0
  general form    min c'x   s.t.  Ax >= b on the inequality rows,
                                  Ax = b on the equality rows (eq),
                                  l <= x <= u

The solver, its checks, the exact oracle and the analysis toolkit's
operators work on the general form; a standard-form problem reaches them
as its lowering, general_form(p) (see pdhg).  The analysis toolkit takes
its problems in the standard form, the paper's setting.

``to_standard_form`` rewrites a general-form problem as a standard-form one
(shifts, sign flips, free-variable splits, slacks, box rows) and returns
its bookkeeping: which standard-form columns stand for each original
variable and row.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import SparseMatrix, max0

__all__ = [
    "KindMasks",
    "StandardFormLp",
    "GeneralFormLp",
    "StandardizationMap",
    "general_form",
    "number_errors",
    "validate",
    "to_standard_form",
    "standard_to_general",
    "clip_to_dual_signs",
    "clip_to_ray_signs",
]


@dataclass(frozen=True)
class KindMasks:
    """Boolean masks over variables, one per bound pattern.

    floor (0 on lower-only variables, -inf elsewhere) and ceil (0 on
    upper-only variables, +inf elsewhere) are built on first use and kept,
    so the sign clips below take two dense ufuncs and one masked store
    instead of masked gathers.
    """

    boxed: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    free: np.ndarray

    @cached_property
    def floor(self) -> np.ndarray:
        return np.where(self.lower, 0.0, -np.inf)

    @cached_property
    def ceil(self) -> np.ndarray:
        return np.where(self.upper, 0.0, np.inf)


def _gather(mask: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    idx = np.flatnonzero(mask)
    return (idx, bounds[idx]) if bounds[idx].any() else (idx[:0], bounds[:0])


def _store_vectors(p, dtype=np.float64, **sizes: int) -> None:
    """Check each named vector of the frozen problem p against its size and
    store a read-only copy, so no write can leave p's cached parts stale."""
    for name, size in sizes.items():
        arr = np.array(getattr(p, name), dtype=dtype)
        if arr.shape != (size,):
            raise ValueError(f"{name} must have shape ({size},), got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(p, name, arr)


@dataclass(frozen=True)
class StandardFormLp:
    """min c'x subject to Ax = b, x >= 0.

    Immutable, vectors included: a changed problem is made with
    dataclasses.replace.
    """

    c: np.ndarray
    a: SparseMatrix
    b: np.ndarray
    name: str = ""
    objective_offset: float = 0.0

    def __post_init__(self):
        m, n = self.a.shape
        _store_vectors(self, c=n, b=m)

    @property
    def n(self) -> int:
        return self.a.n_cols

    @property
    def m(self) -> int:
        return self.a.n_rows

    def objective(self, x: np.ndarray) -> float:
        return float(self.c @ x) + self.objective_offset

    @cached_property
    def general(self) -> GeneralFormLp:
        """The lowering, built on first use and kept: -Ax = -b on equality
        rows, 0 <= x, whose PDHG step is this problem's (see pdhg)."""
        m, n = self.a.shape
        neg = copy.copy(self.a.csr)  # shares the index arrays, never written
        neg.data = -neg.data
        return GeneralFormLp(
            c=self.c,
            a=SparseMatrix(neg),
            b=-self.b,
            l=np.zeros(n),
            u=np.full(n, np.inf),
            name=self.name,
            objective_offset=self.objective_offset,
            eq=np.ones(m, dtype=bool),
        )


@dataclass(frozen=True)
class GeneralFormLp:
    """min c'x subject to Ax >= b, with Ax = b on the rows where eq is True
    (None: none), and l <= x <= u (entries of l, u may be infinite).

    Immutable, vectors included: a changed problem is made with
    dataclasses.replace, which builds the masks of its own bounds.
    """

    c: np.ndarray
    a: SparseMatrix
    b: np.ndarray
    l: np.ndarray
    u: np.ndarray
    name: str = ""
    objective_offset: float = 0.0
    eq: np.ndarray | None = None

    def __post_init__(self):
        m, n = self.a.shape
        _store_vectors(self, c=n, b=m, l=n, u=n)
        if self.eq is None:
            object.__setattr__(self, "eq", np.zeros(m, dtype=bool))
        _store_vectors(self, dtype=bool, eq=m)

    @property
    def n(self) -> int:
        return self.a.n_cols

    @property
    def m(self) -> int:
        return self.a.n_rows

    @cached_property
    def masks(self) -> KindMasks:
        """The bound kind of every variable, built on first use and kept."""
        fin_l = np.isfinite(self.l)
        fin_u = np.isfinite(self.u)
        return KindMasks(
            boxed=fin_l & fin_u,
            lower=fin_l & ~fin_u,
            upper=~fin_l & fin_u,
            free=~fin_l & ~fin_u,
        )

    @cached_property
    def finite_l(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices with a finite lower bound, l at them), in index order,
        built on first use and kept; both empty when those bounds are all 0."""
        return _gather(self.masks.boxed | self.masks.lower, self.l)

    @cached_property
    def finite_u(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices with a finite upper bound, u at them), in index order,
        built on first use and kept; both empty when those bounds are all 0."""
        return _gather(self.masks.boxed | self.masks.upper, self.u)

    @cached_property
    def row_floor(self) -> np.ndarray:
        """The lower bound of y, built on first use and kept: 0 on the
        inequality rows, -inf on the equality rows, where y is free."""
        return np.where(self.eq, -np.inf, 0.0)

    def row_violation(self, v: np.ndarray) -> float:
        """The largest violation of v >= 0 (v = 0 on the equality rows)."""
        return max(max0(-v), max0(v[self.eq]))

    def objective(self, x: np.ndarray) -> float:
        return float(self.c @ x) + self.objective_offset

    def dual_value(self, y: np.ndarray, r: np.ndarray) -> float:
        """b'y + l'r_+ - u'r_- over the finite bounds: the dual objective of
        (y, r) without the objective offset, and the certificate objective
        of a Farkas vector y with reduced costs r."""
        l_idx, l_fin = self.finite_l
        u_idx, u_fin = self.finite_u
        val = float(self.b @ y)
        if l_idx.size:
            val += float(l_fin @ np.maximum(r[l_idx], 0.0))
        if u_idx.size:
            val -= float(u_fin @ np.maximum(-r[u_idx], 0.0))
        return val


def general_form(p: StandardFormLp | GeneralFormLp) -> GeneralFormLp:
    """p itself, or a standard-form p's lowering (StandardFormLp.general)."""
    return p.general if isinstance(p, StandardFormLp) else p


def number_errors(p: GeneralFormLp) -> list[str]:
    """The entries of p that no LP reads as data: a non-finite entry of c,
    b, A or the objective offset, a NaN bound, a lower bound of +inf or an
    upper bound of -inf (any other infinite bound means none).  The solver
    and the exact oracle both refuse a problem this lists anything for."""
    errors = [
        f"{name} contains NaN or infinite entries"
        for name, v in (
            ("c", p.c),
            ("b", p.b),
            ("A", p.a.csr.data),
            ("objective_offset", np.float64(p.objective_offset)),
        )
        if not np.isfinite(v).all()
    ]
    if np.isnan(p.l).any() or np.isnan(p.u).any():
        errors.append("bounds contain NaN")
    else:
        if (p.l == np.inf).any():
            errors.append("lower bound +inf is not a valid bound")
        if (p.u == -np.inf).any():
            errors.append("upper bound -inf is not a valid bound")
    return errors


def validate(p: StandardFormLp | GeneralFormLp) -> list[str]:
    """The errors that keep the solver off general_form(p), empty when it
    can run: no constraint rows, no columns, number_errors, and a lower
    bound above its upper bound.  Never raises."""
    p = general_form(p)
    errors = []
    if p.m == 0:
        # PDHG has nothing to iterate on, and the scaling and the step
        # sizes are taken from A's rows.
        errors.append("the problem has no constraint rows")
    if p.n == 0:
        errors.append("the problem has no columns")
    errors += number_errors(p)
    errors += [
        f"variable {i}: lower bound exceeds upper bound"
        for i in np.flatnonzero(p.l > p.u)
    ]
    return errors


def clip_to_dual_signs(w: np.ndarray, masks: KindMasks) -> np.ndarray:
    """Project reduced costs onto the signs where the dual objective is finite.

    Boxed variables keep any sign, lower-bounded ones are clipped to >= 0,
    upper-bounded ones to <= 0, free ones to 0.
    """
    r = np.maximum(w, masks.floor)
    np.minimum(r, masks.ceil, out=r)
    r[masks.free] = 0.0
    return r


def clip_to_ray_signs(d: np.ndarray, masks: KindMasks) -> np.ndarray:
    """Project a primal direction onto the recession cone of the box.

    Boxed variables cannot move, lower-bounded ones only upward,
    upper-bounded ones only downward, free ones anywhere.
    """
    out = np.maximum(d, masks.floor)
    np.minimum(out, masks.ceil, out=out)
    out[masks.boxed] = 0.0
    return out


@dataclass
class StandardizationMap:
    """Index bookkeeping from to_standard_form.

    Column conventions in the standard-form problem, in order:
      * one column per lower-bounded or boxed variable (x = l + t),
      * one column per upper-bounded variable (x = u - t),
      * two columns per free variable (x = t_pos - t_neg),
      * one slack column per inequality row (Ax - s = b'); an equality row
        has none, and row_slack_col holds -1 for it,
      * one slack column per boxed variable's box row (t + s_box = u - l).
    """

    n_gen: int
    m_gen: int
    n_std: int
    m_std: int
    main_col: np.ndarray
    neg_col: np.ndarray
    sign: np.ndarray
    shift: np.ndarray
    row_slack_col: np.ndarray
    box_rows: list[tuple[int, int, int]]
    objective_offset: float


def to_standard_form(p: GeneralFormLp) -> tuple[StandardFormLp, StandardizationMap]:
    m, n = p.m, p.n
    masks = p.masks

    main_col = np.full(n, -1, dtype=np.int64)
    neg_col = np.full(n, -1, dtype=np.int64)
    sign = np.ones(n)
    shift = np.zeros(n)

    next_col = 0
    for i in range(n):
        main_col[i] = next_col
        next_col += 1
        if masks.free[i]:
            neg_col[i] = next_col
            next_col += 1
        elif masks.upper[i]:
            sign[i] = -1.0
            shift[i] = p.u[i]
        else:
            shift[i] = p.l[i]

    ineq = np.flatnonzero(~p.eq)
    row_slack_col = np.full(m, -1, dtype=np.int64)
    row_slack_col[ineq] = np.arange(next_col, next_col + ineq.size)
    next_col += ineq.size

    boxed_idx = np.flatnonzero(masks.boxed)
    box_rows = []
    for j, i in enumerate(boxed_idx):
        box_rows.append((int(i), m + j, next_col + j))
    next_col += len(boxed_idx)

    n_std = next_col
    m_std = m + len(boxed_idx)

    rows_a, cols_a, vals_a = p.a.triplets()
    out_r: list[np.ndarray] = []
    out_c: list[np.ndarray] = []
    out_v: list[np.ndarray] = []

    # Constraint block: A (with per-variable signs) on the substituted columns.
    out_r.append(rows_a)
    out_c.append(main_col[cols_a])
    out_v.append(vals_a * sign[cols_a])
    free_entries = neg_col[cols_a] >= 0
    if np.any(free_entries):
        out_r.append(rows_a[free_entries])
        out_c.append(neg_col[cols_a[free_entries]])
        out_v.append(-vals_a[free_entries])

    # Slacks of the inequality rows: Ax - s = b'.
    out_r.append(ineq)
    out_c.append(row_slack_col[ineq])
    out_v.append(np.full(ineq.size, -1.0))

    # Box rows: t_i + s_box = u_i - l_i.
    for i, row, col in box_rows:
        out_r.append(np.array([row, row], dtype=np.int64))
        out_c.append(np.array([main_col[i], col], dtype=np.int64))
        out_v.append(np.array([1.0, 1.0]))

    a_std = SparseMatrix.from_triplets(
        m_std,
        n_std,
        np.concatenate(out_r),
        np.concatenate(out_c),
        np.concatenate(out_v),
    )

    c_std = np.zeros(n_std)
    c_std[main_col] = sign * p.c
    free = neg_col >= 0
    c_std[neg_col[free]] = -p.c[free]

    b_std = np.zeros(m_std)
    b_std[:m] = p.b - p.a.matvec(shift)
    for i, row, _ in box_rows:
        b_std[row] = p.u[i] - p.l[i]

    offset = float(p.c @ shift) + p.objective_offset
    std = StandardFormLp(
        c=c_std, a=a_std, b=b_std, name=p.name, objective_offset=offset
    )
    mapping = StandardizationMap(
        n_gen=n,
        m_gen=m,
        n_std=n_std,
        m_std=m_std,
        main_col=main_col,
        neg_col=neg_col,
        sign=sign,
        shift=shift,
        row_slack_col=row_slack_col,
        box_rows=box_rows,
        objective_offset=offset,
    )
    return std, mapping


def standard_to_general(p: StandardFormLp) -> GeneralFormLp:
    """The pair embedding: each equality becomes the inequality rows a, -a.

    The solver uses the lowering (StandardFormLp.general) instead.  This is
    kept for the benchmark's desk corpus and as the exact oracle's
    independent reference, where a primal certificate y of p reads
    (max(-y, 0), max(y, 0)).
    """
    if not isinstance(p, StandardFormLp):
        # A GeneralFormLp has all the attributes read below, so without this
        # guard inequality rows would be re-encoded as equalities and the
        # result would describe a different feasible set.
        raise TypeError(f"expected StandardFormLp, got {type(p).__name__}")
    rows, cols, vals = p.a.triplets()
    m, n = p.a.shape
    a2 = SparseMatrix.from_triplets(
        2 * m,
        n,
        np.concatenate([rows, rows + m]),
        np.concatenate([cols, cols]),
        np.concatenate([vals, -vals]),
    )
    b2 = np.concatenate([p.b, -p.b])
    return GeneralFormLp(
        c=p.c,
        a=a2,
        b=b2,
        l=np.zeros(n),
        u=np.full(n, np.inf),
        name=p.name,
        objective_offset=p.objective_offset,
    )
