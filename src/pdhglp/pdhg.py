"""Primal-dual hybrid gradient iteration for LP, with certificate checks.

Standard form   min c'x : Ax = b, x >= 0
    x+ = proj_{>=0}(x - eta A'y - eta c)
    y+ = y + tau A(2x+ - x) - tau b

General form    min c'x : Ax >= b, l <= x <= u
    x+ = proj_[l,u](x - eta (c - A'y))
    y+ = proj_{>=0}(y + tau (b - A(2x+ - x)))

With eta * tau * ||A||^2 < 1 the update is an averaged (firmly nonexpansive)
map in the M-norm, so iterates either converge to a saddle point or drift
along the infimal displacement direction; run() watches both outcomes at a
fixed check interval.
"""

from __future__ import annotations

import dataclasses
import enum
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import certificates as certs
from . import exact, linalg
from .linalg import MNorm, SparseMatrix, StepSizes, max0
from .model import (
    GeneralFormLp,
    StandardFormLp,
    clip_to_dual_signs,
    validate,
)
from .scaling import DiagonalScaling, ruiz_pock_chambolle

__all__ = [
    "PdhgConfig",
    "PdhgState",
    "StandardFormOperator",
    "GeneralFormOperator",
    "make_operator",
    "recover_r",
    "KktResiduals",
    "kkt_residual",
    "dual_objective",
    "active_pattern",
    "inclusion_residual",
    "TraceRecord",
    "SolveStatus",
    "Termination",
    "SolveOutcome",
    "require_valid",
    "run",
]

# run() stops with NUMERICAL_ERROR once an iterate entry exceeds this.
_DIVERGENCE_LIMIT = 1e50
# run() projects on a support only when its Gram matrix has at most this
# order.  On one Xeon core numpy's eigh took 14 ms at order 300, 0.25 s at
# 1000 and 1.7 s at 2000, and each dense copy of order 1000 holds 8 MB.
_GRAM_MAX_ORDER = 1000
# Steps per block of the step loop (_OperatorBase._steps), so its buffers
# never outgrow _BLOCK + 1 rows whatever the step count.  trajectory copies
# rows out and PdhgState.advance adds them to the sums a block at a time,
# and identify's fixed-point search tests its step length after each block.
_BLOCK = 200


@dataclass(frozen=True)
class PdhgConfig:
    max_iters: int = 1_000_000
    eps: float = 1e-8
    kkt_tol: float = 1e-8
    step_factor: float = 0.9
    check_interval: int = 40

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.check_interval < 1:
            raise ValueError("check_interval must be positive")
        if not (self.eps > 0 and self.kkt_tol > 0):
            raise ValueError("tolerances must be positive")


@dataclass
class PdhgState:
    """Iterate bundle after k steps; sums cover z^1..z^k for averaging."""

    k: int
    x: np.ndarray
    y: np.ndarray
    x_prev: np.ndarray
    y_prev: np.ndarray
    sum_x: np.ndarray
    sum_y: np.ndarray

    @classmethod
    def initial(
        cls, n: int, m: int, x0: np.ndarray | None = None, y0: np.ndarray | None = None
    ) -> "PdhgState":
        """The state at k = 0, from zero or from x0 of shape (n,) and y0 of
        shape (m,); any other shape raises ValueError."""
        x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
        y = np.zeros(m) if y0 is None else np.asarray(y0, dtype=np.float64).copy()
        for name, v, size in (("x0", x, n), ("y0", y, m)):
            if v.shape != (size,):
                raise ValueError(f"{name} has shape {v.shape}, expected ({size},)")
        return cls(
            k=0,
            x=x,
            y=y,
            x_prev=x.copy(),
            y_prev=y.copy(),
            sum_x=np.zeros(n),
            sum_y=np.zeros(m),
        )

    def advance(self, op: _OperatorBase, count: int) -> None:
        """Take count steps of op's step loop in place, advancing k and the
        sums, which add the new rows in step order: count steps here match
        count single steps to the bit.  x, y, x_prev and y_prev are new."""
        for xs, ys, rows in op._steps(self.x, self.y, count):
            for x, y in zip(xs[1 : rows + 1], ys[1 : rows + 1, :-1]):
                self.sum_x += x
                self.sum_y += y
        if count:
            self.x_prev, self.x = xs[rows - 1].copy(), xs[rows].copy()
            self.y_prev, self.y = ys[rows - 1, :-1].copy(), ys[rows, :-1].copy()
        self.k += count


class _OperatorBase:
    """One PDHG step as data, and the one loop that takes it.

    An operator is two stacked blocks and their bounds, built once:

        x_j = clip(x_{j-1} + K1 [y_{j-1}; 1], lo1, hi1)
        y_j = clip(y_{j-1} + K2 [2 x_j - x_{j-1}; 1], lo2, hi2)

    with K1 = [-s eta A' | x_offset], K2 = [s tau A | y_offset] and s the
    coupling sign.  The subclasses give the offsets and, per side, the
    clips (np.maximum, lower) and (np.minimum, upper); a clip whose bound
    has no finite entry is dropped.  Neither block holds an identity or a
    zero block, so together they store 2 m n + n + m entries dense (up to
    linalg.DENSE_LIMIT entries of A) and at most 2 nnz + n + m in CSR.

    _steps is the loop.  It writes x rows and (y; 1) rows into two buffers
    and [2 x_j - x_{j-1}; 1] into a vector of its own, so a standard-form
    step is seven numpy calls, with no allocation in dense storage.  A
    stacked K2 = [-s tau A | y_offset | 2 s tau A] over [x_{j-1}; 1; x_j]
    would save two calls, but it reads A twice, which costs more than those
    calls in CSR storage (47.5 against 35.6 us per step at 300 x 1200 with
    8400 nnz, one Xeon core).  apply, trajectory, PdhgState.advance and
    identify's fixed-point search all run the loop.  matrix is A in the
    blocks' storage, and _mat and _rmat are its products, which run's
    checks use.
    """

    coupling_sign = 1

    def __init__(self, a: SparseMatrix, steps: StepSizes, offsets, clips):
        self.a = a
        self.steps = steps
        m, n = a.shape
        self.n = n
        self.m = m
        x_offset, y_offset = offsets
        s_eta, s_tau = self.coupling_sign * steps.eta, self.coupling_sign * steps.tau
        if m * n <= linalg.DENSE_LIMIT:
            mat = a.to_dense()
            mat_t = np.ascontiguousarray(mat.T)
            self.k1 = np.hstack([-s_eta * mat_t, x_offset[:, None]])
            self.k2 = np.hstack([s_tau * mat, y_offset[:, None]])
            dot1, dot2, out1, out2 = self.k1.dot, self.k2.dot, np.empty(n), np.empty(m)
            self._k1_dot = lambda v: dot1(v, out1)
            self._k2_dot = lambda v: dot2(v, out2)
        else:
            mat, mat_t = a.csr, a.transposed_csr()
            col1, col2 = (sp.csr_matrix(v[:, None]) for v in (x_offset, y_offset))
            self.k1 = sp.hstack([-s_eta * mat_t, col1], format="csr")
            self.k2 = sp.hstack([s_tau * mat, col2], format="csr")
            self._k1_dot, self._k2_dot = self.k1.__matmul__, self.k2.__matmul__
        self._clips = [
            [(clip, bound) for clip, bound in side if np.isfinite(bound).any()]
            for side in clips
        ]
        self.matrix = mat
        self._mat = lambda v: mat @ v
        self._rmat = lambda v: mat_t @ v
        self._m_norm: MNorm | None = None

    def m_norm(self) -> MNorm:
        if self._m_norm is None:
            self._m_norm = MNorm(self.a, self.steps, self.coupling_sign)
        return self._m_norm

    def _steps(self, x: np.ndarray, y: np.ndarray, count: int):
        """The step loop: count steps from (x, y), _BLOCK at a time.  After
        each block it yields the buffers, rows x and (y; 1), and the rows r
        it filled: row 0 is where the block started, rows 1..r its steps,
        and the next block starts from row r."""
        xs = np.empty((min(count, _BLOCK) + 1, self.n))
        ys = np.ones((len(xs), self.m + 1))
        xs[0], ys[0, :-1] = x, y
        # Row j of these is x_j, y_j and [y_j; 1].
        x_rows, y_rows, y_ones = list(xs), list(ys[:, :-1]), list(ys)
        d = np.ones(self.n + 1)  # [2 x_j - x_{j-1}; 1]
        d_x = d[:-1]
        k1_dot, k2_dot = self._k1_dot, self._k2_dot
        x_clips, y_clips = self._clips
        for done in range(0, count, _BLOCK):
            if done:
                xs[0], ys[0] = xs[-1], ys[-1]
            rows = min(_BLOCK, count - done)
            for j in range(1, rows + 1):
                x_prev, x, y = x_rows[j - 1], x_rows[j], y_rows[j]
                np.add(x_prev, k1_dot(y_ones[j - 1]), out=x)
                for clip, bound in x_clips:
                    clip(x, bound, out=x)
                np.multiply(x, 2.0, out=d_x)
                np.subtract(d_x, x_prev, out=d_x)
                np.add(y_rows[j - 1], k2_dot(d), out=y)
                for clip, bound in y_clips:
                    clip(y, bound, out=y)
            yield xs, ys, rows

    def apply(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One step from (x, y): (x1, y1), views of a fresh buffer."""
        xs, ys, _ = next(self._steps(x, y, 1))
        return xs[1], ys[1, :-1]

    def apply_z(self, z: np.ndarray) -> np.ndarray:
        """Stacked (x, y) convenience view of apply."""
        x, y = self.apply(z[: self.n], z[self.n :])
        return np.concatenate([x, y])

    def trajectory(self, z0: np.ndarray, k: int) -> np.ndarray:
        """Rows z^0..z^k of the iteration from the stacked z0 = (x^0, y^0),
        copied out of the step buffers a block at a time."""
        if k < 0:
            raise ValueError(f"a trajectory needs k >= 0 steps, got {k}")
        n = self.n
        points = np.empty((k + 1, n + self.m))
        points[0] = z0
        done = 1
        for xs, ys, rows in self._steps(points[0, :n], points[0, n:], k):
            points[done : done + rows, :n] = xs[1 : rows + 1]
            points[done : done + rows, n:] = ys[1 : rows + 1, :-1]
            done += rows
        return points


class StandardFormOperator(_OperatorBase):
    coupling_sign = 1

    def __init__(self, p: StandardFormLp, steps: StepSizes):
        offsets = (-steps.eta * p.c, -steps.tau * p.b)
        super().__init__(p.a, steps, offsets, ([(np.maximum, np.zeros(p.n))], []))
        self.p = p

    # Each operator class names apply itself: perfbench's tracer wraps it
    # per class.
    apply = _OperatorBase.apply


class GeneralFormOperator(_OperatorBase):
    coupling_sign = -1

    def __init__(self, p: GeneralFormLp, steps: StepSizes):
        offsets = (-steps.eta * p.c, steps.tau * p.b)
        clips = ([(np.maximum, p.l), (np.minimum, p.u)], [(np.maximum, np.zeros(p.m))])
        super().__init__(p.a, steps, offsets, clips)
        self.p = p

    apply = _OperatorBase.apply


def make_operator(
    p: StandardFormLp | GeneralFormLp, steps: StepSizes
) -> StandardFormOperator | GeneralFormOperator:
    if isinstance(p, StandardFormLp):
        return StandardFormOperator(p, steps)
    return GeneralFormOperator(p, steps)


def recover_r(
    p: GeneralFormLp, y: np.ndarray, aty: np.ndarray | None = None
) -> np.ndarray:
    """Reduced costs: c - A'y projected onto the dual-finiteness signs.

    aty (A'y) is computed when not given.
    """
    if aty is None:
        aty = p.a.rmatvec(y)
    return clip_to_dual_signs(p.c - aty, p.masks)


@dataclass(slots=True)
class KktResiduals:
    primal: float
    dual: float
    gap: float

    @property
    def max(self) -> float:
        return max(self.primal, self.dual, self.gap)


def dual_objective(p: GeneralFormLp, y: np.ndarray, r: np.ndarray) -> float:
    """b'y + l'r_+ - u'r_- over the finite-bound terms, plus the offset."""
    return p.dual_value(y, r) + p.objective_offset


def kkt_residual(
    p: StandardFormLp | GeneralFormLp,
    x: np.ndarray,
    y: np.ndarray,
    r: np.ndarray | None = None,
    ax: np.ndarray | None = None,
    aty: np.ndarray | None = None,
) -> KktResiduals:
    """Relative optimality residuals: primal and dual feasibility plus gap,
    the first two divided by 1 + ||b||_inf and 1 + ||c||_inf.

    ax (A x), aty (A'y) and, in general form, r (recover_r) are computed
    when not given.
    """
    if ax is None:
        ax = p.a.matvec(x)
    if aty is None:
        aty = p.a.rmatvec(y)
    if isinstance(p, StandardFormLp):
        # The iteration's dual variable multiplies (Ax - b) in the ascent
        # form, so dual feasibility reads A'y + c >= 0 and the dual
        # objective is -b'y.
        primal = max(max0(np.abs(ax - p.b)), max0(-x))
        dual = max0(-aty - p.c)
        pobj = float(p.c @ x)
        dobj = -float(p.b @ y)
    else:
        if r is None:
            r = recover_r(p, y, aty)
        primal = max(max0(p.b - ax), max0(p.l - x), max0(x - p.u))
        dual = max(max0(np.abs(p.c - aty - r)), max0(-y))
        pobj = float(p.c @ x)
        dobj = dual_objective(p, y, r) - p.objective_offset
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    b_scale, c_scale = 1.0 + max0(np.abs(p.b)), 1.0 + max0(np.abs(p.c))
    return KktResiduals(primal / b_scale, dual / c_scale, gap)


def active_pattern(
    p: StandardFormLp | GeneralFormLp, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Integer code of which projections are active; exact comparisons are
    safe because the projections write the bound values verbatim.

    Besides the trace's active_changed flag, run takes its support from this
    code: the entries coded 0 are the support of a projection (x > 0 in
    standard form; in general form the columns strictly inside their bounds
    and the rows with y > 0).
    """
    if isinstance(p, StandardFormLp):
        return (x == 0.0).astype(np.int8)
    code = (x == p.l).astype(np.int8) + 2 * (x == p.u).astype(np.int8)
    return np.concatenate([code, (y == 0.0).astype(np.int8)])


def inclusion_residual(op: _OperatorBase, x: np.ndarray, y: np.ndarray) -> float:
    """Take one step from (x, y) and measure how far the step conditions are
    from the required normal-cone memberships; exact steps give ~0."""
    eta, tau = op.steps.eta, op.steps.tau
    x1, y1 = op.apply(x, y)
    if isinstance(op, StandardFormOperator):
        pp = op.p
        s = (x - x1) / eta - pp.a.rmatvec(y) - pp.c
        # s must lie in the normal cone of the nonnegative orthant at x1:
        # nonpositive where x1 is at the bound, zero elsewhere.
        viol_x = float(np.max(np.maximum(s, 0.0), initial=0.0))
        interior = x1 > 0.0
        if np.any(interior):
            viol_x = max(viol_x, float(np.max(np.abs(s[interior]))))
        t = (y - y1) / tau - pp.b + pp.a.matvec(2.0 * x1 - x)
        viol_y = float(np.max(np.abs(t), initial=0.0))
        return max(viol_x, viol_y)
    pp = op.p
    s = (x - x1) / eta + pp.a.rmatvec(y) - pp.c
    at_l = x1 == pp.l
    at_u = x1 == pp.u
    interior = ~(at_l | at_u)
    viol_x = 0.0
    if np.any(interior):
        viol_x = float(np.max(np.abs(s[interior])))
    only_l = at_l & ~at_u
    only_u = at_u & ~at_l
    if np.any(only_l):
        viol_x = max(viol_x, float(np.max(np.maximum(s[only_l], 0.0))))
    if np.any(only_u):
        viol_x = max(viol_x, float(np.max(np.maximum(-s[only_u], 0.0))))
    t = (y - y1) / tau + pp.b - pp.a.matvec(2.0 * x1 - x)
    at_zero = y1 == 0.0
    viol_y = 0.0
    if np.any(~at_zero):
        viol_y = float(np.max(np.abs(t[~at_zero])))
    if np.any(at_zero):
        viol_y = max(viol_y, float(np.max(np.maximum(t[at_zero], 0.0))))
    return max(viol_x, viol_y)


@dataclass(slots=True)
class TraceRecord:
    """One row per sequence kind per check; field names match the CSV header.

    scaled_err and obj_term describe the primal-infeasibility test of that
    sequence (obj_term is the certificate objective; scaled_err is None when
    the objective term is not positive).  kkt and active_changed are
    per-check values repeated across the three rows.  ms is wall time since
    the run started.
    """

    k: int
    seq: str
    scaled_err: float | None
    obj_term: float
    kkt: float
    active_changed: bool
    ms: float


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    DUAL_INFEASIBLE = "dual_infeasible"
    BOTH_INFEASIBLE = "both_infeasible"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL_ERROR = "numerical_error"


class Termination(enum.Enum):
    """The rule that ended a run (see run)."""

    KKT = "kkt"
    POLISH = "polish"
    BOTH_CERTIFICATES = "both_certificates"
    OTHER_SIDE_FEASIBLE = "other_side_feasible"
    WITNESS_SOLVE = "witness_solve"
    BUDGET = "budget"
    DIVERGENCE = "divergence"


@dataclass
class SolveOutcome:
    """Result of run(), in the coordinates of the problem given to it.

    steps are those of the operator the run iterated, which is always the
    scaled one (see run), so they need not suit the problem's own A.
    """

    status: SolveStatus
    termination: Termination
    x: np.ndarray
    y: np.ndarray
    r: np.ndarray | None
    iterations: int
    kkt: KktResiduals | None
    primal_objective: float
    dual_objective: float | None
    primal_certificate: certs.CertCheckReport | None
    dual_certificate: certs.CertCheckReport | None
    trace: list[TraceRecord] = field(default_factory=list)
    state: PdhgState | None = None
    steps: StepSizes | None = None


def _repair(rep: certs.CertCheckReport, p: StandardFormLp | GeneralFormLp) -> None:
    """Put rep's exact repair in place of its vector when there is one, and
    set rep.exact to whether the vector rep then carries passes
    exact.verify_certificate_exact on p.  On data that are not all
    integers (exact.integer_data) the repair is not tried."""
    fixed = None
    if exact.integer_data(p):
        fixed = exact.repair_certificate(rep.vector, p, rep.side)
    if fixed is None:
        rep.exact = exact.verify_certificate_exact(rep.vector, p, rep.side).valid
        return
    rep.vector = fixed
    rep.exact = True
    if rep.r is not None:
        rep.r = clip_to_dual_signs(-p.a.rmatvec(fixed), p.masks)


def _ray_step(g: np.ndarray, h: np.ndarray) -> float:
    """The smallest t >= 0 with g + t h >= 0 on every row where g < 0 and
    h > 0; rows the ray cannot fix are left as they are."""
    fix = (g < 0.0) & (h > 0.0)
    return float(np.max(-g[fix] / h[fix], initial=0.0))


def _other_side_feasible(
    p: StandardFormLp | GeneralFormLp,
    rep: certs.CertCheckReport,
    ray_product: np.ndarray,
    point: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    products: certs.StateProducts,
    kkt_tol: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """point, (x, y, A x, A'y) in p's coordinates, moved along the ray of
    rep by _ray_step, as (x, y) if kkt_residual gives the side rep does not
    certify a part of at most kkt_tol, else None.  ray_product (A'w of a
    primal certificate w, A d of a dual one d) sets the move only: the
    moved point's product is taken with products, since at a large t
    A'y + t A'w is not A'(y + t w) to kkt_tol.

    A primal certificate moves y: its rows are A'y + c >= 0 in standard
    form, and y >= 0 with the reduced-cost signs of the lower-only and
    upper-only columns in general form.  A dual certificate moves x: its
    rows are x >= 0, or A x >= b and the box.
    """
    x, y, ax, aty = point
    ray = rep.vector
    standard = isinstance(p, StandardFormLp)
    if rep.side == "primal":
        if standard:
            g, h = aty + p.c, ray_product
        else:
            s = p.c - aty
            lo, up = p.masks.lower, p.masks.upper
            g = np.concatenate([y, s[lo], -s[up]])
            h = np.concatenate([ray, -ray_product[lo], ray_product[up]])
        y = y + _ray_step(g, h) * ray
        aty = products.rmatvec(y)
    else:
        if standard:
            g, h = x, ray
        else:
            g = np.concatenate([ax - p.b, x - p.l, p.u - x])
            h = np.concatenate([ray_product, ray, -ray])
        x = x + _ray_step(g, h) * ray
        ax = products.matvec(x)
    kkt = kkt_residual(p, x, y, None, ax, aty)
    feasible = (kkt.dual if rep.side == "primal" else kkt.primal) <= kkt_tol
    return (x, y) if feasible else None


def _witness_problem(
    p: StandardFormLp | GeneralFormLp, side: str
) -> StandardFormLp | GeneralFormLp:
    """p with c = 0 for a dual certificate; for a primal one, p with b = 0
    and in general form the box widened to hold 0 (finite bounds stay
    finite).  The uncertified side's feasible set is p's and 0 is feasible
    on the other, so run on it ends OPTIMAL, with a feasible point of p's
    uncertified side, or with that side's certificate, which reads none of
    the zeroed data and so holds on p, exact flag and all.
    """
    if side == "dual":
        return dataclasses.replace(p, c=np.zeros(p.n))
    if isinstance(p, StandardFormLp):
        return dataclasses.replace(p, b=np.zeros(p.m))
    l, u = np.minimum(p.l, 0.0), np.maximum(p.u, 0.0)
    return dataclasses.replace(p, b=np.zeros(p.m), l=l, u=u)


class _Support:
    """The support an active pattern names on the scaled problem ps, with
    the projector of its block (see _support_point).

    cols are the support's columns; in general form rows are its rows and
    rhs its right-hand side, and x_fixed holds the bounded columns where
    the pattern puts them.  d and w, the two null-space projections, are
    the SUPPORT candidate's parts, 0 off the support.
    """

    def __init__(self, ps, proj, cols, rows=None, rhs=None, x_fixed=None):
        self.ps, self.proj = ps, proj
        self.cols, self.rows, self.rhs, self.x_fixed = cols, rows, rhs, x_fixed
        self.d = np.zeros(ps.n)
        self.d[cols] = -proj.null_c
        if rows is None:
            self.w = -proj.null_b
        else:
            self.w = np.zeros(ps.m)
            self.w[rows] = proj.null_b

    def project(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) moved onto the support's affine sets, off the support held
        at the pattern's values.

        Standard form: x_S onto {A_S x_S = b} with x = 0 off S, and y onto
        {A_S'y = -c_S}.  General form: x_F onto {A_RF x_F = rhs} and y_R
        onto {A_RF'y_R = c_F}, with y = 0 off R.
        """
        ps, proj, cols, rows = self.ps, self.proj, self.cols, self.rows
        if rows is None:
            x_p = np.zeros(ps.n)
            x_p[cols] = proj.onto_rows(x[cols], ps.b)
            return x_p, proj.onto_cols(y, -ps.c[cols])
        x_p = self.x_fixed.copy()
        x_p[cols] = proj.onto_rows(x[cols], self.rhs)
        y_p = np.zeros(ps.m)
        y_p[rows] = proj.onto_cols(y[rows], ps.c[cols])
        return x_p, y_p


def _moved_iterate(
    support: _Support,
    state: PdhgState,
    scaling: DiagonalScaling,
    products: certs.StateProducts,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The scaled iterate state moved onto support (_Support.project), as
    (x, y, A x, A'y) in the original coordinates; products are the
    original problem's (see DiagonalScaling.unscale_products)."""
    x, y = support.project(state.x, state.y)
    x, y = x * scaling.col, y * scaling.row
    return x, y, products.matvec(x), products.rmatvec(y)


def _support_point(
    ps: StandardFormLp | GeneralFormLp,
    a,
    x: np.ndarray,
    pattern: np.ndarray,
) -> _Support | None:
    """The support that pattern, the active pattern of an iterate with
    primal part x, names on ps, projected once with
    linalg.support_projection; a is ps's matrix, dense or CSR.  None, with
    nothing computed, when the support has more than _GRAM_MAX_ORDER rows.

    Standard form: on S = {x > 0}, d_S = -P_null(A_S) c_S and
    w = -P_null(A_S') b, the displacement's direction on each side, so d is
    the dual-infeasibility candidate and w the primal one.  General form:
    on the free columns F = {l < x < u} and the rows R = {y > 0}, K = A_RF
    and the right-hand side is b_R - A_RB x_B with the bounded columns B
    held where x has them; d_F = -P_null(K) c_F and
    w_R = P_null(K') (b_R - A_RB x_B).
    """
    if isinstance(ps, StandardFormLp):
        if ps.m > _GRAM_MAX_ORDER:
            return None
        cols = pattern == 0
        proj = linalg.support_projection(a[:, cols], ps.c[cols], ps.b)
        return _Support(ps, proj, cols)
    cols = pattern[: ps.n] == 0
    rows = pattern[ps.n :] == 0
    if np.count_nonzero(rows) > _GRAM_MAX_ORDER:
        return None
    a_r = a[rows]
    x_fixed = np.where(cols, 0.0, x)
    rhs = ps.b[rows] - a_r @ x_fixed
    proj = linalg.support_projection(a_r[:, cols], ps.c[cols], rhs)
    return _Support(ps, proj, cols, rows, rhs, x_fixed)


def require_valid(p: StandardFormLp | GeneralFormLp) -> None:
    """Raise ValueError naming every error model.validate finds in p."""
    report = validate(p)
    if not report.ok:
        raise ValueError("invalid problem: " + "; ".join(report.errors))


def run(
    p: StandardFormLp | GeneralFormLp,
    config: PdhgConfig | None = None,
    x0: np.ndarray | None = None,
    y0: np.ndarray | None = None,
) -> SolveOutcome:
    """Iterate until optimality, a certificate, or a budget/guard trips.

    Every check_interval iterations the KKT residuals are evaluated and all
    three candidate sequences are put through certificates' two
    infeasibility tests, one per side and the same in both forms: a
    candidate passes when its residual divided by its certificate objective
    is at most eps, and fails when that objective is not positive.
    outcome.termination names the rule that ended the run.

    A check where exactly one side has a passing certificate decides the
    verdict and ends the run.  run first looks for a feasible point of the
    other side (_other_side_feasible): the iterate, then the iterate moved
    onto the support this check projected, each moved along the
    certificate's ray until the sign rows it can fix hold.  A point passes
    when kkt_residual's part for that side, the test OPTIMAL uses, is at
    most kkt_tol (OTHER_SIDE_FEASIBLE).  Failing both, run solves
    _witness_problem(p, side) with the steps left, from 0 on the certified
    side and the iterate on the other (WITNESS_SOLVE): OPTIMAL gives the
    feasible point, and the other side's certificate makes the verdict
    BOTH_INFEASIBLE (its k counts this run's steps too).  The point found
    is returned as x for a dual verdict, as y and r for a primal one, with
    its kkt; outcome.state keeps the iterate and iterations counts the
    sub-solve's steps.  When no steps are left, or the sub-solve ends
    without a verdict, the one-sided verdict stands with termination
    BUDGET (or the sub-solve's), and x and y are the last iterate.  The
    trace holds this run's checks only.

    A check makes six products, none shared with the steps (which run on
    the operator's stacked blocks, see _OperatorBase): A x^k and A'y^k
    serve the KKT residuals, the reduced costs and the normalized iterate,
    and the difference and the average take one product per side.

    A check whose active_pattern equals the previous check's, and which no
    earlier check of the run projected, also projects once on the support
    that pattern names (see _support_point): one eigendecomposition of the
    support's Gram matrix gives a fourth candidate, SUPPORT, and a
    projector that moves the iterate onto the support's affine sets (see
    _Support.project).  The moved iterate is the polished point.  A support
    with more than _GRAM_MAX_ORDER rows is not projected.  The candidate is
    tested like the sequences and gets a trace row of its own; the polished
    point is returned as OPTIMAL (its x, y, r and kkt in the outcome, the
    iterate in outcome.state) only if kkt_residual on p is at most kkt_tol.
    The candidate and the point take four products, and the projection one
    slice of the scaled matrix, a sparse Gram product and a dense eigh; on
    the 300 x 1200 benchmark instances that took 7-13 ms, once per item.

    Every problem is iterated on D_r A D_c with Ruiz and Pock-Chambolle
    factors (see scaling), with step sizes from that matrix.  Each check
    pulls the state and its products back, so the KKT residuals and the
    certificate tests run on p itself (eps and kkt_tol keep their meaning),
    and every vector returned is in p's coordinates.  Warm starts x0, y0
    are given in p's coordinates too, with shapes (n,) and (m,).

    On problems that exact.repair_fits takes (at most 12 rows and 12
    columns) each certificate that passed at eps then goes through
    exact.repair_certificate if exact.integer_data holds.  A repaired
    certificate replaces the report's vector (and, for a general form
    primal report, its reduced costs r), and the report's exact field says
    whether the vector it carries passes the exact re-check; its
    scaled_error and objective_term still describe the float candidate.
    Larger problems' reports keep exact None.
    """
    config = config or PdhgConfig()
    require_valid(p)
    general = isinstance(p, GeneralFormLp)
    start = PdhgState.initial(p.n, p.m, x0, y0)
    scaling = DiagonalScaling(*ruiz_pock_chambolle(p.a))
    ps = scaling.problem(p)  # the problem the operator iterates
    state = PdhgState.initial(p.n, p.m, *scaling.to_scaled(start.x, start.y))
    steps = StepSizes.for_matrix(ps.a, config.step_factor)
    op = make_operator(ps, steps)

    trace: list[TraceRecord] = []
    t_start = time.perf_counter()
    prev_pattern = active_pattern(ps, state.x, state.y)
    projected: set[bytes] = set()  # the patterns already projected
    point: tuple | None = None  # (x, y) returned in place of the iterate
    sub: SolveOutcome | None = None  # the witness sub-solve
    best_primal: certs.CertCheckReport | None = None
    best_dual: certs.CertCheckReport | None = None
    status: SolveStatus | None = None
    termination: Termination | None = None
    kkt: KktResiduals | None = None
    r: np.ndarray | None = None
    mat, rmat = op._mat, op._rmat

    while state.k < config.max_iters:
        state.advance(op, min(config.check_interval, config.max_iters - state.k))
        k = state.k

        zmax = max(max0(np.abs(state.x)), max0(np.abs(state.y)))
        if not np.isfinite(zmax) or zmax > _DIVERGENCE_LIMIT:
            status, termination = SolveStatus.NUMERICAL_ERROR, Termination.DIVERGENCE
            break

        view = scaling.unscale_state(state)
        products = scaling.unscale_products(mat(state.x), rmat(state.y), mat, rmat)
        r = recover_r(p, view.y, products.aty) if general else None
        kkt = kkt_residual(p, view.x, view.y, r, products.ax, products.aty)
        pattern = active_pattern(ps, state.x, state.y)
        changed = not np.array_equal(pattern, prev_pattern)
        prev_pattern = pattern
        key = pattern.tobytes()
        ms = (time.perf_counter() - t_start) * 1000.0

        cands = [certs.extract(view, kind, products) for kind in certs.SEQUENCE_KINDS]
        moved = None  # the iterate moved onto the support this check projected
        if not changed and k > config.check_interval and key not in projected:
            # The pattern held since the last check and is new: project once.
            projected.add(key)
            support = _support_point(ps, op.matrix, state.x, pattern)
            if support is not None:
                cands.append(
                    certs.candidate(
                        certs.CandidateKind.SUPPORT,
                        k,
                        support.d * scaling.col,
                        support.w * scaling.row,
                        products,
                    )
                )
                moved = _moved_iterate(support, state, scaling, products)

        for cand in cands:
            prep = certs.check_primal_infeasibility(cand, p, config.eps)
            drep = certs.check_dual_infeasibility(cand, p, config.eps)
            trace.append(
                TraceRecord(
                    k=k,
                    seq=cand.kind.value,
                    scaled_err=prep.scaled_error,
                    obj_term=prep.objective_term,
                    kkt=kkt.max,
                    active_changed=changed,
                    ms=ms,
                )
            )
            if prep.passed and (
                best_primal is None or prep.scaled_error < best_primal.scaled_error
            ):
                best_primal = prep
            if drep.passed and (
                best_dual is None or drep.scaled_error < best_dual.scaled_error
            ):
                best_dual = drep

        if kkt.max <= config.kkt_tol:
            status, termination = SolveStatus.OPTIMAL, Termination.KKT
            break
        if moved is not None:
            x_m, y_m, ax_m, aty_m = moved
            kkt_m = kkt_residual(p, x_m, y_m, None, ax_m, aty_m)
            if kkt_m.max <= config.kkt_tol:
                point = (x_m, y_m)
                status, termination = SolveStatus.OPTIMAL, Termination.POLISH
                break
        if best_primal is not None and best_dual is not None:
            status = SolveStatus.BOTH_INFEASIBLE
            termination = Termination.BOTH_CERTIFICATES
            break
        rep = best_primal if best_primal is not None else best_dual
        if rep is None:
            continue
        # One side certified: the run ends at this check, on a feasible point
        # of the other side or on the witness sub-solve's answer.
        primal = rep.side == "primal"
        status = (
            SolveStatus.PRIMAL_INFEASIBLE if primal else SolveStatus.DUAL_INFEASIBLE
        )
        ray_product = (products.rmatvec if primal else products.matvec)(rep.vector)
        for origin in ((view.x, view.y, products.ax, products.aty), moved):
            if origin is not None and point is None:
                point = _other_side_feasible(
                    p, rep, ray_product, origin, products, config.kkt_tol
                )
        if point is not None:
            termination = Termination.OTHER_SIDE_FEASIBLE
        elif k == config.max_iters:
            termination = Termination.BUDGET
        else:
            # The certified side starts from 0, which is feasible there.
            sub = run(
                _witness_problem(p, rep.side),
                dataclasses.replace(config, max_iters=config.max_iters - k),
                None if primal else view.x,
                view.y if primal else None,
            )
            other = sub.dual_certificate if primal else sub.primal_certificate
            if sub.status is SolveStatus.OPTIMAL:
                termination = Termination.WITNESS_SOLVE
                point = (view.x, sub.y) if primal else (sub.x, view.y)
            elif other is not None:
                other.k += k  # on this run's count of steps
                best_primal, best_dual = (rep, other) if primal else (other, rep)
                status = SolveStatus.BOTH_INFEASIBLE
                termination = Termination.WITNESS_SOLVE
            else:
                termination, point = sub.termination, (sub.x, sub.y)
        break

    if termination is None:
        status, termination = SolveStatus.ITERATION_LIMIT, Termination.BUDGET

    if exact.repair_fits(p):
        for rep in (best_primal, best_dual):
            # The witness sub-solve's certificate is already repaired.
            if rep is not None and rep.exact is None:
                _repair(rep, p)
    state = scaling.unscale_state(state)
    # The outcome's x and y are copies, so no array of its state is one of them.
    x, y = (state.x.copy(), state.y.copy()) if point is None else point
    if point is not None or kkt is None:
        r = recover_r(p, y) if general else None
        kkt = kkt_residual(p, x, y, r)
    pobj = p.objective(x)
    dobj = None
    if general and r is not None:
        dobj = dual_objective(p, y, r)
    elif not general:
        dobj = -float(p.b @ y) + p.objective_offset

    return SolveOutcome(
        status=status,
        termination=termination,
        x=x,
        y=y,
        r=r,
        iterations=state.k + (sub.iterations if sub is not None else 0),
        kkt=kkt,
        primal_objective=pobj,
        dual_objective=dobj,
        primal_certificate=best_primal,
        dual_certificate=best_dual,
        trace=trace,
        state=state,
        steps=steps,
    )
