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

import enum
import time
from dataclasses import dataclass, field

import numpy as np

from . import certificates as certs
from . import exact, linalg
from .linalg import MNorm, SparseMatrix, StepSizes, max0
from .model import (
    GeneralFormLp,
    KindMasks,
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
    "residual_scales",
    "kkt_residual",
    "dual_objective",
    "active_pattern",
    "inclusion_residual",
    "TraceRecord",
    "SolveStatus",
    "Termination",
    "SolveOutcome",
    "run",
]

# run() stops with NUMERICAL_ERROR once an iterate entry exceeds this.
_DIVERGENCE_LIMIT = 1e50
# After one side certifies at k, run() returns the one-sided verdict at the
# first check that finds a feasible point of the other side.  Failing that,
# it keeps iterating for the other side until max(_GRACE_FACTOR * k,
# k + _GRACE_MIN_EXTRA), and only then declares the verdict.
_GRACE_FACTOR = 2.0
_GRACE_MIN_EXTRA = 500
# run() projects on a support only when its Gram matrix has at most this
# order.  On one Xeon core numpy's eigh took 14 ms at order 300, 0.25 s at
# 1000 and 1.7 s at 2000, and each dense copy of order 1000 holds 8 MB.
_GRAM_MAX_ORDER = 1000


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

    def advance(
        self, op: _OperatorBase, count: int, aty: np.ndarray | None = None
    ) -> None:
        """Take count steps of op in place, advancing the sums and k.

        aty, if given, is A'y of the current y and feeds the first step
        only (see _OperatorBase).  Each step's x and y are new arrays; the
        sums are updated in place.
        """
        apply = op.apply
        x, y = self.x, self.y
        x_prev, y_prev = self.x_prev, self.y_prev
        sum_x, sum_y = self.sum_x, self.sum_y
        for _ in range(count):
            x1, y1 = apply(x, y, aty=aty)
            aty = None
            sum_x += x1
            sum_y += y1
            x_prev = x
            y_prev = y
            x = x1
            y = y1
        self.x, self.y, self.x_prev, self.y_prev = x, y, x_prev, y_prev
        self.k += count


class _OperatorBase:
    """Shared plumbing: cached products and the M-norm of the iteration.

    apply(x, y, aty=None) takes A'y precomputed when the caller has it (the
    solve loop's check computes it for its own use); the product is the
    same either way, so the step is too.  matrix is A in the storage the
    products use: a dense array up to linalg.DENSE_LIMIT entries, the CSR
    matrix above it.
    """

    coupling_sign = 1

    def __init__(self, a: SparseMatrix, steps: StepSizes):
        self.a = a
        self.steps = steps
        m, n = a.shape
        self.n = n
        self.m = m
        if m * n <= linalg.DENSE_LIMIT:
            mat = a.to_dense()
            mat_t = np.ascontiguousarray(mat.T)
        else:
            mat, mat_t = a.csr, a.transposed_csr()
        self.matrix = mat
        self._mat = lambda v: mat @ v
        self._rmat = lambda v: mat_t @ v
        self._m_norm: MNorm | None = None

    def m_norm(self) -> MNorm:
        if self._m_norm is None:
            self._m_norm = MNorm(self.a, self.steps, self.coupling_sign)
        return self._m_norm

    def apply_z(self, z: np.ndarray) -> np.ndarray:
        """Stacked (x, y) convenience view of apply."""
        x, y = self.apply(z[: self.n], z[self.n :])
        return np.concatenate([x, y])

    def trajectory(self, z0: np.ndarray, k: int) -> np.ndarray:
        """Rows z^0..z^k of the iteration from the stacked z0 = (x^0, y^0).

        Each step's x and y are written straight into their row.
        """
        n = self.n
        points = np.empty((k + 1, n + self.m))
        points[0] = z0
        apply = self.apply
        for j in range(1, k + 1):
            points[j, :n], points[j, n:] = apply(points[j - 1, :n], points[j - 1, n:])
        return points


class StandardFormOperator(_OperatorBase):
    coupling_sign = 1

    def __init__(self, p: StandardFormLp, steps: StepSizes):
        super().__init__(p.a, steps)
        self.p = p
        self._eta_c = steps.eta * p.c
        self._tau_b = steps.tau * p.b

    def apply(
        self, x: np.ndarray, y: np.ndarray, aty: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        w = x - self.steps.eta * (self._rmat(y) if aty is None else aty)
        w -= self._eta_c
        np.maximum(w, 0.0, out=w)
        y1 = y + self.steps.tau * self._mat(2.0 * w - x)
        y1 -= self._tau_b
        return w, y1


class GeneralFormOperator(_OperatorBase):
    coupling_sign = -1

    def __init__(self, p: GeneralFormLp, steps: StepSizes):
        super().__init__(p.a, steps)
        self.p = p
        self._eta_c = steps.eta * p.c
        self._tau_b = steps.tau * p.b

    def apply(
        self, x: np.ndarray, y: np.ndarray, aty: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        w = x + self.steps.eta * (self._rmat(y) if aty is None else aty)
        w -= self._eta_c
        # Same values as np.clip (validate rejects l > u) without its
        # Python-level dispatch.
        np.maximum(w, self.p.l, out=w)
        np.minimum(w, self.p.u, out=w)
        y1 = y - self.steps.tau * self._mat(2.0 * w - x)
        y1 += self._tau_b
        np.maximum(y1, 0.0, out=y1)
        return w, y1


def make_operator(
    p: StandardFormLp | GeneralFormLp, steps: StepSizes
) -> StandardFormOperator | GeneralFormOperator:
    if isinstance(p, StandardFormLp):
        return StandardFormOperator(p, steps)
    return GeneralFormOperator(p, steps)


def recover_r(
    p: GeneralFormLp,
    y: np.ndarray,
    aty: np.ndarray | None = None,
    masks: KindMasks | None = None,
) -> np.ndarray:
    """Reduced costs: c - A'y projected onto the dual-finiteness signs.

    aty (A'y) and masks (p.kind_masks()) are computed when not given.
    """
    if aty is None:
        aty = p.a.rmatvec(y)
    if masks is None:
        masks = p.kind_masks()
    return clip_to_dual_signs(p.c - aty, masks)


@dataclass(slots=True)
class KktResiduals:
    primal: float
    dual: float
    gap: float

    @property
    def max(self) -> float:
        return max(self.primal, self.dual, self.gap)


def dual_objective(
    p: GeneralFormLp, y: np.ndarray, r: np.ndarray, masks: KindMasks | None = None
) -> float:
    """b'y + l'r_+ - u'r_- over the finite-bound terms; masks, if given,
    are p.kind_masks()."""
    if masks is None:
        masks = p.kind_masks()
    l_idx, l_fin = masks.finite_l
    u_idx, u_fin = masks.finite_u
    val = float(p.b @ y)
    val += float(l_fin @ np.maximum(r[l_idx], 0.0))
    val -= float(u_fin @ np.maximum(-r[u_idx], 0.0))
    return val + p.objective_offset


def residual_scales(p: StandardFormLp | GeneralFormLp) -> tuple[float, float]:
    """(1 + ||b||_inf, 1 + ||c||_inf), the divisors of kkt_residual."""
    return (
        1.0 + max0(np.abs(p.b)),
        1.0 + max0(np.abs(p.c)),
    )


def kkt_residual(
    p: StandardFormLp | GeneralFormLp,
    x: np.ndarray,
    y: np.ndarray,
    r: np.ndarray | None = None,
    ax: np.ndarray | None = None,
    aty: np.ndarray | None = None,
    scales: tuple[float, float] | None = None,
    masks: KindMasks | None = None,
) -> KktResiduals:
    """Relative optimality residuals: primal and dual feasibility plus gap,
    each scaled by 1 + the magnitude of the data it is measured against.

    ax (A x), aty (A'y), scales (residual_scales(p)) and, in general form,
    masks (p.kind_masks()) are computed when not given.
    """
    if ax is None:
        ax = p.a.matvec(x)
    if aty is None:
        aty = p.a.rmatvec(y)
    b_scale, c_scale = residual_scales(p) if scales is None else scales
    if isinstance(p, StandardFormLp):
        # The iteration's dual variable multiplies (Ax - b) in the ascent
        # form, so dual feasibility reads A'y + c >= 0 and the dual
        # objective is -b'y.
        primal = max(max0(np.abs(ax - p.b)), max0(-x))
        dual = max0(-aty - p.c)
        pobj = float(p.c @ x)
        dobj = -float(p.b @ y)
    else:
        if masks is None:
            masks = p.kind_masks()
        if r is None:
            r = recover_r(p, y, aty, masks)
        primal = max(max0(p.b - ax), max0(p.l - x), max0(x - p.u))
        dual = max(max0(np.abs(p.c - aty - r)), max0(-y))
        pobj = float(p.c @ x)
        dobj = dual_objective(p, y, r, masks) - p.objective_offset
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
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
    GRACE_DEADLINE = "grace_deadline"
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


def _repair(
    rep: certs.CertCheckReport,
    p: StandardFormLp | GeneralFormLp,
    masks: KindMasks | None,
) -> None:
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
        rep.r = clip_to_dual_signs(-p.a.rmatvec(fixed), masks)


def _infeasibility_verdict(
    best_primal: certs.CertCheckReport | None,
    best_dual: certs.CertCheckReport | None,
) -> SolveStatus | None:
    """The infeasible status the certificates in hand support, or None."""
    if best_primal is not None and best_dual is not None:
        return SolveStatus.BOTH_INFEASIBLE
    if best_primal is not None:
        return SolveStatus.PRIMAL_INFEASIBLE
    if best_dual is not None:
        return SolveStatus.DUAL_INFEASIBLE
    return None


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
    scales: tuple[float, float],
    masks: KindMasks | None,
    kkt_tol: float,
) -> bool:
    """Whether point, (x, y, A x, A'y) in p's coordinates, moved along the
    ray of rep by _ray_step, is feasible for the side rep does not
    certify: kkt_residual's dual part at most kkt_tol for a primal
    certificate, its primal part for a dual one.  ray_product is A'w of a
    primal certificate w, A d of a dual one d; masks are p.kind_masks() in
    general form and None in standard form.

    A primal certificate moves y: its rows are A'y + c >= 0 in standard
    form, and y >= 0 with the reduced-cost signs of the lower-only and
    upper-only columns in general form.  A dual certificate moves x: its
    rows are x >= 0, or A x >= b and the box.
    """
    x, y, ax, aty = point
    ray = rep.vector
    if rep.side == "primal":
        if masks is None:
            g, h = aty + p.c, ray_product
        else:
            s = p.c - aty
            lo, up = masks.lower, masks.upper
            g = np.concatenate([y, s[lo], -s[up]])
            h = np.concatenate([ray, -ray_product[lo], ray_product[up]])
        t = _ray_step(g, h)
        y, aty = y + t * ray, aty + t * ray_product
    else:
        if masks is None:
            g, h = x, ray
        else:
            g = np.concatenate([ax - p.b, x - p.l, p.u - x])
            h = np.concatenate([ray_product, ray, -ray])
        t = _ray_step(g, h)
        x, ax = x + t * ray, ax + t * ray_product
    kkt = kkt_residual(p, x, y, None, ax, aty, scales=scales, masks=masks)
    return (kkt.dual if rep.side == "primal" else kkt.primal) <= kkt_tol


class _Support:
    """The support an active pattern names on the scaled problem ps, with
    the projector of its block (see _support_point).

    cols are the support's columns; in general form rows are its rows and
    rhs its right-hand side, and x_fixed holds the bounded columns where
    the pattern puts them.  d and w, the two null-space projections, are
    the SUPPORT candidate's parts, 0 off the support.
    """

    def __init__(self, ps, key, proj, cols, rows=None, rhs=None, x_fixed=None):
        self.ps, self.key, self.proj = ps, key, proj
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
    key = pattern.tobytes()
    if isinstance(ps, StandardFormLp):
        if ps.m > _GRAM_MAX_ORDER:
            return None
        cols = pattern == 0
        proj = linalg.support_projection(a[:, cols], ps.c[cols], ps.b)
        return _Support(ps, key, proj, cols)
    cols = pattern[: ps.n] == 0
    rows = pattern[ps.n :] == 0
    if np.count_nonzero(rows) > _GRAM_MAX_ORDER:
        return None
    a_r = a[rows]
    x_fixed = np.where(cols, 0.0, x)
    rhs = ps.b[rows] - a_r @ x_fixed
    proj = linalg.support_projection(a_r[:, cols], ps.c[cols], rhs)
    return _Support(ps, key, proj, cols, rows, rhs, x_fixed)


def run(
    p: StandardFormLp | GeneralFormLp,
    config: PdhgConfig | None = None,
    x0: np.ndarray | None = None,
    y0: np.ndarray | None = None,
) -> SolveOutcome:
    """Iterate until optimality, a certificate, or a budget/guard trips.

    Every check_interval iterations the KKT residuals are evaluated and all
    three candidate sequences are put through the infeasibility tests.  At a
    check where exactly one side has a passing certificate, run looks for a
    feasible point of the other side (_other_side_feasible): the iterate,
    and the iterate moved onto the support when this check's pattern has
    been projected, each moved along the certificate's ray until the sign
    rows it can fix hold.  If kkt_residual's part for that side is at most
    kkt_tol, the test OPTIMAL uses for that side, the one-sided verdict is
    returned at once.  Otherwise the grace window, the fallback,
    waits for the other side's certificate until max(2k, k + 500) after the
    first certificate at k, so that problems infeasible on both sides are
    reported as such rather than by whichever certificate converged first.
    outcome.termination names the rule that ended the run.

    A check makes six products: A x^k and A'y^k serve the KKT residuals,
    the reduced costs and the normalized iterate, and the next step reuses
    A'y^k; the difference and the average take one product per side.  Net
    of the reused one, a check costs five products.

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
    run keeps the projector of the last projected pattern, and later checks
    on that pattern move their iterate with it for the feasible-point
    search, with products only.

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
    report = validate(p)
    if not report.ok:
        raise ValueError("invalid problem: " + "; ".join(report.errors))
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
    support: _Support | None = None  # the support last projected
    polished: tuple | None = None  # (x, y, r, kkt) of a polish that passed
    best_primal: certs.CertCheckReport | None = None
    best_dual: certs.CertCheckReport | None = None
    grace_deadline: int | None = None
    status: SolveStatus | None = None
    termination: Termination | None = None
    kkt: KktResiduals | None = None
    r: np.ndarray | None = None
    mat, rmat = op._mat, op._rmat
    masks = p.kind_masks() if general else None
    scales = residual_scales(p)
    aty: np.ndarray | None = None  # A~'y from the last check, for the next step

    while state.k < config.max_iters:
        state.advance(op, min(config.check_interval, config.max_iters - state.k), aty)
        k = state.k

        zmax = max(max0(np.abs(state.x)), max0(np.abs(state.y)))
        if not np.isfinite(zmax) or zmax > _DIVERGENCE_LIMIT:
            status = SolveStatus.NUMERICAL_ERROR
            break

        aty = rmat(state.y)
        view = scaling.unscale_state(state)
        products = scaling.unscale_products(mat(state.x), aty, mat, rmat)
        r = recover_r(p, view.y, products.aty, masks) if general else None
        kkt = kkt_residual(
            p,
            view.x,
            view.y,
            r,
            ax=products.ax,
            aty=products.aty,
            scales=scales,
            masks=masks,
        )
        pattern = active_pattern(ps, state.x, state.y)
        changed = not np.array_equal(pattern, prev_pattern)
        prev_pattern = pattern
        key = pattern.tobytes()
        ms = (time.perf_counter() - t_start) * 1000.0

        cands = [
            certs.extract(view, kind, p if general else None, products, masks)
            for kind in certs.SEQUENCE_KINDS
        ]
        fresh = False  # whether this check projected
        if not changed and k > config.check_interval and key not in projected:
            # The pattern held since the last check and is new: project once.
            projected.add(key)
            support = _support_point(ps, op.matrix, state.x, pattern)
            fresh = support is not None
            if fresh:
                cands.append(
                    certs.candidate(
                        certs.CandidateKind.SUPPORT,
                        k,
                        support.d * scaling.col,
                        support.w * scaling.row,
                        p if general else None,
                        products,
                        masks,
                    )
                )

        for cand in cands:
            if general:
                prep = certs.check_primal_infeasibility(cand, p, config.eps, masks)
                drep = certs.check_dual_infeasibility(cand, p, config.eps, masks)
            else:
                prep, drep = certs.check_standard_farkas(cand, p, config.eps)
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
        moved = _moved_iterate(support, state, scaling, products) if fresh else None
        if moved is not None:
            x_opt, y_opt, ax_opt, aty_opt = moved
            r_opt = recover_r(p, y_opt, aty_opt, masks) if general else None
            kkt_opt = kkt_residual(
                p, x_opt, y_opt, r_opt, ax_opt, aty_opt, scales=scales, masks=masks
            )
            if kkt_opt.max <= config.kkt_tol:
                polished = (x_opt, y_opt, r_opt, kkt_opt)
                status, termination = SolveStatus.OPTIMAL, Termination.POLISH
                break
        verdict = _infeasibility_verdict(best_primal, best_dual)
        if verdict is SolveStatus.BOTH_INFEASIBLE:
            status, termination = verdict, Termination.BOTH_CERTIFICATES
            break
        if verdict is not None:
            # One side certified: look for a feasible point of the other,
            # from the iterate and from the iterate moved onto the support
            # of this check's pattern, when one was projected.
            rep = best_primal if best_primal is not None else best_dual
            ray_product = (
                products.rmatvec(rep.vector)
                if rep.side == "primal"
                else products.matvec(rep.vector)
            )
            points = [(view.x, view.y, products.ax, products.aty)]
            if support is not None and support.key == key:
                points.append(
                    moved or _moved_iterate(support, state, scaling, products)
                )
            if any(
                _other_side_feasible(
                    p, rep, ray_product, point, scales, masks, config.kkt_tol
                )
                for point in points
            ):
                status, termination = verdict, Termination.OTHER_SIDE_FEASIBLE
                break
            if grace_deadline is None:
                grace_deadline = min(
                    config.max_iters,
                    max(int(k * _GRACE_FACTOR), k + _GRACE_MIN_EXTRA),
                )
            elif k >= grace_deadline:
                status, termination = verdict, Termination.GRACE_DEADLINE
                break

    if termination is None:
        # Budget exhausted or guard tripped: a certificate in hand still wins.
        termination = (
            Termination.DIVERGENCE
            if status is SolveStatus.NUMERICAL_ERROR
            else Termination.BUDGET
        )
        status = (
            _infeasibility_verdict(best_primal, best_dual)
            or status
            or SolveStatus.ITERATION_LIMIT
        )

    if exact.repair_fits(p):
        for rep in (best_primal, best_dual):
            if rep is not None:
                _repair(rep, p, masks)
    state = scaling.unscale_state(state)
    # The outcome's x and y are copies, so no array of its state is one of them.
    x, y = state.x.copy(), state.y.copy()
    if polished is not None:
        x, y, r, kkt = polished
    if kkt is None:
        r = recover_r(p, y) if general else None
        kkt = kkt_residual(p, x, y, r)
    pobj = p.objective(x)
    dobj = None
    if general and r is not None:
        dobj = dual_objective(p, y, r, masks)
    elif not general:
        dobj = -float(p.b @ y) + p.objective_offset

    return SolveOutcome(
        status=status,
        termination=termination,
        x=x,
        y=y,
        r=r,
        iterations=state.k,
        kkt=kkt,
        primal_objective=pobj,
        dual_objective=dobj,
        primal_certificate=best_primal,
        dual_certificate=best_dual,
        trace=trace,
        state=state,
        steps=steps,
    )
