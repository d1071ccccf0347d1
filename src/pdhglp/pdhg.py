"""Primal-dual hybrid gradient iteration for LP, with certificate checks.

One iteration solves both LP forms.  On the general form, min c'x with
Ax >= b (Ax = b on the equality rows) and l <= x <= u, it reads

    x+ = proj_[l,u](x - eta (c - A'y))
    y+ = proj_Y(y + tau (b - A(2x+ - x)))

with Y = {y >= 0 on the inequality rows, y free on the equality rows}.
A standard-form problem, min c'x : Ax = b, x >= 0, is solved as its
lowering (model.general_form): Ax = b read as -Ax = -b on equality rows,
l = 0, u = inf.  With that sign the step is

    x+ = proj_{>=0}(x - eta A'y - eta c)
    y+ = y + tau A(2x+ - x) - tau b

the standard-form iteration to the bit, with y of the same sign, so x, y
and both certificates need no map back.

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
from .linalg import MNorm, StepSizes, Support, max0
from .model import (
    GeneralFormLp,
    StandardFormLp,
    clip_to_dual_signs,
    general_form,
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
    "active_pattern",
    "TraceRecord",
    "SolveStatus",
    "Termination",
    "SolveOutcome",
    "require_valid",
    "run",
]

# run() stops with NUMERICAL_ERROR once an iterate entry exceeds this.
_DIVERGENCE_LIMIT = 1e50
# Steps per block of the step loop (GeneralFormOperator._steps), so its buffer
# never outgrows _BLOCK + 1 rows whatever the step count.  trajectory copies
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
        for name, v in (("eps", self.eps), ("kkt_tol", self.kkt_tol)):
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not 0.0 < self.step_factor < 1.0:
            raise ValueError(f"step factor must be in (0, 1), got {self.step_factor}")


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

    def advance(self, op: GeneralFormOperator, count: int) -> None:
        """Take count steps of op's step loop, advancing k and the sums,
        which add the new rows in step order: count steps here match count
        single steps to the bit.  x, y, x_prev, y_prev and the sums are new
        arrays."""
        n = self.x.size
        for xs, ys, rows in op._steps(self.x, self.y, count):
            # One reduce over the rows [sums; [x_j; y_j] for each step] adds
            # them one by one, as += would: numpy reduces axis 0 of a C-order
            # array row by row when it has two columns or more, as it does
            # here (n, m >= 1), and pairwise, a last bit apart, over one
            # column.  It overflows as the block's steps may, and as quietly.
            block = np.empty((rows + 1, n + self.y.size))
            block[0, :n], block[0, n:] = self.sum_x, self.sum_y
            block[1:, :n], block[1:, n:] = xs[1 : rows + 1], ys[1 : rows + 1, :-1]
            with np.errstate(over="ignore", invalid="ignore"):
                sums = np.add.reduce(block, axis=0)
            self.sum_x, self.sum_y = sums[:n], sums[n:]
        if count:
            self.x_prev, self.x = xs[rows - 1].copy(), xs[rows].copy()
            self.y_prev, self.y = ys[rows - 1, :-1].copy(), ys[rows, :-1].copy()
        self.k += count


class GeneralFormOperator:
    """One PDHG step on the general-form problem p as data, and the one loop
    that takes it.

    The step is two stacked blocks and their bounds, built once.  storage
    names the blocks and the loop body that reads them:

    - "fused", when both blocks fit in linalg.DENSE_LIMIT entries, that is
      n (n + m + 1) + m (2 n + m + 1) of them.  Dense blocks hold the
      identity, the offsets and 2 x_j - x_{j-1}:

          x_j = clip(K1 [x_{j-1}; y_{j-1}; 1], p.l, p.u)
          y_j = max(K2 [x_{j-1}; y_{j-1}; 1; x_j], p.row_floor)

      with K1 = [I | eta A' | -eta c - v_x] and
      K2 = [tau A | I | tau b - v_y | -2 tau A].  A step is two matrix
      products and the clips to the finite bounds: three numpy calls on a
      lowering.
    - "dense" (p.a.dense, up to linalg.DENSE_LIMIT entries of A) and "csr"
      (above it) otherwise.  Neither block holds an identity or a zero block:

          x_j = clip(x_{j-1} + K1 [y_{j-1}; 1], p.l, p.u)
          y_j = max(y_{j-1} + K2 [2 x_j - x_{j-1}; 1], p.row_floor)

      with K1 = [eta A' | -eta c - v_x] and K2 = [-tau A | tau b - v_y],
      2 m n + n + m entries dense and at most 2 nnz + n + m in CSR.  A step
      is seven numpy calls on a lowering.  Fused blocks read A twice: in
      CSR storage they were 5-15% slower per step at 300 x 1200 (about
      8500 nnz), and at 40 x 120 dense they gained nothing.

    shift = (v_x, v_y) is 0 for the solver and the displacement for
    identify's shifted twin.  A bound with no finite entry is not clipped
    to.

    _steps is the loop.  It writes the rows [x_j; y_j; 1] into one buffer,
    with no allocation in dense storage.  apply, trajectory,
    PdhgState.advance and identify's fixed-point search all run it.  matrix
    is A in the blocks' storage, p.a.dense or past the limit p.a.csr: the
    block both support projections (run's and identify.affine_phase's)
    slice.
    """

    def __init__(
        self, p: GeneralFormLp, steps: StepSizes, shift: np.ndarray | None = None
    ):
        self.p = p
        self.steps = steps
        m, n = p.a.shape
        self.n = n
        self.m = m
        self.shift = np.zeros(n + m) if shift is None else np.asarray(shift, float)
        x_offset = -steps.eta * p.c - self.shift[:n]
        y_offset = steps.tau * p.b - self.shift[n:]
        mat = p.a.dense
        if n * (n + m + 1) + m * (2 * n + m + 1) <= linalg.DENSE_LIMIT:
            self.storage = "fused"
            tau_a = steps.tau * mat
            self.k1 = np.hstack([np.eye(n), steps.eta * mat.T, x_offset[:, None]])
            self.k2 = np.hstack([tau_a, np.eye(m), y_offset[:, None], -2.0 * tau_a])
        elif mat is not None:
            self.storage = "dense"
            mat_t = np.ascontiguousarray(mat.T)
            self.k1 = np.hstack([steps.eta * mat_t, x_offset[:, None]])
            self.k2 = np.hstack([-steps.tau * mat, y_offset[:, None]])
        else:
            self.storage = "csr"
            mat, mat_t = p.a.csr, p.a.transposed_csr()
            col1, col2 = (sp.csr_matrix(v[:, None]) for v in (x_offset, y_offset))
            self.k1 = sp.hstack([steps.eta * mat_t, col1], format="csr")
            self.k2 = sp.hstack([-steps.tau * mat, col2], format="csr")
        clips = ([(np.maximum, p.l), (np.minimum, p.u)], [(np.maximum, p.row_floor)])
        self._clips = [
            [(clip, bound) for clip, bound in side if np.isfinite(bound).any()]
            for side in clips
        ]
        self.matrix = mat
        self._m_norm: MNorm | None = None

    def m_norm(self) -> MNorm:
        if self._m_norm is None:
            self._m_norm = MNorm(self.p.a, self.steps)
        return self._m_norm

    def _steps(self, x: np.ndarray, y: np.ndarray, count: int):
        """The step loop: count steps from (x, y), _BLOCK at a time.  After
        each block it yields views of its buffer, rows x and (y; 1), and the
        rows r it filled: row 0 is where the block started, rows 1..r its
        steps, and the next block starts from row r.

        A block runs with numpy's overflow and invalid-value warnings off,
        since run turns a non-finite iterate into a divergence at its next
        check.  The errstate is a context variable, so it is left before
        each yield: a caller may drop the loop half way."""
        n = self.n
        zs = np.ones((min(count, _BLOCK) + 1, n + self.m + 1))
        zs[0, :n], zs[0, n:-1] = x, y
        xs, ys = zs[:, :n], zs[:, n:]
        fused = self.storage == "fused"
        fill = self._fused_fill(zs) if fused else self._unfused_fill(zs)
        for done in range(0, count, _BLOCK):
            if done:
                zs[0] = zs[-1]
            rows = min(_BLOCK, count - done)
            with np.errstate(over="ignore", invalid="ignore"):
                fill(rows)
            yield xs, ys, rows

    def _fused_fill(self, zs: np.ndarray):
        """The fused step on the buffer zs of rows [x_j; y_j; 1], as a
        function that fills rows 1..r from row 0."""
        n, w = self.n, zs.shape[1]
        flat = zs.reshape(-1)
        # Row j of these is z_j, x_{j+1}, y_{j+1} and z_j followed by x_{j+1},
        # which are contiguous in the buffer.
        z_rows, x_rows, y_rows = list(zs[:-1]), list(zs[1:, :n]), list(zs[1:, n:-1])
        pairs = [flat[j * w : j * w + w + n] for j in range(len(z_rows))]
        dot1, dot2 = self.k1.dot, self.k2.dot
        x_clips, y_clips = self._clips

        def fill(rows: int) -> None:
            for z, pair, x, y in zip(z_rows[:rows], pairs, x_rows, y_rows):
                dot1(z, x)
                for clip, bound in x_clips:
                    clip(x, bound, out=x)
                dot2(pair, y)
                for clip, bound in y_clips:
                    clip(y, bound, out=y)

        return fill

    def _unfused_fill(self, zs: np.ndarray):
        """The dense or CSR step on the buffer zs of rows [x_j; y_j; 1], as
        a function that fills rows 1..r from row 0."""
        n = self.n
        # Row j of these is x_j, y_j and [y_j; 1].
        x_rows, y_rows, y_ones = list(zs[:, :n]), list(zs[:, n:-1]), list(zs[:, n:])
        d = np.ones(n + 1)  # [2 x_j - x_{j-1}; 1]
        d_x = d[:-1]
        if self.storage == "dense":
            dot1, dot2 = self.k1.dot, self.k2.dot
            out1, out2 = np.empty(n), np.empty(self.m)
            k1_dot, k2_dot = (lambda v: dot1(v, out1)), (lambda v: dot2(v, out2))
        else:
            k1_dot, k2_dot = self.k1.__matmul__, self.k2.__matmul__
        x_clips, y_clips = self._clips

        def fill(rows: int) -> None:
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

        return fill

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
        copied out of the step buffer a block at a time."""
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


class StandardFormOperator(GeneralFormOperator):
    """The step of a standard-form problem: GeneralFormOperator on its
    lowering (p = standard.general, so x >= 0 and every row an equality
    row, with no shift), keeping the problem itself as standard.  It is the
    operator identify analyses."""

    def __init__(self, standard: StandardFormLp, steps: StepSizes):
        super().__init__(standard.general, steps)
        self.standard = standard

    # Each operator class names apply itself: perfbench's tracer wraps it
    # per class.
    apply = GeneralFormOperator.apply


def make_operator(
    p: StandardFormLp | GeneralFormLp, steps: StepSizes
) -> GeneralFormOperator:
    """The step on general_form(p): a StandardFormOperator for a
    standard-form p, else a GeneralFormOperator."""
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


def kkt_residual(
    p: StandardFormLp | GeneralFormLp,
    x: np.ndarray,
    y: np.ndarray,
    r: np.ndarray | None = None,
    ax: np.ndarray | None = None,
    aty: np.ndarray | None = None,
) -> KktResiduals:
    """Relative optimality residuals of general_form(p): primal and dual
    feasibility plus gap, the first two divided by 1 + ||b||_inf and
    1 + ||c||_inf.  On a standard-form p dual feasibility reads
    A'y + c >= 0 and the dual objective is -b'y.

    ax (A x), aty (A'y) and r (recover_r), of general_form(p), are computed
    when not given.
    """
    p = general_form(p)
    if ax is None:
        ax = p.a.matvec(x)
    if aty is None:
        aty = p.a.rmatvec(y)
    if r is None:
        r = recover_r(p, y, aty)
    primal = max(p.row_violation(ax - p.b), max0(p.l - x), max0(x - p.u))
    dual = max(max0(np.abs(p.c - aty - r)), max0(p.row_floor - y))
    pobj = float(p.c @ x)
    dobj = p.dual_value(y, r)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    b_scale, c_scale = 1.0 + max0(np.abs(p.b)), 1.0 + max0(np.abs(p.c))
    return KktResiduals(primal / b_scale, dual / c_scale, gap)


def active_pattern(p: GeneralFormLp, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Integer code of which projections are active; exact comparisons are
    safe because the projections write the bound values verbatim.

    Besides the trace's active_changed flag, run takes its support from this
    code: the entries coded 0 are the support of a projection, the columns
    strictly inside their bounds and the rows with y > 0.  An equality row,
    where y is free, is always coded 0.
    """
    code = (x == p.l).astype(np.int8) + 2 * (x == p.u).astype(np.int8)
    return np.concatenate([code, (y == p.row_floor).astype(np.int8)])


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

    r is recover_r of the returned y (on a standard-form problem the
    clipped c + A'y).  steps are those of the operator the run iterated,
    which is always the scaled one (see run), so they need not suit the
    problem's own A.
    """

    status: SolveStatus
    termination: Termination
    x: np.ndarray
    y: np.ndarray
    r: np.ndarray
    iterations: int
    kkt: KktResiduals
    primal_objective: float
    dual_objective: float
    primal_certificate: certs.CertCheckReport | None
    dual_certificate: certs.CertCheckReport | None
    trace: list[TraceRecord] = field(default_factory=list)
    state: PdhgState | None = None
    steps: StepSizes | None = None


def _repair(rep: certs.CertCheckReport, p: GeneralFormLp) -> None:
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
    p: GeneralFormLp,
    rep: certs.CertCheckReport,
    ray_product: np.ndarray,
    point: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    kkt_tol: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """point, (x, y, A x, A'y) in p's coordinates, moved along the ray of
    rep by _ray_step, as (x, y) if kkt_residual gives the side rep does not
    certify a part of at most kkt_tol, else None.  ray_product (A'w of a
    primal certificate w, A d of a dual one d) sets the move only: the
    moved point's product is taken on p.a, as the outcome's kkt takes it,
    since at a large t A'y + t A'w is not A'(y + t w) to kkt_tol.

    A primal certificate moves y: its sign rows are y >= 0 on the
    inequality rows and the reduced-cost signs of the lower-only and
    upper-only columns.  A dual certificate moves x: its rows are A x >= b
    on the inequality rows and the box.  An equality row is no sign row:
    subtracting row_floor (-inf there, 0 elsewhere) puts +inf in its place.
    """
    x, y, ax, aty = point
    ray = rep.vector
    if rep.side == "primal":
        s = p.c - aty
        lo, up = p.masks.lower, p.masks.upper
        g = np.concatenate([y - p.row_floor, s[lo], -s[up]])
        h = np.concatenate([ray, -ray_product[lo], ray_product[up]])
        y = y + _ray_step(g, h) * ray
        aty = p.a.rmatvec(y)
    else:
        g = np.concatenate([ax - p.b - p.row_floor, x - p.l, p.u - x])
        h = np.concatenate([ray_product, ray, -ray])
        x = x + _ray_step(g, h) * ray
        ax = p.a.matvec(x)
    kkt = kkt_residual(p, x, y, None, ax, aty)
    feasible = (kkt.dual if rep.side == "primal" else kkt.primal) <= kkt_tol
    return (x, y) if feasible else None


def _witness_problem(p: GeneralFormLp, side: str) -> GeneralFormLp:
    """p with c = 0 for a dual certificate; for a primal one, p with b = 0
    and the box widened to hold 0 (finite bounds stay finite).  The
    uncertified side's feasible set is p's and 0 is feasible on the other,
    so run on it ends OPTIMAL, with a feasible point of p's uncertified
    side, or with that side's certificate, which reads none of the zeroed
    data and so holds on p, exact flag and all.
    """
    if side == "dual":
        return dataclasses.replace(p, c=np.zeros(p.n))
    l, u = np.minimum(p.l, 0.0), np.maximum(p.u, 0.0)
    return dataclasses.replace(p, b=np.zeros(p.m), l=l, u=u)


def require_valid(p: StandardFormLp | GeneralFormLp) -> None:
    """Raise ValueError naming every error model.validate finds in p."""
    errors = validate(p)
    if errors:
        raise ValueError("invalid problem: " + "; ".join(errors))


def run(
    p: StandardFormLp | GeneralFormLp,
    config: PdhgConfig | None = None,
    x0: np.ndarray | None = None,
    y0: np.ndarray | None = None,
) -> SolveOutcome:
    """Iterate until optimality, a certificate, or a budget/guard trips.

    p is iterated as general_form(p), lowered once here (see the module
    docstring); a standard-form p's x, y, r and certificates need no map
    back, with r the clipped c + A'y.

    Every check_interval iterations the KKT residuals are evaluated and all
    three candidate sequences are put through certificates' two
    infeasibility tests, one per side and the same in both forms: a
    candidate passes when its residual divided by its certificate objective
    is at most eps, and fails when that objective is not positive.
    outcome.termination names the rule that ended the run.  KKT (and the
    polished point, below) is tested before the certificates decide, and an
    OPTIMAL outcome carries no certificate, even one that passed at the
    check that ended the run.

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

    A check makes six products, all of p's own A (p.a.matvec and
    p.a.rmatvec on the pulled-back vectors) and none shared with the steps
    (which run on the operator's stacked blocks, see GeneralFormOperator):
    A x^k and A'y^k serve the KKT residuals, the reduced costs and the
    normalized iterate, and the difference and the average take one
    product per side.

    A check whose active_pattern equals the previous check's, and which no
    earlier check of the run projected, also projects once on the support
    that pattern names (linalg.Support of the entries coded 0): the
    eigendecomposition of the support's Gram matrix gives a fourth
    candidate, SUPPORT, and a projector that moves the iterate onto the
    support's affine sets (Support.project).  The moved iterate is the
    polished point.  Support.within_cap projects no support with more than
    linalg.GRAM_MAX_ORDER rows.  The candidate is
    tested like the sequences and gets a trace row of its own; the polished
    point is returned as OPTIMAL (its x, y, r and kkt in the outcome, the
    iterate in outcome.state) only if kkt_residual on p is at most kkt_tol.
    The candidate and the point take four products, and the projection one
    slice of the scaled matrix, a sparse Gram product and one batched eigh
    per size of the Gram matrix's connected components; on the 300 x 1200
    benchmark instances, whose Gram matrices split into 60-75 blocks of 4,
    that took 1-2 ms, once per item.

    Every problem is iterated on D_r A D_c with Ruiz and Pock-Chambolle
    factors (see scaling), with step sizes from that matrix.  Each check
    pulls the state back and takes its products on p.a, so the KKT
    residuals and the certificate tests run on p itself (eps and kkt_tol
    keep their meaning), and every vector returned is in p's coordinates.
    Warm starts x0, y0 are given in p's coordinates too, with shapes (n,)
    and (m,).

    On problems that exact.repair_fits takes (at most 12 rows and 12
    columns) each certificate that passed at eps then goes through
    exact.repair_certificate if exact.integer_data holds.  A repaired
    certificate replaces the report's vector (and, for a primal report, its
    reduced costs r), and the report's exact field says
    whether the vector it carries passes the exact re-check; its
    scaled_error and objective_term still describe the float candidate.
    Larger problems' reports keep exact None.
    """
    config = config or PdhgConfig()
    require_valid(p)
    p = general_form(p)
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

    while state.k < config.max_iters:
        state.advance(op, min(config.check_interval, config.max_iters - state.k))
        k = state.k

        zmax = max(max0(np.abs(state.x)), max0(np.abs(state.y)))
        if not np.isfinite(zmax) or zmax > _DIVERGENCE_LIMIT:
            status, termination = SolveStatus.NUMERICAL_ERROR, Termination.DIVERGENCE
            break

        view = scaling.unscale_state(state)
        ax, aty = p.a.matvec(view.x), p.a.rmatvec(view.y)
        r = recover_r(p, view.y, aty)
        kkt = kkt_residual(p, view.x, view.y, r, ax, aty)
        pattern = active_pattern(ps, state.x, state.y)
        changed = not np.array_equal(pattern, prev_pattern)
        prev_pattern = pattern
        key = pattern.tobytes()
        ms = (time.perf_counter() - t_start) * 1000.0

        cands = [certs.extract(view, kind, ax, aty) for kind in certs.SEQUENCE_KINDS]
        moved = None  # the iterate moved onto the support this check projected
        if not changed and k > config.check_interval and key not in projected:
            # The pattern held since the last check and is new: project once.
            projected.add(key)
            cols, rows = pattern[: ps.n] == 0, pattern[ps.n :] == 0
            support = Support.within_cap(op.matrix, ps.c, ps.b, cols, rows, state.x)
            if support is not None:
                cands.append(
                    certs.CertificateCandidate(
                        certs.CandidateKind.SUPPORT,
                        k,
                        support.d * scaling.col,
                        support.w * scaling.row,
                    )
                )
                x_m, y_m = support.project(state.x, state.y)
                x_m, y_m = x_m * scaling.col, y_m * scaling.row
                moved = (x_m, y_m, p.a.matvec(x_m), p.a.rmatvec(y_m))

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
        ray_product = (p.a.rmatvec if primal else p.a.matvec)(rep.vector)
        for origin in ((view.x, view.y, ax, aty), moved):
            if origin is not None and point is None:
                point = _other_side_feasible(
                    p, rep, ray_product, origin, config.kkt_tol
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
    if status is SolveStatus.OPTIMAL:
        # An optimal verdict carries no proof of infeasibility.
        best_primal = best_dual = None

    if exact.repair_fits(p):
        for rep in (best_primal, best_dual):
            # The witness sub-solve's certificate is already repaired.
            if rep is not None and rep.exact is None:
                _repair(rep, p)
    state = scaling.unscale_state(state)
    # The outcome's x and y are copies, so no array of its state is one of them.
    x, y = (state.x.copy(), state.y.copy()) if point is None else point
    if point is not None or kkt is None:
        r = recover_r(p, y)
        kkt = kkt_residual(p, x, y, r)

    return SolveOutcome(
        status=status,
        termination=termination,
        x=x,
        y=y,
        r=r,
        iterations=state.k + (sub.iterations if sub is not None else 0),
        kkt=kkt,
        primal_objective=p.objective(x),
        dual_objective=p.dual_value(y, r) + p.objective_offset,
        primal_certificate=best_primal,
        dual_certificate=best_dual,
        trace=trace,
        state=state,
        steps=steps,
    )
