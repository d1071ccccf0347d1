"""Ray refinement, index partitioning, and the frozen-support affine phase.

Once the iteration settles onto a ray z_star + k*v, everything here kicks
in: refine (z_star, v), starting from the affine phase's predicted
displacement, by alternating between the original iteration and its
shifted twin, partition coordinates by which part of the
displacement moves them, build the always-feasible auxiliary problem the
shifted twin solves, detect when the active pattern freezes (from its
history kept as its changes, so the freeze is the last one), and read the
affine phase of the post-freeze iteration, whose spectrum predicts the
linear rate of the difference sequence, off the projector pdhg.run
polishes with, linalg.Support on the same block op.matrix (the
eigendecomposition of a Gram matrix, one component at a time).
A Trajectory holds a run's points with the three derived sequences the
certificates come from (differences, normalized iterates, normalized
averages), and fit_rate fits their decay against a power or geometric
model.  The analysis of a recorded trajectory (first_nonfinite_row,
active_history, verify_rate_regimes) reads it in row blocks of about
_SWEEP_ENTRIES entries, so beside the trajectory it holds O(block) scratch
and a few arrays of one float per row, with the figures Trajectory's full
arrays give, bit for bit.

Everything else takes the operator it analyses, pdhg.make_operator of a
standard-form problem (the paper's setting): a StandardFormOperator, which
steps the lowering op.p as the solver does and keeps the problem as
op.standard.  Any other operator is a TypeError.  The shifted twin is that
operator with a shift and the twin's bounds, and the auxiliary problem is
op.p with c, b bumped and the partition as bounds.  General-form problems
are standardized first.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import MNorm, SparseMatrix, Support
from .model import GeneralFormLp, StandardFormLp
from .pdhg import GeneralFormOperator, StandardFormOperator

__all__ = [
    "IndexPartition",
    "RaySolution",
    "AffinePhase",
    "FreezeReport",
    "RateRegimeReport",
    "ShiftedOperator",
    "partition_indices",
    "refine_ray",
    "build_auxiliary",
    "active_set",
    "active_history",
    "freeze_detector",
    "first_nonfinite_row",
    "shift_identity_residual",
    "affine_phase",
    "verify_rate_regimes",
    "Trajectory",
    "RateFit",
    "fit_rate",
]

PARTITION_TOL_REL = 1e-7
ACTIVE_TOL_REL = 1e-9
_REFINE_ROUNDS = 5
_REFINE_TARGET = 1e-10
_FIXED_POINT_BUDGET = 200_000
# verify_rate_regimes: slack around the spectral rate bracket, allowed
# distance of a power slope from -1, and the warm-up k of the power fits.
_RATE_SLACK = 0.02
_SLOPE_SLACK = 0.15
_FIT_K_MIN = 100
_WARMUP_DEFAULT = 100
# active_history, first_nonfinite_row and verify_rate_regimes read a
# trajectory in row blocks of about this many entries, so their scratch
# stays cache-sized whatever the trajectory's length.
_SWEEP_ENTRIES = 1 << 15


def _block_rows(width: int) -> int:
    """Rows of a sweep block over rows of the given width."""
    return max(1, _SWEEP_ENTRIES // max(width, 1))


@dataclass
class Trajectory:
    """z^0..z^k stacked row-wise, with the derived sequences on demand."""

    points: np.ndarray  # shape (k+1, dim)

    @property
    def k(self) -> int:
        return self.points.shape[0] - 1

    def differences(self) -> np.ndarray:
        """Rows j = 0..k-1 hold z^{j+1} - z^j."""
        return np.diff(self.points, axis=0)

    def normalized_iterates(self) -> np.ndarray:
        """Rows j = 1..k hold z^j / j."""
        ks = np.arange(1, self.points.shape[0], dtype=np.float64)
        return self.points[1:] / ks[:, None]

    def normalized_averages(self) -> np.ndarray:
        """Rows j = 1..k hold 2/(j(j+1)) * sum_{i<=j} z^i."""
        sums = np.cumsum(self.points[1:], axis=0)
        ks = np.arange(1, self.points.shape[0], dtype=np.float64)
        return sums * (2.0 / (ks * (ks + 1.0)))[:, None]


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of an error sequence against a decay model.

    power:      e_k ~ C * k^slope        (log e vs log k)
    geometric:  e_k ~ C * rate^k         (log e vs k)

    slope is the fitted exponent for the power model and log(rate) for the
    geometric one; rate is exp(slope) only in the geometric case.
    """

    model: str
    slope: float
    rate: float | None
    intercept: float
    r_squared: float
    n_used: int
    n_dropped: int
    k_min: int


def fit_rate(
    samples: Sequence[tuple[float, float]] | np.ndarray,
    model: str = "power",
    k_min: int = _WARMUP_DEFAULT,
) -> RateFit:
    """Fit errors vs iteration on transformed coordinates.

    samples is a sequence of (k, e) pairs or an (N, 2) array of them.
    Samples with k < k_min are warm-up and excluded; nonpositive errors
    cannot enter a log fit and are dropped with a count.  A NaN k or e
    fails both comparisons, so its sample is kept: a kept NaN k raises
    ValueError, a NaN e makes the fit NaN.  Requires at least 20 usable
    samples.
    """
    if model not in ("power", "geometric"):
        raise ValueError(f"unknown model {model!r}")
    pairs = np.asarray(samples, dtype=np.float64).reshape(-1, 2)
    ks, es = pairs[:, 0], pairs[:, 1]
    post = ~(ks < k_min)
    nonpos = es <= 0.0
    dropped = int(np.count_nonzero(post & nonpos))
    use = post & ~nonpos
    nan_k = np.flatnonzero(use & np.isnan(ks))
    if nan_k.size:
        i = int(nan_k[0])
        raise ValueError(f"sample {i} ({ks[i]}, {es[i]}) has a NaN k")
    ks, es = ks[use], es[use]
    if ks.size < 20:
        raise ValueError(f"need at least 20 post-warm-up samples, have {ks.size}")
    xs = np.log(ks) if model == "power" else ks
    ys = np.log(es)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(
        model=model,
        slope=float(slope),
        rate=float(np.exp(slope)) if model == "geometric" else None,
        intercept=float(intercept),
        r_squared=r2,
        n_used=int(ks.size),
        n_dropped=dropped,
        k_min=k_min,
    )


@dataclass(frozen=True)
class IndexPartition:
    """Coordinates split by how the displacement vector treats them.

    b:  primal displacement strictly positive (iterate escapes the bound)
    n2: primal displacement zero but A'v_y positive (pinned at zero)
    n1: everything else (the coordinates that still behave like an LP)
    """

    b: tuple[int, ...]
    n1: tuple[int, ...]
    n2: tuple[int, ...]
    tol: float

    def masks(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        mb = np.zeros(n, dtype=bool)
        m1 = np.zeros(n, dtype=bool)
        m2 = np.zeros(n, dtype=bool)
        mb[list(self.b)] = True
        m1[list(self.n1)] = True
        m2[list(self.n2)] = True
        return mb, m1, m2


def _standard(op: StandardFormOperator) -> StandardFormLp:
    """op's standard-form problem; any other operator is a TypeError."""
    if not isinstance(op, StandardFormOperator):
        name = type(op).__name__
        raise TypeError(f"needs make_operator of a standard-form problem, not a {name}")
    return op.standard


def partition_indices(
    a: SparseMatrix, v_x: np.ndarray, v_y: np.ndarray, tol: float | None = None
) -> IndexPartition:
    """Split [n] by the displacement signs, with a scaled zero threshold."""
    v_x = np.asarray(v_x, dtype=np.float64)
    v_y = np.asarray(v_y, dtype=np.float64)
    if tol is None:
        scale = max(
            float(np.max(np.abs(v_x), initial=0.0)),
            float(np.max(np.abs(v_y), initial=0.0)),
        )
        tol = PARTITION_TOL_REL * (1.0 + scale)
    in_b = v_x > tol
    in_n2 = ~in_b & (a.rmatvec(v_y) > tol)
    in_n1 = ~(in_b | in_n2)
    return IndexPartition(
        *(tuple(np.flatnonzero(mask).tolist()) for mask in (in_b, in_n1, in_n2)),
        tol,
    )


class ShiftedOperator(GeneralFormOperator):
    """The displacement-compensated twin of op's iteration.

    Coordinates in b skip the projection (their auxiliary variable is
    free), n2 coordinates are pinned to zero, and every update is shifted
    back by the displacement, so a trajectory of this operator stays put
    where the original runs off along the ray.  It is itself an LP
    iteration (for the auxiliary problem), hence firmly nonexpansive in
    the same step-size-induced norm.

    The shift and the pin are data: this is the general-form step with
    shift v = (v_x, v_y) on op.p with x clipped to [-inf, inf] on b,
    [-v_x, inf] on n1 and [-v_x, -v_x] on n2, which is the standard step's
    projection followed by x - v_x.
    """

    def __init__(
        self, op: StandardFormOperator, v: np.ndarray, partition: IndexPartition
    ):
        n = _standard(op).n
        mask_b, _, mask_n2 = partition.masks(n)
        v = np.array(v, dtype=np.float64)
        lo = np.where(mask_b, -np.inf, -v[:n])
        hi = np.where(mask_n2, -v[:n], np.inf)
        super().__init__(dataclasses.replace(op.p, l=lo, u=hi), op.steps, v)

    apply = GeneralFormOperator.apply


@dataclass(frozen=True)
class RaySolution:
    """A refined anchor and displacement for the iteration's ray.

    residual is the consistency gap of the final refinement round: the
    step-size norm of the change in the re-derived displacement, which
    equals how far z_star was from a true fixed point of the shifted twin
    built with the previous displacement.  steps counts the shifted-twin
    steps of all rounds.
    """

    z_star: np.ndarray
    v: np.ndarray
    residual: float
    rounds: int
    converged: bool
    partition: IndexPartition
    steps: int


def _fixed_point(
    op: ShiftedOperator, z0: np.ndarray, mn: MNorm, budget: int
) -> tuple[np.ndarray, int]:
    """Step op from z0 until its last step is at most 1e-13 (1 + |z|) in mn,
    testing after each block of the step loop, or until budget steps, or
    until a block's last step has no finite length.  Returns the last point
    and the steps taken."""
    n = op.n
    steps = 0
    for xs, ys, rows in op._steps(z0[:n], z0[n:], budget):
        steps += rows
        x, y = xs[rows], ys[rows, :-1]
        res = mn(x - xs[rows - 1], y - ys[rows - 1, :-1])
        # A step of no finite length never leads to a fixed point.
        if res <= 1e-13 * (1.0 + mn(x, y)) or not math.isfinite(res):
            break
    return np.concatenate([x, y]), steps


def _rederive_v(
    op: StandardFormOperator, z_star: np.ndarray, v: np.ndarray, mask_b: np.ndarray
) -> np.ndarray:
    """Apply the original iteration far enough along the ray that the b
    coordinates are strictly positive, where T - I returns the displacement
    exactly (one application, no drift)."""
    n = op.n
    lam = 0.0
    if np.any(mask_b):
        xb = z_star[:n][mask_b]
        vb = v[:n][mask_b]
        margin = 1e-2 * (1.0 + float(np.max(np.abs(z_star[:n]))))
        need = (margin - xb) / vb
        lam = max(0.0, float(np.max(need, initial=0.0)))
    z = z_star + lam * v
    return op.apply_z(z) - z


def refine_ray(
    op: StandardFormOperator, warm: np.ndarray, v: np.ndarray | None = None
) -> RaySolution:
    """Alternate displacement estimation and anchored fixed-point solves on
    op's iteration.

    warm is a trajectory array (rows z^0..z^K of the original iteration) or
    a single warm iterate, and the anchor starts at its last row.  v is the
    initial displacement: pass affine_phase's v_pred at warm's last support,
    so the rounds confirm the ray rather than search for it.  Without v the
    guess falls back to the mean difference over the trajectory's last
    tenth (which needs ~10^3 rows to settle), or zero for a single point.
    Each round partitions by the current displacement, drives the shifted
    twin to its fixed point, re-derives the displacement from one
    application of the original operator along the ray, and stops when the
    displacement stops moving (step-size norm <= _REFINE_TARGET), after at
    most _REFINE_ROUNDS rounds.
    """
    p = _standard(op)
    warm = np.asarray(warm, dtype=np.float64)
    if warm.ndim == 2 and warm.shape[0] < 2:
        raise ValueError("warm trajectory needs at least 2 points")
    z = (warm if warm.ndim == 1 else warm[-1]).copy()
    if v is not None:
        v = np.array(v, dtype=np.float64)
        if v.shape != z.shape:
            raise ValueError(f"displacement has shape {v.shape}, the iterate {z.shape}")
    elif warm.ndim == 1:
        v = np.zeros_like(z)
    else:
        tail = max(1, (warm.shape[0] - 1) // 10)
        v = np.diff(warm[-(tail + 1) :], axis=0).mean(axis=0)
    mn = op.m_norm()
    n = p.n

    best: tuple[float, np.ndarray, np.ndarray, IndexPartition] | None = None
    used = 0
    taken = 0
    for rnd in range(_REFINE_ROUNDS):
        used = rnd + 1
        part = partition_indices(p.a, v[:n], v[n:])
        shifted = ShiftedOperator(op, v, part)
        z_star, steps_used = _fixed_point(shifted, z, mn, _FIXED_POINT_BUDGET)
        taken += steps_used
        v_new = _rederive_v(op, z_star, v, part.masks(n)[0])
        residual = mn(v_new[:n] - v[:n], v_new[n:] - v[n:])
        if best is None or residual < best[0]:
            best = (residual, z_star, v_new, part)
        z, v = z_star, v_new
        if residual <= _REFINE_TARGET:
            break

    residual, z_star, v, part = best
    return RaySolution(
        z_star=z_star,
        v=v,
        residual=residual,
        rounds=used,
        converged=residual <= _REFINE_TARGET,
        partition=part,
        steps=taken,
    )


def build_auxiliary(
    op: StandardFormOperator, v: np.ndarray, partition: IndexPartition | None = None
) -> GeneralFormLp:
    """The always-feasible problem of a displacement vector, on op's lowering.

    Same matrix as the original, objective bumped by v_x/eta on the b
    block, right-hand side bumped by v_y/tau; the bounds are the partition:
    b variables are free, n1 stay nonnegative, n2 are fixed at zero.  Zero
    displacement reproduces the original problem: the objective and
    right-hand side are untouched and every variable lands in n1.
    """
    p = _standard(op)
    v = np.asarray(v, dtype=np.float64)
    n = p.n
    if partition is None:
        partition = partition_indices(p.a, v[:n], v[n:])
    mb, _, m2 = partition.masks(n)
    c_aux = p.c.copy()
    c_aux[mb] += v[:n][mb] / op.steps.eta
    return dataclasses.replace(
        op.p,
        c=c_aux,
        b=-(p.b + v[n:] / op.steps.tau),
        l=np.where(mb, -np.inf, 0.0),
        u=np.where(m2, 0.0, np.inf),
        name=f"aux({p.name})",
        objective_offset=0.0,
    )


def active_set(x: np.ndarray, tol: float = ACTIVE_TOL_REL) -> frozenset[int]:
    """Coordinates sitting at (or numerically below) the zero bound: the
    one-row case of active_history."""
    x = np.asarray(x, dtype=np.float64)
    return active_history(x[None, :], x.size, tol)[0][1]


def active_history(
    points: np.ndarray, n: int, tol: float = ACTIVE_TOL_REL
) -> list[tuple[int, frozenset[int]]]:
    """The active sets of a stacked trajectory as their changes: (k, active
    set of x^k) for row 0 and for each row whose pattern differs from the
    row before; every other row has its last listed row's set.

    A coordinate is active when it is at most tol * (1 + max |x^k|).  The
    rows are read in blocks of about _SWEEP_ENTRIES entries: |x| goes into
    one scratch block and the masks into another, and a block's first mask
    is compared with the last one of the block before, so the sweep holds
    O(block) beside the trajectory.
    """
    x = np.asarray(points, dtype=np.float64)[:, :n]
    rows = x.shape[0]
    step = _block_rows(n)
    mags = np.empty((min(step, rows), n))
    masks = np.empty((min(step, rows), n), dtype=bool)
    prev = None  # the last mask of the block before
    history = []
    for lo in range(0, rows, step):
        block = x[lo : lo + step]
        r = block.shape[0]
        mag, at_bound = mags[:r], masks[:r]
        np.abs(block, out=mag)
        cut = tol * (1.0 + np.max(mag, axis=1, initial=0.0))
        np.less_equal(block, cut[:, None], out=at_bound)
        changed = np.empty(r, dtype=bool)
        changed[0] = prev is None or not np.array_equal(at_bound[0], prev)
        changed[1:] = np.any(at_bound[1:] != at_bound[:-1], axis=1)
        history += [
            (lo + i, frozenset(np.flatnonzero(at_bound[i]).tolist()))
            for i in np.flatnonzero(changed).tolist()
        ]
        prev = at_bound[-1].copy()
    return history


def first_nonfinite_row(points: np.ndarray) -> int | None:
    """The first row of points holding a NaN or an infinity, or None, read
    in row blocks of about _SWEEP_ENTRIES entries."""
    points = np.asarray(points, dtype=np.float64)
    rows, width = points.shape
    step = _block_rows(width)
    for lo in range(0, rows, step):
        bad = np.flatnonzero(~np.isfinite(points[lo : lo + step]).all(axis=1))
        if bad.size:
            return lo + int(bad[0])
    return None


@dataclass(frozen=True)
class FreezeReport:
    """k_freeze is the iteration of the last observed active-set change;
    frozen says whether the set then stayed put through the end of the
    observed window (a False means no freeze within budget, it never
    proves degeneracy)."""

    k_freeze: int
    frozen: bool
    changes: int
    last_k: int


def freeze_detector(
    history: Sequence[tuple[int, frozenset[int]]], last_k: int
) -> FreezeReport:
    """The freeze of an active_history window that ends at row last_k: its
    last change, and the number of changes after its first row."""
    if not history:
        raise ValueError("empty active-set history")
    k_freeze = history[-1][0]
    return FreezeReport(
        k_freeze=k_freeze,
        frozen=k_freeze < last_k,
        changes=len(history) - 1,
        last_k=last_k,
    )


def shift_identity_residual(
    op: StandardFormOperator, v: np.ndarray, partition: IndexPartition, orig: np.ndarray
) -> float:
    """Step the shifted twin of op from orig[0] next to the recorded rows
    orig = z^j..z^{j+K} of op's iteration and report the worst
    step-size-norm gap between the twin's k-th iterate and orig[k] - k v,
    k = 1..K.  Past the freeze iteration the two agree to roundoff.  A NaN
    gap (a NaN row or displacement) makes the residual NaN: the two cannot
    be compared.  pdhglp analyze passes the trajectory's last 1000 rows
    (and the row before them), so the original is never stepped again."""
    shifted = ShiftedOperator(op, v, partition)
    orig = np.asarray(orig, dtype=np.float64)
    if orig.ndim != 2 or orig.shape[0] < 1:
        raise ValueError("orig needs the rows z^j..z^{j+K} of a trajectory")
    mn = op.m_norm()
    n = op.n
    worst, done = 0.0, 1
    for xs, ys, rows in shifted._steps(orig[0, :n], orig[0, n:], orig.shape[0] - 1):
        ks = np.arange(done, done + rows, dtype=np.float64)[:, None]
        want = orig[done : done + rows] - ks * v
        gap_x = xs[1 : rows + 1] - want[:, :n]
        top = float(np.max(mn.rows(gap_x, ys[1 : rows + 1, :-1] - want[:, n:])))
        if math.isnan(top):
            return math.nan
        worst = max(worst, top)
        done += rows
    return worst


@dataclass(frozen=True)
class AffinePhase:
    """The iteration after the support S has frozen, read off the support's
    projector (linalg.Support on the lowering p.general, which decomposes
    G = (-A_S)(-A_S)' = A_S A_S' one connected component of its nonzero
    pattern at a time; the 40-row supports of planted items split into 10
    blocks of 4).

    On S the step is affine, and it acts on each singular value sigma of
    A_S (descending) through the 2x2 block [[1, -eta s], [tau s,
    1 - 2 tau eta s^2]].  mu is the predicted linear rate of the difference
    sequence, lower_rate the smallest singular value over those blocks,
    v_pred the displacement (eta d, tau w) of the support's null-space
    parts, and z_star_pred the least-norm anchor (x_S = A_S'G+ b,
    y = -G+ A_S c_S).  mu and lower_rate are None when A_S is zero.
    """

    support: tuple[int, ...]
    sigma: np.ndarray
    mu: float | None
    lower_rate: float | None
    v_pred: np.ndarray
    z_star_pred: np.ndarray


def affine_phase(
    op: StandardFormOperator, support: Sequence[int]
) -> AffinePhase | None:
    """The frozen-support affine phase of op and its spectral data, read
    off linalg.Support on op.matrix, the block pdhg.run's polish slices
    too; None when the support has more rows than linalg.GRAM_MAX_ORDER."""
    _standard(op)
    n, m = op.n, op.m
    eta, tau = op.steps.eta, op.steps.tau
    support = tuple(sorted(int(i) for i in support))
    cols = np.isin(np.arange(n), support)
    # On the lowering (-A, -b, x >= 0) every row is an equality row.
    g = op.p
    sup = Support.within_cap(op.matrix, g.c, g.b, cols, np.ones(m, bool), np.zeros(n))
    if sup is None:
        return None
    sigma = np.sqrt(sup.lam[::-1])
    mu = lower_rate = None
    if sigma.size:
        s2 = sigma * sigma
        mu = float(np.sqrt(1.0 - eta * tau * s2[-1]))
        # Each block's sigma_max^2 is (F + sqrt(F^2 - 4 D^2)) / 2, with F its
        # squared Frobenius norm and D = |det|; sigma_min is D / sigma_max.
        frob = 1.0 + (eta * eta + tau * tau) * s2 + (1.0 - 2.0 * eta * tau * s2) ** 2
        det = np.abs(1.0 - eta * tau * s2)
        gap = np.sqrt(np.maximum(frob * frob - 4.0 * det * det, 0.0))
        lower_rate = float(np.min(det / np.sqrt(0.5 * (frob + gap))))
    x_star, y_star = sup.project(np.zeros(n), np.zeros(m))
    return AffinePhase(
        support=support,
        sigma=sigma,
        mu=mu,
        lower_rate=lower_rate,
        v_pred=np.concatenate([eta * sup.d, tau * sup.w]),
        z_star_pred=np.concatenate([x_star, y_star]),
    )


@dataclass(frozen=True)
class RateRegimeReport:
    """Observed post-freeze rates against the spectral predictions.

    The difference sequence should contract geometrically inside
    [lower_rate - slack, mu + slack]; the normalized iterate and average
    keep their 1/k decay (power slope near -1) even after the freeze.
    """

    k_freeze: int
    diff_fit: RateFit | None
    rate_bracket: tuple[float, float] | None
    diff_rate_in_bracket: bool | None
    iterate_fit: RateFit | None
    average_fit: RateFit | None
    iterate_slope_ok: bool | None
    average_slope_ok: bool | None
    notes: tuple[str, ...] = ()


def _row_norms(rows: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> None:
    """out = np.linalg.norm(rows, axis=1) of real rows, bit for bit: the
    squares into scratch (which may be rows), summed along each row."""
    np.multiply(rows, rows, out=scratch)
    np.add.reduce(scratch, axis=1, out=out)
    np.sqrt(out, out=out)


def _sequence_errors(
    points: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One sweep over points = z^0..z^K in row blocks of about
    _SWEEP_ENTRIES entries: the row norms ||z^j||, j = 0..K, and the norms
    of Trajectory(points)'s differences, normalized iterates and normalized
    averages less v, K each, bit for bit as np.linalg.norm(axis=1) of the
    full arrays.  One scratch block takes the row work; the other holds the
    running sum, its first row carrying the sum of the rows before the
    block into np.add.accumulate, which then adds as cumsum does."""
    rows, dim = points.shape
    k = rows - 1
    step = _block_rows(dim)
    mags, diffs, iters, avgs = np.empty(rows), np.empty(k), np.empty(k), np.empty(k)
    work = np.empty((min(step, rows), dim))
    sums = np.empty((min(step, rows) + 1, dim))
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        block = points[lo:hi]
        _row_norms(block, work[: hi - lo], mags[lo:hi])
        # Differences z^{j+1} - z^j for j = lo..hi-1 (the last needs z^K).
        top = min(hi, k)
        w = work[: top - lo]
        np.subtract(points[lo + 1 : top + 1], points[lo:top], out=w)
        np.subtract(w, v, out=w)
        _row_norms(w, w, diffs[lo:top])
        # Rows j = first..hi-1 of the normalized sequences, j >= 1.
        first = max(lo, 1)
        if first == hi:
            continue
        ks = np.arange(first, hi, dtype=np.float64)[:, None]
        w = work[: hi - first]
        np.divide(points[first:hi], ks, out=w)
        np.subtract(w, v, out=w)
        _row_norms(w, w, iters[first - 1 : hi - 1])
        acc = sums[: hi - first + 1]
        acc[1:] = points[first:hi]
        # The block holding z^1 has no carry row: the sums start there.
        run = acc[1:] if first == 1 else acc
        np.add.accumulate(run, axis=0, out=run)
        np.multiply(acc[1:], 2.0 / (ks * (ks + 1.0)), out=w)
        np.subtract(w, v, out=w)
        _row_norms(w, w, avgs[first - 1 : hi - 1])
        sums[0] = acc[-1]
    return mags, diffs, iters, avgs


def verify_rate_regimes(
    points: np.ndarray,
    v: np.ndarray,
    phase: AffinePhase,
    k_freeze: int,
) -> RateRegimeReport:
    """Fit the three sequences of a trajectory restarted at the freeze point.

    points are rows z^0..z^N of the original iteration; the sequences are
    those of the Trajectory that starts at z^{k_freeze}, per
    the post-identification statements.  Difference errors below the float
    noise floor are excluded from the geometric fit.  The errors come from
    one blocked sweep over the rows (_sequence_errors), so beside the
    trajectory the fits hold O(block) scratch and a few arrays of N floats.
    """
    notes: list[str] = []
    if k_freeze >= points.shape[0] - 1:
        return RateRegimeReport(
            k_freeze=k_freeze,
            diff_fit=None,
            rate_bracket=None,
            diff_rate_in_bracket=None,
            iterate_fit=None,
            average_fit=None,
            iterate_slope_ok=None,
            average_slope_ok=None,
            notes=("no post-freeze window observed",),
        )
    v = np.asarray(v, dtype=np.float64)
    post = np.asarray(points[k_freeze:], dtype=np.float64)
    mags, errs, it_err, avg_err = _sequence_errors(post, v)
    k = errs.size
    # Subtracting consecutive iterates of size ||z|| leaves roundoff of that
    # scale, so the usable window ends where the error meets a magnitude-
    # scaled floor, not an absolute one.
    floors = 1e-13 * (1.0 + np.maximum(mags[:-1], mags[1:]))
    above = errs > floors
    clean = np.column_stack([np.flatnonzero(above), errs[above]])
    diff_fit = None
    bracket = None
    in_bracket = None
    if phase.mu is not None and phase.lower_rate is not None:
        bracket = (phase.lower_rate - _RATE_SLACK, phase.mu + _RATE_SLACK)
    if clean.shape[0] >= 20:
        diff_fit = fit_rate(clean, model="geometric", k_min=0)
        if bracket is not None:
            in_bracket = bracket[0] <= diff_fit.rate <= bracket[1]
    else:
        notes.append(
            f"difference errors hit the noise floor after {clean.shape[0]} samples; "
            "geometric fit skipped"
        )

    iterate_fit = None
    average_fit = None
    it_ok = None
    avg_ok = None
    # Both scaled errors are O(||v|| + ||z^freeze||/k); once below this floor
    # the 1/k signal is gone and a power fit would only see roundoff (e.g. a
    # trajectory that starts exactly on the ray).
    pw_floor = 1e-12 * (1.0 + float(np.linalg.norm(v)))
    if k >= _FIT_K_MIN + 20:
        ks = np.arange(1, k + 1, dtype=np.float64)
        it_keep = it_err > pw_floor
        avg_keep = avg_err > pw_floor
        it_samples = np.column_stack([ks[it_keep], it_err[it_keep]])
        avg_samples = np.column_stack([ks[avg_keep], avg_err[avg_keep]])
        if min(it_samples.shape[0], avg_samples.shape[0]) >= _FIT_K_MIN + 20:
            iterate_fit = fit_rate(it_samples, model="power", k_min=_FIT_K_MIN)
            average_fit = fit_rate(avg_samples, model="power", k_min=_FIT_K_MIN)
            it_ok = abs(iterate_fit.slope + 1.0) <= _SLOPE_SLACK
            avg_ok = abs(average_fit.slope + 1.0) <= _SLOPE_SLACK
        else:
            notes.append(
                "normalized errors sit at the noise floor; power fits skipped"
            )
    else:
        notes.append("post-freeze window too short for power fits")

    return RateRegimeReport(
        k_freeze=k_freeze,
        diff_fit=diff_fit,
        rate_bracket=bracket,
        diff_rate_in_bracket=in_bracket,
        iterate_fit=iterate_fit,
        average_fit=average_fit,
        iterate_slope_ok=it_ok,
        average_slope_ok=avg_ok,
        notes=tuple(notes),
    )
