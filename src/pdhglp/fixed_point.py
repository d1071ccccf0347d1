"""Fixed-point iteration lab for nonexpansive operators.

Runs z^{k+1} = T(z^k), materializes the three derived sequences used for
certificate extraction (differences, normalized iterates, normalized
averages), estimates the infimal displacement vector two independent ways,
fits convergence rates, and ships the small fixture operators for the
counterexample suite: rotation, translation, and the scalar creeper whose
near-displacement points run away to infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "FixedPointOperator",
    "Trajectory",
    "VEstimate",
    "RateFit",
    "iterate",
    "estimate_v",
    "fit_rate",
    "displacement_bound_gap",
    "identity_operator",
    "translation_operator",
    "rotation_operator",
    "creeper_operator",
    "from_lp_operator",
    "creeper_epsilon_point",
]

_OVERFLOW_LIMIT = 1e100
_WARMUP_DEFAULT = 100
_ESTIMATOR_DISAGREEMENT_REL = 1e-6


def _euclidean(z: np.ndarray) -> float:
    return float(np.linalg.norm(z))


def _euclidean_rows(z: np.ndarray) -> np.ndarray:
    return np.linalg.norm(z, axis=1)


@dataclass(frozen=True)
class FixedPointOperator:
    """A map z -> T(z) on R^dim plus the norm in which it claims to be
    nonexpansive (Euclidean unless stated; the LP iteration supplies its
    step-size-induced norm).  The claim is property-tested, never assumed."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    norm: Callable[[np.ndarray], float] = _euclidean
    name: str = "operator"

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self.apply(np.asarray(z, dtype=np.float64))


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


def iterate(t: FixedPointOperator, z0: Sequence[float], k: int) -> Trajectory:
    """Run the fixed-point iteration for k steps keeping every point."""
    if k < 1:
        raise ValueError("k must be at least 1")
    z = np.asarray(z0, dtype=np.float64)
    if z.shape != (t.dim,):
        raise ValueError(f"z0 has shape {z.shape}, operator dimension is {t.dim}")
    out = np.empty((k + 1, t.dim))
    out[0] = z
    for j in range(k):
        z = t.apply(z)
        # One reduction catches NaN and inf too: both fail the comparison.
        if not (float(np.maximum.reduce(np.abs(z))) <= _OVERFLOW_LIMIT):
            raise OverflowError(f"iterate magnitude exploded at step {j + 1}")
        out[j + 1] = z
    return Trajectory(out)


@dataclass(frozen=True)
class VEstimate:
    """Two independent displacement estimates and how much they disagree.

    A large disagreement means either the operator is not firmly
    nonexpansive (differences need not converge) or the budget was too
    small for the normalized iterate to settle.
    """

    normalized_iterate: np.ndarray
    difference_tail: np.ndarray
    disagreement: float
    flagged: bool
    budget: int


def estimate_v(t: FixedPointOperator, z0: Sequence[float], budget: int) -> VEstimate:
    """Estimate the infimal displacement vector.

    Returns z^K/K at K = budget alongside the mean difference over the last
    10% of iterations; the two agree in the operator's norm for firmly
    nonexpansive maps and split for merely-nonexpansive ones.
    """
    if budget < 100:
        raise ValueError("budget must be at least 100")
    traj = iterate(t, z0, budget)
    v_norm = traj.points[-1] / budget
    tail = max(1, budget // 10)
    v_diff = traj.differences()[-tail:].mean(axis=0)
    scale = 1.0 + max(t.norm(v_norm), t.norm(v_diff))
    dis = t.norm(v_norm - v_diff) / scale
    return VEstimate(
        normalized_iterate=v_norm,
        difference_tail=v_diff,
        disagreement=dis,
        flagged=dis > _ESTIMATOR_DISAGREEMENT_REL,
        budget=budget,
    )


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


def displacement_bound_gap(
    traj: Trajectory,
    v: np.ndarray,
    z_star: np.ndarray,
    norm: Callable[[np.ndarray], np.ndarray] = _euclidean_rows,
    k_min: int = 1,
) -> tuple[float, float]:
    """Worst slack of the closed-range sublinear bounds along a trajectory.

    Returns (iterate_gap, average_gap): the largest amount by which
    ||v - (z^k - z^0)/k|| exceeds (2/k)||z^0 - z_star|| and by which
    ||v - 2(zbar^k - z^0)/(k+1)|| exceeds (4/(k+1))||z^0 - z_star||, both
    in the supplied norm.  norm maps a (rows, dim) block to the norm of
    each row.  Nonpositive gaps mean the bounds hold; NaN gaps are
    skipped.
    """
    z0 = traj.points[0]
    anchor = float(norm((z0 - z_star)[None, :])[0])
    ks = np.arange(k_min, traj.k + 1, dtype=np.float64)
    col = ks[:, None]
    lhs_it = norm(v - (traj.points[k_min:] - z0) / col)
    zbar = np.cumsum(traj.points[1:], axis=0)[k_min - 1 :] / col
    lhs_avg = norm(v - 2.0 * (zbar - z0) / (col + 1.0))
    gap_it = np.fmax.reduce(lhs_it - 2.0 * anchor / ks, initial=-math.inf)
    gap_avg = np.fmax.reduce(lhs_avg - 4.0 * anchor / (ks + 1.0), initial=-math.inf)
    return float(gap_it), float(gap_avg)


# ---------------------------------------------------------------------------
# Fixture operators


def identity_operator(dim: int = 2) -> FixedPointOperator:
    return FixedPointOperator(dim=dim, apply=lambda z: z.copy(), name="identity")


def translation_operator(v: Sequence[float]) -> FixedPointOperator:
    vv = np.asarray(v, dtype=np.float64)
    return FixedPointOperator(
        dim=vv.size, apply=lambda z: z + vv, name="translation"
    )


def rotation_operator() -> FixedPointOperator:
    """90-degree counterclockwise rotation of the plane.

    Nonexpansive (an isometry) but not firmly so: from e1 the orbit cycles
    with period 4, the differences never settle, and z^k/k -> 0.
    """

    def apply(z: np.ndarray) -> np.ndarray:
        return np.array([-z[1], z[0]])

    return FixedPointOperator(dim=2, apply=apply, name="rotation90")


def creeper_operator() -> FixedPointOperator:
    """Scalar map T(z) = z + exp(-z^2) + 1 for z > 0, else z + 2.

    Nonexpansive with displacement range (1, 2]: the infimal displacement
    v = 1 is never attained, and a point moving within eps of v must sit
    at height ~ sqrt(log(1/eps)).
    """

    def apply(z: np.ndarray) -> np.ndarray:
        s = float(z[0])
        return np.array([s + math.exp(-s * s) + 1.0 if s > 0.0 else s + 2.0])

    return FixedPointOperator(dim=1, apply=apply, name="creeper")


def creeper_epsilon_point(eps: float) -> float:
    """Smallest z >= 0 where the creeper's displacement is within eps of 1."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    # exp(-z^2) = eps has the closed form below; bisection would match it.
    return math.sqrt(math.log(1.0 / eps))


def from_lp_operator(op) -> FixedPointOperator:
    """Wrap a PDHG operator (pdhg.GeneralFormOperator, the shifted twin
    included) with its own step-size-induced norm as the nonexpansiveness
    context."""
    mn = op.m_norm()
    return FixedPointOperator(
        dim=op.n + op.m,
        apply=op.apply_z,
        norm=lambda z: mn(z[: op.n], z[op.n :]),
        name="lp_iteration",
    )
