"""Test-only definitions the package itself never calls.

The generic fixed-point lab: z^{k+1} = T(z^k) for any nonexpansive map,
the infimal displacement vector estimated two independent ways, and the
small fixture operators of the counterexample suite (rotation,
translation, and the scalar creeper whose near-displacement points run
away to infinity), plus a wrapper that views a PDHG operator as one of
them.  Also the checks and instance builders the tests share: the step's
normal-cone inclusion residual, block-diagonal scaled copies of an LP,
exact equality of two sparse matrices, and the pull-back of standard-form
points, rays and duals through a model.StandardizationMap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from pdhglp.identify import Trajectory
from pdhglp.linalg import SparseMatrix, max0
from pdhglp.model import GeneralFormLp, StandardFormLp, StandardizationMap
from pdhglp.pdhg import GeneralFormOperator

_OVERFLOW_LIMIT = 1e100
_ESTIMATOR_DISAGREEMENT_REL = 1e-6


def _euclidean(z: np.ndarray) -> float:
    return float(np.linalg.norm(z))


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


# ---------------------------------------------------------------------------
# Checks and builders shared by the tests


def inclusion_residual(op: GeneralFormOperator, x: np.ndarray, y: np.ndarray) -> float:
    """Take one step from (x, y) and measure how far the step conditions are
    from the required normal-cone memberships; exact steps give ~0.

    Each side's residual must vanish off its bounds and, at a bound, have
    the sign of that bound's normal cone.  The step's shift v enters as
    -v_x / eta and -v_y / tau."""
    eta, tau = op.steps.eta, op.steps.tau
    x1, y1 = op.apply(x, y)
    p, n = op.p, op.n
    s = (x - x1 - op.shift[:n]) / eta + p.a.rmatvec(y) - p.c
    t = (y - y1 - op.shift[n:]) / tau + p.b - p.a.matvec(2.0 * x1 - x)
    return max(
        max0(np.where(x1 == p.u, 0.0, s)),
        max0(np.where(x1 == p.l, 0.0, -s)),
        max0(t),
        max0(np.where(y1 == p.row_floor, 0.0, -t)),
    )


def block_copies(
    p: StandardFormLp | GeneralFormLp, copies: int, seed: int = 0
) -> StandardFormLp | GeneralFormLp:
    """p repeated block-diagonally, each copy with its own rows and columns
    multiplied by integers from 1 to 9.

    Copy i has matrix diag(r_i) A diag(s_i), costs s_i c, right-hand side
    r_i b and bounds l / s_i, u / s_i: it is p with x = s_i x', so every
    copy, and the whole problem, lies in p's feasibility cell.  The
    multipliers give copies of one small instance unequal rows and columns,
    which is what a diagonal scaling has to undo.
    """
    rng = np.random.default_rng(seed)
    m, n = p.m, p.n
    r = rng.integers(1, 10, size=(copies, m)).astype(np.float64)
    s = rng.integers(1, 10, size=(copies, n)).astype(np.float64)
    rows, cols, vals = p.a.triplets()
    block = np.arange(copies)[:, None]
    a = SparseMatrix.from_triplets(
        copies * m,
        copies * n,
        (block * m + rows).ravel(),
        (block * n + cols).ravel(),
        (r[:, rows] * vals * s[:, cols]).ravel(),
    )
    c = (s * p.c).ravel()
    b = (r * p.b).ravel()
    name = f"{p.name}*{copies}"
    offset = copies * p.objective_offset
    if isinstance(p, StandardFormLp):
        return StandardFormLp(c, a, b, name, offset)
    l = (p.l / s).ravel()
    u = (p.u / s).ravel()
    return GeneralFormLp(c, a, b, l, u, name, offset, np.tile(p.eq, copies))


def same_entries(a: SparseMatrix, b: SparseMatrix) -> bool:
    """Exact structural and numerical equality of stored entries."""
    if a.shape != b.shape:
        return False
    a, b = a.csr, b.csr
    return (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def pull_back_primal(smap: StandardizationMap, x_std: np.ndarray) -> np.ndarray:
    """Map a standard-form point to general-form variables."""
    x = smap.shift + smap.sign * x_std[smap.main_col]
    free = smap.neg_col >= 0
    x[free] = x_std[smap.main_col[free]] - x_std[smap.neg_col[free]]
    return x


def pull_back_primal_ray(smap: StandardizationMap, d_std: np.ndarray) -> np.ndarray:
    """Map an unboundedness ray (homogeneous, no shift) back."""
    d = smap.sign * d_std[smap.main_col]
    free = smap.neg_col >= 0
    d[free] = d_std[smap.main_col[free]] - d_std[smap.neg_col[free]]
    return d


def pull_back_dual_solution(smap: StandardizationMap, y_std: np.ndarray) -> np.ndarray:
    """Row duals of the general-form constraints at a dual solution.

    Takes y in the iteration convention (multiplier of Ax - b in the
    ascent form, dual objective -b'y); the general-form row dual is its
    negation restricted to the original rows.
    """
    return -y_std[: smap.m_gen]
