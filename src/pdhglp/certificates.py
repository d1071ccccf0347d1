"""Infeasibility certificates read off three iterate-derived sequences.

For a run of the primal-dual iteration, three vector sequences all converge
to the infimal displacement of the operator, whose primal and dual parts
are (scaled) Farkas certificates whenever they are nonzero:

  difference            z^{k+1} - z^k
  normalized iterate    z^k / k
  normalized average    (2 / (k+1)) * mean(z^1..z^k)

pdhg.run adds a fourth candidate, SUPPORT, which no sequence yields: the
displacement those sequences converge to, computed in closed form once the
active pattern of the iterates has settled (see pdhg.run).

A candidate passes when its certificate residual, scaled by the certificate
objective, drops below eps.  All tests are positively homogeneous: rescaling
a candidate leaves its scaled error unchanged.

The tests need A x and A'y of the candidate.  ``extract`` attaches them when
it is given the state's ``StateProducts``: the normalized iterate reuses
A x^k and A'y^k, which the solve loop computes anyway for its KKT residual
(A'y^k also feeds the next step), and the other two kinds take one direct
product per side, never a difference of cached products, which would cancel
at large k.  Without them, ``extract`` and the tests take the products from
the problem's matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .linalg import max0
from .model import (
    GeneralFormLp,
    KindMasks,
    StandardFormLp,
    clip_to_dual_signs,
    clip_to_ray_signs,
)

if TYPE_CHECKING:  # pragma: no cover
    from .pdhg import PdhgState

__all__ = [
    "CandidateKind",
    "CertificateCandidate",
    "CertCheckReport",
    "StateProducts",
    "SEQUENCE_KINDS",
    "candidate",
    "extract",
    "check_primal_infeasibility",
    "check_dual_infeasibility",
    "check_standard_farkas",
]

# Negative dual entries smaller than this (relative) are iteration dust.
_Y_CLIP_REL = 1e-12


class CandidateKind(enum.Enum):
    DIFFERENCE = "difference"
    NORMALIZED_ITERATE = "normalized_iterate"
    NORMALIZED_AVERAGE = "normalized_average"
    SUPPORT = "support"


# The kinds extract reads off an iterate bundle.
SEQUENCE_KINDS = (
    CandidateKind.DIFFERENCE,
    CandidateKind.NORMALIZED_ITERATE,
    CandidateKind.NORMALIZED_AVERAGE,
)


@dataclass(slots=True)
class CertificateCandidate:
    """One sequence value at iteration k; r_part only for general-form runs.

    ax and aty, when present, are A x_part and A'y_part.
    """

    kind: CandidateKind
    k: int
    x_part: np.ndarray
    y_part: np.ndarray
    r_part: np.ndarray | None = None
    ax: np.ndarray | None = None
    aty: np.ndarray | None = None


@dataclass(slots=True)
class StateProducts:
    """A x^k and A'y^k of one state, plus the routines for other products."""

    ax: np.ndarray
    aty: np.ndarray
    matvec: Callable[[np.ndarray], np.ndarray]
    rmatvec: Callable[[np.ndarray], np.ndarray]


@dataclass(slots=True)
class CertCheckReport:
    """Outcome of one certificate test on one candidate.

    objective_term is the certificate objective (must be positive for a
    valid certificate); scaled_error is residual / objective_term and is
    None when the objective term is not positive.  vector carries the
    tested certificate (dual vector for side "primal", primal direction
    for side "dual"); r the recovered reduced costs where applicable.
    exact is None unless pdhg.run put the report through the exact repair
    (see pdhg.run): then it says whether vector passes
    exact.verify_certificate_exact.
    """

    side: str
    kind: CandidateKind
    k: int
    passed: bool
    objective_term: float
    scaled_error: float | None
    reasons: tuple[str, ...] = ()
    vector: np.ndarray | None = None
    r: np.ndarray | None = None
    exact: bool | None = None


def extract(
    state: "PdhgState",
    kind: CandidateKind,
    problem: GeneralFormLp | StandardFormLp | None = None,
    products: StateProducts | None = None,
    masks: KindMasks | None = None,
) -> CertificateCandidate:
    """Build the candidate of the given kind from the current state.

    For general-form problems the dual candidate gets reduced costs
    r = clip(-A'y) attached, projected onto the signs that keep the ray
    objective finite (the candidate is homogeneous, so no cost term).
    With products, the candidate carries its own A x and A'y; masks, if
    given, are problem.kind_masks().
    """
    k = state.k
    if k < 1:
        raise ValueError("no candidate before the first iteration")
    if kind is CandidateKind.DIFFERENCE:
        x = state.x - state.x_prev
        y = state.y - state.y_prev
    elif kind is CandidateKind.NORMALIZED_ITERATE:
        x = state.x / k
        y = state.y / k
    elif kind is CandidateKind.NORMALIZED_AVERAGE:
        scale = 2.0 / (k * (k + 1))
        x = state.sum_x * scale
        y = state.sum_y * scale
    else:
        raise ValueError(f"unknown candidate kind {kind!r}")
    ax = aty = None
    if products is not None and kind is CandidateKind.NORMALIZED_ITERATE:
        ax = products.ax / k
        aty = products.aty / k
    return candidate(kind, k, x, y, problem, products, masks, ax, aty)


def candidate(
    kind: CandidateKind,
    k: int,
    x: np.ndarray,
    y: np.ndarray,
    problem: GeneralFormLp | StandardFormLp | None = None,
    products: StateProducts | None = None,
    masks: KindMasks | None = None,
    ax: np.ndarray | None = None,
    aty: np.ndarray | None = None,
) -> CertificateCandidate:
    """The candidate with primal part x and dual part y.

    With products, an ax or aty not given is taken with products' routines;
    for general-form problems the reduced costs are attached as in extract.
    """
    if products is not None:
        if ax is None:
            ax = products.matvec(x)
        if aty is None:
            aty = products.rmatvec(y)
    r = None
    if isinstance(problem, GeneralFormLp):
        if aty is None:
            aty = problem.a.rmatvec(y)
        if masks is None:
            masks = problem.kind_masks()
        r = clip_to_dual_signs(-aty, masks)
    return CertificateCandidate(
        kind=kind, k=k, x_part=x, y_part=y, r_part=r, ax=ax, aty=aty
    )


def check_primal_infeasibility(
    cand: CertificateCandidate,
    p: GeneralFormLp,
    eps: float,
    masks: KindMasks | None = None,
) -> CertCheckReport:
    """Test (y, r) as an approximate certificate that Ax >= b, l <= x <= u
    has no solution: y >= 0, r + A'y ~ 0, and positive ray objective
    b'y + l'r_+ - u'r_-.  Negative dust in y is zeroed first; r stays as
    extracted."""
    y = cand.y_part
    reasons: list[str] = []
    ynorm = max0(np.abs(y))
    if ynorm == 0.0:
        return CertCheckReport(
            "primal", cand.kind, cand.k, False, 0.0, None, ("zero candidate",)
        )
    aty = cand.aty
    neg = y < 0.0
    if neg.any():
        dust = neg & (y >= -_Y_CLIP_REL * ynorm)
        if dust.any():
            y = y.copy()
            y[dust] = 0.0
            neg &= ~dust
            aty = None  # the carried product belongs to the unclipped y
        if neg.any():
            reasons.append("dual vector has negative components")

    if masks is None:
        masks = p.kind_masks()
    if aty is None:
        aty = p.a.rmatvec(y)
    r = cand.r_part if cand.r_part is not None else clip_to_dual_signs(-aty, masks)
    r_pos = np.maximum(r, 0.0)
    r_neg = np.maximum(-r, 0.0)
    if (r_pos[masks.no_l] > 0.0).any():
        reasons.append("positive reduced cost on a variable with no lower bound")
    if (r_neg[masks.no_u] > 0.0).any():
        reasons.append("negative reduced cost on a variable with no upper bound")
    l_idx, l_fin = masks.finite_l
    u_idx, u_fin = masks.finite_u
    obj = float(p.b @ y)
    obj += float(l_fin @ r_pos[l_idx])
    obj -= float(u_fin @ r_neg[u_idx])
    residual = max0(np.abs(r + aty))
    scaled = residual / obj if obj > 0.0 else None
    if obj <= 0.0:
        reasons.append("ray objective is not positive")
    passed = not reasons and scaled is not None and scaled <= eps
    return CertCheckReport(
        "primal", cand.kind, cand.k, passed, obj, scaled, tuple(reasons), y, r
    )


def check_dual_infeasibility(
    cand: CertificateCandidate,
    p: GeneralFormLp,
    eps: float,
    masks: KindMasks | None = None,
) -> CertCheckReport:
    """Test d as an approximate unbounded direction: c'd < 0, d in the
    recession cone of the box, and Ad >= 0 up to scaled residual eps."""
    d = cand.x_part
    dnorm = max0(np.abs(d))
    if dnorm == 0.0:
        return CertCheckReport(
            "dual", cand.kind, cand.k, False, 0.0, None, ("zero candidate",)
        )
    if masks is None:
        masks = p.kind_masks()
    box_res = max0(np.abs(d - clip_to_ray_signs(d, masks)))
    ad = p.a.matvec(d) if cand.ax is None else cand.ax
    row_res = max0(-ad)
    obj = -float(p.c @ d)
    residual = max(box_res, row_res)
    scaled = residual / obj if obj > 0.0 else None
    reasons: list[str] = []
    if obj <= 0.0:
        reasons.append("objective does not decrease along the ray")
    passed = not reasons and scaled is not None and scaled <= eps
    return CertCheckReport(
        "dual", cand.kind, cand.k, passed, obj, scaled, tuple(reasons), d, None
    )


def check_standard_farkas(
    cand: CertificateCandidate, p: StandardFormLp, eps: float
) -> tuple[CertCheckReport, CertCheckReport]:
    """Both Farkas tests for standard form, returned as (primal, dual).

    Primal infeasibility: b'y < 0 and A'y >= -eps * ||y||_inf entrywise.
    Dual infeasibility:   c'x < 0, ||Ax||_inf <= eps * ||x||_inf, and
                          x >= -eps * ||x||_inf entrywise.
    The standard-form dual vector is free, so no clipping on y.
    """
    y = cand.y_part
    ynorm = max0(np.abs(y))
    if ynorm == 0.0:
        primal = CertCheckReport(
            "primal", cand.kind, cand.k, False, 0.0, None, ("zero candidate",)
        )
    else:
        bty = float(p.b @ y)
        obj = -bty
        aty = p.a.rmatvec(y) if cand.aty is None else cand.aty
        residual = max0(-aty)
        scaled = residual / ynorm
        passed = obj > 0.0 and scaled <= eps
        reasons = () if obj > 0.0 else ("b'y is not negative",)
        primal = CertCheckReport(
            "primal", cand.kind, cand.k, passed, obj, scaled, reasons, y, None
        )

    x = cand.x_part
    xnorm = max0(np.abs(x))
    if xnorm == 0.0:
        dual = CertCheckReport(
            "dual", cand.kind, cand.k, False, 0.0, None, ("zero candidate",)
        )
    else:
        ctx = float(p.c @ x)
        obj = -ctx
        ax = p.a.matvec(x) if cand.ax is None else cand.ax
        residual = max(max0(np.abs(ax)), max0(-x))
        scaled = residual / xnorm
        passed = obj > 0.0 and scaled <= eps
        reasons = () if obj > 0.0 else ("c'x is not negative",)
        dual = CertCheckReport(
            "dual", cand.kind, cand.k, passed, obj, scaled, reasons, x, None
        )
    return primal, dual
