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

There is one test per side, check_primal_infeasibility and
check_dual_infeasibility, on model.general_form(p) for either LP form.  In
both, the scaled error is
residual / certificate objective, a candidate whose objective is not
positive fails with scaled error None, and a candidate passes when its
scaled error is at most eps.  The tests are positively homogeneous:
rescaling a candidate leaves its scaled error unchanged.

The tests need A x and A'y of the candidate, of the problem's own A.
``extract`` gives the normalized iterate A x^k / k and A'y^k / k when it
is given A x^k and A'y^k, which the solve loop computes anyway for its KKT
residual.  Every other candidate carries no product, and the tests take
one per side from the problem's matrix, on the candidate vector itself:
a difference of cached products would cancel at large k.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import max0
from .model import (
    GeneralFormLp,
    StandardFormLp,
    clip_to_dual_signs,
    clip_to_ray_signs,
    general_form,
)

if TYPE_CHECKING:  # pragma: no cover
    from .pdhg import PdhgState

__all__ = [
    "CandidateKind",
    "CertificateCandidate",
    "CertCheckReport",
    "SEQUENCE_KINDS",
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
    """One sequence value at iteration k.

    ax and aty, when present, are A x_part and A'y_part.
    """

    kind: CandidateKind
    k: int
    x_part: np.ndarray
    y_part: np.ndarray
    ax: np.ndarray | None = None
    aty: np.ndarray | None = None


@dataclass(slots=True)
class CertCheckReport:
    """Outcome of one certificate test on one candidate.

    objective_term is the certificate objective (must be positive for a
    valid certificate); scaled_error is residual / objective_term and is
    None when the objective term is not positive.  vector carries the
    tested certificate (dual vector for side "primal", primal direction
    for side "dual"); r the reduced costs of a primal report.
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
    ax: np.ndarray | None = None,
    aty: np.ndarray | None = None,
) -> CertificateCandidate:
    """Build the candidate of the given kind from the current state.

    ax and aty, given together, are A x^k and A'y^k of the state: the
    normalized iterate then carries A x^k / k and A'y^k / k.  The other
    kinds carry no product.
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
    if ax is not None and kind is CandidateKind.NORMALIZED_ITERATE:
        return CertificateCandidate(kind, k, x, y, ax / k, aty / k)
    return CertificateCandidate(kind, k, x, y)


def _zero_report(side: str, cand: CertificateCandidate) -> CertCheckReport:
    return CertCheckReport(
        side, cand.kind, cand.k, False, 0.0, None, ("zero candidate",)
    )


def _report(
    side: str,
    cand: CertificateCandidate,
    eps: float,
    obj: float,
    residual: float,
    vector: np.ndarray,
    r: np.ndarray | None = None,
    reasons: tuple[str, ...] = (),
) -> CertCheckReport:
    """The eps test shared by both sides and both forms: scaled_error is
    residual / obj, None with a failing reason when obj is not positive,
    and the candidate passes when it has no failing reason and its
    scaled_error is at most eps."""
    scaled = residual / obj if obj > 0.0 else None
    if scaled is None:
        reasons += ("certificate objective is not positive",)
    passed = not reasons and scaled <= eps
    return CertCheckReport(
        side, cand.kind, cand.k, passed, obj, scaled, reasons, vector, r
    )


def check_primal_infeasibility(
    cand: CertificateCandidate,
    p: GeneralFormLp | StandardFormLp,
    eps: float,
) -> CertCheckReport:
    """Test the dual part y as an approximate certificate that p has no
    feasible point, on general_form(p) (cand.aty is of its matrix).

    y >= 0 on the inequality rows, with negative dust zeroed first; r =
    clip_to_dual_signs(-A'y) of the unclipped y; residual ||r + A'y||_inf
    and objective p.dual_value(y, r) = b'y + l'r_+ - u'r_-.  On a
    standard-form p: residual max0(-A'y), objective -b'y, r = max(A'y, 0).
    """
    p = general_form(p)
    y = cand.y_part
    ynorm = max0(np.abs(y))
    if ynorm == 0.0:
        return _zero_report("primal", cand)
    aty = p.a.rmatvec(y) if cand.aty is None else cand.aty
    r = clip_to_dual_signs(-aty, p.masks)
    reasons: tuple[str, ...] = ()
    neg = y < p.row_floor
    if neg.any():
        dust = neg & (y >= -_Y_CLIP_REL * ynorm)
        if dust.any():
            y = y.copy()
            y[dust] = 0.0
            neg &= ~dust
            aty = p.a.rmatvec(y)  # the candidate's product is the unclipped y's
        if neg.any():
            reasons = ("dual vector has negative components",)
    residual = max0(np.abs(r + aty))
    return _report("primal", cand, eps, p.dual_value(y, r), residual, y, r, reasons)


def check_dual_infeasibility(
    cand: CertificateCandidate,
    p: GeneralFormLp | StandardFormLp,
    eps: float,
) -> CertCheckReport:
    """Test the primal part d as an approximate unbounded direction of
    general_form(p) (cand.ax is of its matrix), with objective -c'd.

    Residual: the larger of d's distance to the recession cone of the box
    and p.row_violation(A d); on a standard-form p, max(|A d|, max0(-d)).
    """
    p = general_form(p)
    d = cand.x_part
    if max0(np.abs(d)) == 0.0:
        return _zero_report("dual", cand)
    ad = p.a.matvec(d) if cand.ax is None else cand.ax
    residual = max(max0(np.abs(d - clip_to_ray_signs(d, p.masks))), p.row_violation(ad))
    return _report("dual", cand, eps, -float(p.c @ d), residual, d)


def check_standard_farkas(
    cand: CertificateCandidate, p: StandardFormLp, eps: float
) -> tuple[CertCheckReport, CertCheckReport]:
    """Both tests of a standard-form candidate, returned as (primal, dual).
    Kept only for the benchmark's tests and tracer, which name it."""
    return (
        check_primal_infeasibility(cand, p, eps),
        check_dual_infeasibility(cand, p, eps),
    )
