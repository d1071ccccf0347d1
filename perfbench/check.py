"""Correctness gates for the benchmark's items.

Each check returns a ``Verdict``:

* ``passed``: the item met the gate of its workload.  A solve passes when
  its verdict is the item's cell and every certificate it returns
  re-checks on the original data; an analysis passes when it produced a
  report that records ``ray.converged``.
* ``false_claim``: the verdict contradicts the cell (say "optimal" on an
  infeasible instance, or "primal infeasible" on a primal-feasible one).
  A one-sided verdict on a both-infeasible instance, a certificate that
  fails its re-check, an iteration limit or an exception fails the gate
  without a false claim.

Desk certificates are re-checked with ``exact.verify_certificate_exact``.
Sparse certificates are re-checked on the planted integer data, in exact
arithmetic (``planted.farkas_terms``): the residual of the Farkas
conditions must be at most eps times the certificate objective, and the
objective must be positive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from pdhglp import exact

from corpus import Item
from planted import PlantedLp, farkas_terms

__all__ = ["Verdict", "check_solve", "check_analysis", "recheck_planted"]

# The oracle's cell name for each verdict a solve may return.
VERDICT_CELL = {
    "optimal": "both_feasible",
    "primal_infeasible": "primal_infeasible",
    "dual_infeasible": "dual_infeasible",
    "both_infeasible": "both_infeasible",
}
# Which cells each verdict is true on.
_TRUE_ON = {
    "optimal": {"both_feasible"},
    "primal_infeasible": {"primal_infeasible", "both_infeasible"},
    "dual_infeasible": {"dual_infeasible", "both_infeasible"},
    "both_infeasible": {"both_infeasible"},
}


@dataclass(frozen=True)
class Verdict:
    passed: bool
    false_claim: bool = False
    reason: str = ""


def _certificates(outcome):
    return [c for c in (outcome.primal_certificate, outcome.dual_certificate) if c]


def check_solve(item: Item, outcome, eps: float) -> Verdict:
    """Gate of a solve item (desk and sparse workloads)."""
    status = outcome.status.value
    false_claim = status in _TRUE_ON and item.cell not in _TRUE_ON[status]
    reasons = []
    if VERDICT_CELL.get(status) != item.cell:
        reasons.append(f"verdict {status}, cell {item.cell}")
    for cert in _certificates(outcome):
        if item.planted is not None:
            why = recheck_planted(item.planted, cert.side, cert.vector, eps)
        else:
            res = exact.verify_certificate_exact(cert.vector, item.problem, cert.side)
            why = "; ".join(res.reasons)
        if why:
            reasons.append(f"{cert.side} certificate from {cert.kind.value}: {why}")
    return Verdict(not reasons, false_claim, "; ".join(reasons))


def check_analysis(exit_code: int, text: str) -> tuple[Verdict, dict | None]:
    """Gate of an analyze item: exit code 0 and a JSON report whose ray
    section records whether the refinement converged.  Returns the verdict
    and the parsed report."""
    if exit_code != 0:
        return Verdict(False, reason=f"exit code {exit_code}"), None
    try:
        report = json.loads(text)
    except json.JSONDecodeError as e:
        return Verdict(False, reason=f"report is not JSON: {e}"), None
    converged = report.get("ray", {}).get("converged")
    if not isinstance(converged, bool):
        return Verdict(False, reason="report lacks ray.converged"), report
    return Verdict(True), report


def _as_integers(v: np.ndarray) -> list[int]:
    """The floats scaled to integers by their common power-of-two
    denominator, exactly."""
    ratios = [float(x).as_integer_ratio() for x in v]
    shift = max(d.bit_length() for _, d in ratios)
    return [num << (shift - d.bit_length()) for num, d in ratios]


def recheck_planted(p: PlantedLp, side: str, vector: np.ndarray, eps: float) -> str:
    """Re-check a certificate returned on the written form of ``p``, whose
    rows and columns are those of ``p``; returns the failure, or "" when the
    certificate holds."""
    v = _as_integers(np.asarray(vector, dtype=np.float64))
    residual, objective = farkas_terms(p, side, v)
    if objective <= 0:
        return "certificate objective is not positive"
    if Fraction(residual) > Fraction(eps) * objective:
        return f"scaled residual {residual / objective:.3g} exceeds eps {eps:g}"
    return ""
