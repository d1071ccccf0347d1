"""Problem, result, and trace serialization.

Instances travel as JSON mirroring the problem dataclasses (sparse matrix
as triplets, infinite bounds as null) or as MPS files; results as JSON;
trace records as CSV with a fixed header.  Loading dispatches on the file
extension.
"""

from __future__ import annotations

import csv
import json
from typing import Sequence

import numpy as np

from .linalg import SparseMatrix
from .model import GeneralFormLp, StandardFormLp
from .mps import load_mps
from .pdhg import SolveOutcome, TraceRecord

__all__ = [
    "TRACE_HEADER",
    "problem_to_json",
    "problem_from_json",
    "save_problem",
    "load_problem",
    "result_to_json",
    "write_trace_csv",
    "read_trace_csv",
]

TRACE_HEADER = ("k", "seq", "scaled_err", "obj_term", "kkt", "active_changed", "ms")


def _matrix_to_json(a: SparseMatrix) -> dict:
    rows, cols, vals = a.triplets()
    return {
        "shape": [a.n_rows, a.n_cols],
        "rows": rows.tolist(),
        "cols": cols.tolist(),
        "values": vals.tolist(),
    }


def _require(doc, keys: Sequence[str], what: str) -> None:
    """Raise ValueError unless doc is a JSON object holding every key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"{what} lacks the key(s) {', '.join(map(repr, missing))}")


def _matrix_from_json(d: dict) -> SparseMatrix:
    _require(d, ("shape", "rows", "cols", "values"), "instance matrix 'a'")
    m, n = d["shape"]
    return SparseMatrix.from_triplets(m, n, d["rows"], d["cols"], d["values"])


def _bounds_to_json(v: np.ndarray) -> list:
    return [None if not np.isfinite(x) else float(x) for x in v]


def _bounds_from_json(entries: Sequence, sign: float) -> np.ndarray:
    return np.array(
        [sign * np.inf if x is None else float(x) for x in entries], dtype=np.float64
    )


def problem_to_json(p: StandardFormLp | GeneralFormLp) -> dict:
    doc = {
        "form": "general" if isinstance(p, GeneralFormLp) else "standard",
        "name": p.name,
        "c": p.c.tolist(),
        "a": _matrix_to_json(p.a),
        "b": p.b.tolist(),
        "objective_offset": p.objective_offset,
    }
    if isinstance(p, GeneralFormLp):
        doc["l"] = _bounds_to_json(p.l)
        doc["u"] = _bounds_to_json(p.u)
        if p.eq.any():
            doc["eq"] = p.eq.tolist()
    return doc


def problem_from_json(doc: dict) -> StandardFormLp | GeneralFormLp:
    """The problem an instance document describes; ValueError names a
    document that is not an object, a bad form or a missing key.  A
    general-form document's optional eq key marks its equality rows."""
    _require(doc, (), "instance JSON")
    form = doc.get("form")
    if form not in ("general", "standard"):
        raise ValueError(f"instance JSON needs form 'general' or 'standard', got {form!r}")
    bounds = ("l", "u") if form == "general" else ()
    _require(doc, ("c", "a", "b", *bounds), "instance JSON")
    common = dict(
        c=np.asarray(doc["c"], dtype=np.float64),
        a=_matrix_from_json(doc["a"]),
        b=np.asarray(doc["b"], dtype=np.float64),
        name=doc.get("name", ""),
        objective_offset=float(doc.get("objective_offset", 0.0)),
    )
    if form == "standard":
        return StandardFormLp(**common)
    return GeneralFormLp(
        l=_bounds_from_json(doc["l"], -1.0),
        u=_bounds_from_json(doc["u"], +1.0),
        eq=doc.get("eq"),
        **common,
    )


def save_problem(p: StandardFormLp | GeneralFormLp, path) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_json(p), fh, indent=1)
        fh.write("\n")


def load_problem(path) -> StandardFormLp | GeneralFormLp:
    """Dispatch on extension: .json -> native, everything else -> MPS reader
    (whose errors carry line numbers)."""
    if str(path).lower().endswith(".json"):
        with open(path) as fh:
            return problem_from_json(json.load(fh))
    return load_mps(path)


def _vector_or_none(v: np.ndarray | None) -> list | None:
    return None if v is None else np.asarray(v, dtype=np.float64).tolist()


def _cert_to_json(report) -> dict | None:
    if report is None:
        return None
    return {
        "side": report.side,
        "sequence": report.kind.value,
        "k": report.k,
        "passed": report.passed,
        "objective_term": report.objective_term,
        "scaled_error": report.scaled_error,
        "exact": report.exact,
        "vector": _vector_or_none(report.vector),
        "r": _vector_or_none(report.r),
    }


def result_to_json(outcome: SolveOutcome, p: StandardFormLp | GeneralFormLp) -> dict:
    kkt = outcome.kkt
    return {
        "instance": p.name,
        "status": outcome.status.value,
        "iterations": outcome.iterations,
        "termination": outcome.termination.value,
        "primal_objective": outcome.primal_objective,
        "dual_objective": outcome.dual_objective,
        "kkt": None
        if kkt is None
        else {"primal": kkt.primal, "dual": kkt.dual, "gap": kkt.gap, "max": kkt.max},
        "steps": None
        if outcome.steps is None
        else {"eta": outcome.steps.eta, "tau": outcome.steps.tau},
        "x": _vector_or_none(outcome.x),
        "y": _vector_or_none(outcome.y),
        "r": _vector_or_none(outcome.r),
        "primal_certificate": _cert_to_json(outcome.primal_certificate),
        "dual_certificate": _cert_to_json(outcome.dual_certificate),
    }


def write_trace_csv(records: Sequence[TraceRecord], path) -> None:
    """Fixed-header CSV; scaled_err is an empty field when the record's
    objective term was not positive."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_HEADER)
        for r in records:
            w.writerow(
                [
                    r.k,
                    r.seq,
                    "" if r.scaled_err is None else repr(r.scaled_err),
                    repr(r.obj_term),
                    repr(r.kkt),
                    int(r.active_changed),
                    repr(r.ms),
                ]
            )


def read_trace_csv(path) -> list[TraceRecord]:
    out = []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = tuple(next(rd))
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header {header}")
        for row in rd:
            out.append(
                TraceRecord(
                    k=int(row[0]),
                    seq=row[1],
                    scaled_err=None if row[2] == "" else float(row[2]),
                    obj_term=float(row[3]),
                    kkt=float(row[4]),
                    active_changed=bool(int(row[5])),
                    ms=float(row[6]),
                )
            )
    return out
