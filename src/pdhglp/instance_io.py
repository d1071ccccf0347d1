"""Problem, result, and trace serialization.

Instances travel as JSON mirroring the problem dataclasses (sparse matrix
as triplets, infinite bounds as null) or as MPS files; results as JSON,
with every non-finite number as null (json_nulled); trace records as CSV
with a fixed header.  Loading dispatches on the file extension.
"""

from __future__ import annotations

import csv
import json
import math
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
    "json_nulled",
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


_NUMBERS = {int, float}


def _array(key: str, v, dtype=np.float64) -> np.ndarray:
    """np.array(v, dtype), or ValueError naming key for an integer too large
    for dtype."""
    try:
        return np.array(v, dtype=dtype)
    except OverflowError:
        msg = f"instance JSON: {key!r} holds an integer out of range"
        raise ValueError(msg) from None


def _entries(
    doc: dict, key: str, kinds: set[type], what: str, dtype=np.float64
) -> np.ndarray:
    """doc[key] as an _array of dtype if it is a JSON list of entries of the
    exact types kinds (a boolean is no integer, 0.5 no index), else
    ValueError."""
    v = doc[key]
    if not isinstance(v, list) or not set(map(type, v)) <= kinds:
        raise ValueError(f"instance JSON: {key!r} must be a list of {what}")
    return _array(key, v, dtype)


def _matrix_from_json(d: dict) -> SparseMatrix:
    _require(d, ("shape", "rows", "cols", "values"), "instance matrix 'a'")
    keys = ("shape", "rows", "cols")
    shape, rows, cols = (_entries(d, key, {int}, "integers", np.int64) for key in keys)
    shape = shape.tolist()
    if len(shape) != 2:
        raise ValueError(f"instance JSON: 'shape' must hold 2 integers, got {shape}")
    values = _entries(d, "values", _NUMBERS, "numbers")
    return SparseMatrix.from_triplets(*shape, rows, cols, values)


def json_nulled(doc):
    """doc, a tree of dicts, lists and scalars, with every non-finite float
    (infinite or NaN) replaced by None, so json.dumps writes strict JSON,
    null in its place."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {key: json_nulled(v) for key, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [json_nulled(v) for v in doc]
    return doc


def _bounds_from_json(doc: dict, key: str, sign: float) -> np.ndarray:
    entries = _entries(doc, key, _NUMBERS | {type(None)}, "numbers or nulls", object)
    return _array(key, [sign * np.inf if x is None else x for x in entries])


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
        doc["l"] = json_nulled(p.l.tolist())
        doc["u"] = json_nulled(p.u.tolist())
        if p.eq.any():
            doc["eq"] = p.eq.tolist()
    return doc


def problem_from_json(doc: dict) -> StandardFormLp | GeneralFormLp:
    """The problem an instance document describes; ValueError names a
    document that is not an object, a bad form, a missing key, an entry of
    the wrong JSON type, an integer too large for a float or an index, or a
    name that is not a string.  A general-form document's optional eq key,
    a list of booleans, marks its equality rows."""
    _require(doc, (), "instance JSON")
    form = doc.get("form")
    if form not in ("general", "standard"):
        raise ValueError(f"instance JSON needs form 'general' or 'standard', got {form!r}")
    bounds = ("l", "u") if form == "general" else ()
    _require(doc, ("c", "a", "b", *bounds), "instance JSON")
    offset = doc.get("objective_offset", 0.0)
    if isinstance(offset, bool) or not isinstance(offset, (int, float)):
        raise ValueError("instance JSON: 'objective_offset' must be a number")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ValueError("instance JSON: 'name' must be a string")
    common = dict(
        c=_entries(doc, "c", _NUMBERS, "numbers"),
        a=_matrix_from_json(doc["a"]),
        b=_entries(doc, "b", _NUMBERS, "numbers"),
        name=name,
        objective_offset=float(_array("objective_offset", offset)),
    )
    if form == "standard":
        return StandardFormLp(**common)
    return GeneralFormLp(
        l=_bounds_from_json(doc, "l", -1.0),
        u=_bounds_from_json(doc, "u", +1.0),
        eq=None
        if doc.get("eq") is None
        else _entries(doc, "eq", {bool}, "booleans", bool),
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
    """The outcome as a JSON tree; a non-finite number, as a diverged solve
    gives, is None (json_nulled)."""
    kkt = outcome.kkt
    return json_nulled({
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
    })


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
    """The records of a file write_trace_csv wrote; ValueError, naming the
    1-based line, for an empty file, another header or a row whose field
    count is not the header's."""
    out = []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = tuple(next(rd, ()))
        if header != TRACE_HEADER:
            raise ValueError(f"line 1: unexpected trace header {header}")
        for row in rd:
            if len(row) != len(TRACE_HEADER):
                raise ValueError(
                    f"line {rd.line_num}: {len(row)} fields, not {len(TRACE_HEADER)}"
                )
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
