"""Spans and counters recorded from outside the program.

``installed(tracer)`` replaces public functions of the package's modules,
and ``cli._analysis_report``, with wrappers that record a span (name,
start, end, parent, item) around each call, then puts the originals back.  The solver and the analysis look
these functions up at call time (``run`` calls ``validate``,
``make_operator``, ``kkt_residual``, ``active_pattern``, ``recover_r`` and
``certs.*`` through its module; ``cli`` calls the identify functions
through its own namespace), so the wrappers take effect without changing
the package.  Operator steps are counted, not timed: a span per step would
cost more than the step.

Spans stay in memory until ``write_csv``.  A span's self time is its
duration minus the durations of its direct children; calls on one thread
nest, so the children never overlap.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager

from pdhglp import certificates, cli, exact, identify, instance_io, linalg, pdhg

__all__ = ["Tracer", "installed", "self_times"]

# Span names of the calls that make up one periodic check inside run().
CHECK_SPANS = (
    "pdhg.kkt_residual",
    "pdhg.active_pattern",
    "pdhg.recover_r",
    "certificates.extract",
    "certificates.test",
)
# Children of run() that happen once per solve, before the iteration loop.
RUN_SETUP_SPANS = ("model.validate", "linalg.opnorm", "pdhg.make_operator")


class Tracer:
    """In-memory spans plus counters, tagged with the current item."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []
        self._first_pass: int | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,item\n")
            for name, start, end, parent, item in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{item}\n")

    # Result hooks: counts that come from what a call returns.

    def _run_started(self, *args, **kwargs):
        self._first_pass = None

    def _run_done(self, outcome, *args, **kwargs):
        self.counts["pdhg.iterations"] += outcome.iterations
        if self._first_pass is not None:
            self.counts["pdhg.grace_iters"] += outcome.iterations - self._first_pass

    def _tested(self, result, *args, **kwargs):
        reports = result if isinstance(result, tuple) else (result,)
        for rep in reports:
            self.counts["certificates.tests"] += 1
            if rep.passed:
                self.counts["certificates.passed"] += 1
                if self._first_pass is None or rep.k < self._first_pass:
                    self._first_pass = rep.k

    def _opnorm_done(self, est, *args, **kwargs):
        self.counts["linalg.opnorm_iters"] += est.iterations

    def _refined(self, ray, *args, **kwargs):
        self.counts["identify.refine_rounds"] += ray.rounds
        self.counts["identify.refine_converged"] += int(ray.converged)

    def _loaded(self, problem, path, *args, **kwargs):
        self.counts["instance_io.bytes"] += os.path.getsize(path)


def _timed(tracer: Tracer, name: str, fn, before=None, after=None):
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _patches(t: Tracer):
    """(owner, attribute, wrapper factory) for every instrumented call."""
    tests = "certificates.test"
    return [
        (instance_io, "load_problem", lambda f: _timed(t, "instance_io.load", f, after=t._loaded)),
        (cli, "load_problem", lambda f: _timed(t, "instance_io.load", f, after=t._loaded)),
        (pdhg, "validate", lambda f: _timed(t, "model.validate", f)),
        (cli, "to_standard_form", lambda f: _timed(t, "model.standardize", f)),
        (linalg, "opnorm_estimate", lambda f: _timed(t, "linalg.opnorm", f, after=t._opnorm_done)),
        (linalg.MNorm, "__call__", lambda f: _timed(t, "linalg.mnorm", f)),
        (pdhg, "run", lambda f: _timed(t, "pdhg.run", f, before=t._run_started, after=t._run_done)),
        (pdhg, "make_operator", lambda f: _timed(t, "pdhg.make_operator", f)),
        (pdhg, "kkt_residual", lambda f: _timed(t, "pdhg.kkt_residual", f)),
        (pdhg, "active_pattern", lambda f: _timed(t, "pdhg.active_pattern", f)),
        (pdhg, "recover_r", lambda f: _timed(t, "pdhg.recover_r", f)),
        (pdhg.StandardFormOperator, "apply", lambda f: _counted(t, "pdhg.steps", f)),
        (pdhg.GeneralFormOperator, "apply", lambda f: _counted(t, "pdhg.steps", f)),
        (certificates, "extract", lambda f: _timed(t, "certificates.extract", f)),
        (certificates, "check_primal_infeasibility", lambda f: _timed(t, tests, f, after=t._tested)),
        (certificates, "check_dual_infeasibility", lambda f: _timed(t, tests, f, after=t._tested)),
        (certificates, "check_standard_farkas", lambda f: _timed(t, tests, f, after=t._tested)),
        (cli, "_analysis_report", lambda f: _timed(t, "cli.analysis_report", f)),
        (cli, "refine_ray", lambda f: _timed(t, "identify.refine_ray", f, after=t._refined)),
        (cli, "active_history", lambda f: _timed(t, "identify.freeze", f)),
        (cli, "freeze_detector", lambda f: _timed(t, "identify.freeze", f)),
        (cli, "active_set", lambda f: _timed(t, "identify.freeze", f)),
        (cli, "shift_identity_residual", lambda f: _timed(t, "identify.shift_identity", f)),
        (cli, "affine_phase", lambda f: _timed(t, "identify.affine_phase", f)),
        (cli, "verify_rate_regimes", lambda f: _timed(t, "identify.rate_regimes", f)),
        (identify, "fit_rate", lambda f: _timed(t, "fixed_point.fit", f)),
        (identify.ShiftedOperator, "apply", lambda f: _counted(t, "identify.shifted_steps", f)),
        (exact, "classify_lp", lambda f: _timed(t, "exact.classify", f)),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block; outside it the
    package runs unpatched."""
    saved = []
    try:
        for owner, attr, make in _patches(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span, in seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]
