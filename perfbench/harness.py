"""Workloads, the measuring loop, and the metrics it reports.

Load shape: one client in a closed loop.  Each item (load the instance
file, then solve or analyze it) starts when the previous one has finished
and been checked; the check is not timed.  A pass runs the workload's
item list once.  After an untimed warm-up, passes repeat until the run's
time is used up, with at least MIN_PASSES of them.  The list's time is the
median over passes of a pass's time; an item's time is its median over
passes.
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from pdhglp import cli, instance_io, pdhg
from pdhglp.linalg import StepSizes
from pdhglp.model import GeneralFormLp, to_standard_form
from pdhglp.pdhg import PdhgConfig

import tracing
from check import Verdict, check_analysis, check_solve
from corpus import SETUPS, Item

__all__ = ["WORKLOADS", "Workload", "time_setup", "measure_setup", "measure", "PassResult"]

# Steps of the bare operator timed per item for pdhg.step_us.
PROBE_STEPS = 200
# Fewest passes of each kind in a run, so every item has a median.
MIN_PASSES = 2
# Untimed items run before the first pass, so lazy imports, first-call
# set-up and the file cache do not land in the first pass's time.
WARMUP_SECONDS = 2.0
# Set-ups before the first pass.  An untraced run also sets up again before
# each pass, so its set-up times sample the machine's speed over the whole
# run, not only over its first second.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: PdhgConfig | None  # solve settings; None for analyze

    def run_item(self, item: Item):
        """The timed part: from reading the file to the verdict or report."""
        if self.config is None:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["analyze", item.path])
            return code, buf.getvalue()
        p = instance_io.load_problem(item.path)
        return p, pdhg.run(p, self.config)

    def check(self, item: Item, raw) -> tuple[Verdict, int]:
        """Gate the item's output; also return its iteration figure (the
        solve's iterations, or the refinement rounds of an analysis)."""
        if self.config is None:
            verdict, report = check_analysis(*raw)
            rounds = report.get("ray", {}).get("rounds", 0) if report else 0
            return verdict, int(rounds)
        _, outcome = raw
        return check_solve(item, outcome, self.config.eps), outcome.iterations


WORKLOADS = {
    "desk": Workload(
        "desk",
        "56 tiny demo and random_cell instances, all cells, both forms, default "
        "PdhgConfig: Python and check overhead dominate each iteration",
        PdhgConfig(),
    ),
    "sparse": Workload(
        "sparse",
        "8 planted 300x1200 instances, ~8.5k nnz, all cells; general form as MPS, standard "
        "as JSON; max_iters=200000 eps=1e-8 kkt_tol=1e-8 check_interval=40 step_factor=0.9",
        PdhgConfig(max_iters=200_000, eps=1e-8, kkt_tol=1e-8),
    ),
    "analyze": Workload(
        "analyze",
        "pdhglp analyze in-process on infeasible desk demos and small planted "
        "instances: trajectory, refine_ray, shifted twin, affine phase, rate fits",
        None,
    ),
}


@dataclass
class ItemResult:
    name: str
    wall_s: float
    cpu_s: float
    iterations: int
    verdict: Verdict
    steps: int = 0


@dataclass
class PassResult:
    traced: bool
    items: list[ItemResult] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.items)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.items)

    @property
    def iterations(self) -> int:
        return sum(r.iterations for r in self.items)


def time_setup(workload: str, seed: int) -> tuple[list[Item], float]:
    """One set-up: its items and its time in seconds."""
    t0 = time.perf_counter()
    items = SETUPS[workload](seed)
    return items, time.perf_counter() - t0


def measure_setup(workload: str, seed: int, tracer=None):
    """Run the set-up SETUP_REPEATS times; returns the items of the last one
    and every set-up time in seconds.  A tracer, if given, records each
    set-up under the item ("setup", repeat)."""
    times = []
    for repeat in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.item = ("setup", repeat)
        items, t = time_setup(workload, seed)
        times.append(t)
    return items, times


def _run_pass(wl: Workload, items: list[Item], tracer, pass_no: int, probes: dict):
    res = PassResult(traced=tracer is not None)
    before = dict(tracer.counts) if res.traced else {}
    for idx, item in enumerate(items):
        steps0 = tracer.counts["pdhg.steps"] if res.traced else 0
        if res.traced:
            tracer.item = (pass_no, idx)
            span = tracer.open("item")
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            raw = wl.run_item(item)
        except Exception as e:  # the benchmark must keep going; record it
            raw = e
        t1 = time.perf_counter()
        c1 = time.process_time()
        if res.traced:
            tracer.close(span)
        if isinstance(raw, Exception):
            verdict, iters = Verdict(False, reason=f"{type(raw).__name__}: {raw}"), 0
        else:
            verdict, iters = wl.check(item, raw)
            if res.traced:
                probes[idx] = (item, raw)
        steps = tracer.counts["pdhg.steps"] - steps0 if res.traced else 0
        res.items.append(ItemResult(item.name, t1 - t0, c1 - c0, iters, verdict, steps))
    if res.traced:
        res.counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
    return res


def measure(wl: Workload, items: list[Item], seconds: float, tracer=None, set_up_again=None):
    """Passes for ``seconds``; with a tracer, untraced and traced passes
    alternate, so drift in the machine's speed reaches both alike.  The
    tracer's wrappers are installed only for a traced pass, so the untraced
    passes run the package unpatched.  ``set_up_again``, if given, is called
    before each pass and counts towards the run's time.  A pass starts only
    if the previous pass's duration still fits, or while fewer than
    MIN_PASSES of each kind have run.  Returns the passes and the probe
    inputs of the traced items."""
    passes: list[PassResult] = []
    probes: dict = {}
    kinds = [None] if tracer is None else [None, tracer]
    _warm_up(wl, items)
    start = time.perf_counter()
    last = 0.0
    while len(passes) < MIN_PASSES * len(kinds) or time.perf_counter() - start + last <= seconds:
        tr = kinds[len(passes) % len(kinds)]
        t0 = time.perf_counter()
        if set_up_again is not None:
            set_up_again()
        with tracing.installed(tr) if tr else contextlib.nullcontext():
            passes.append(_run_pass(wl, items, tr, len(passes), probes))
            last = time.perf_counter() - t0
    return passes, probes


def _warm_up(wl: Workload, items: list[Item]) -> None:
    """Run items in list order, untimed, until WARMUP_SECONDS have passed
    (at least one item).  Their outputs are checked in the timed passes."""
    start = time.perf_counter()
    for item in items:
        with contextlib.suppress(Exception):
            wl.run_item(item)
        if time.perf_counter() - start >= WARMUP_SECONDS:
            break


def bare_step_us(wl: Workload, item: Item, raw) -> tuple[float, int]:
    """Time PROBE_STEPS bare operator applications on the item's operator:
    from the solve's final iterate, or from zero on the standardized
    instance an analysis iterates on.  Returns (us per step, nnz)."""
    if wl.config is not None:
        p, outcome = raw
        op = pdhg.make_operator(p, outcome.steps)
        x, y = outcome.x.copy(), outcome.y.copy()
    else:
        p = item.problem
        if isinstance(p, GeneralFormLp):
            p, _ = to_standard_form(p)
        op = pdhg.make_operator(p, StepSizes.for_matrix(p.a, 0.9))
        x, y = np.zeros(op.n), np.zeros(op.m)
    apply = op.apply
    for _ in range(10):
        x, y = apply(x, y)
    t0 = time.perf_counter()
    for _ in range(PROBE_STEPS):
        x, y = apply(x, y)
    return (time.perf_counter() - t0) / PROBE_STEPS * 1e6, p.a.nnz


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(passes: list[PassResult], setup_times: list[float]) -> dict:
    """The end-to-end metrics (value, unit, detail) from untraced passes."""
    plain = [p for p in passes if not p.traced]
    wall = [_median(p.items[i].wall_s for p in plain) for i in range(len(plain[0].items))]
    attempted = sum(len(p.items) for p in plain)
    failed = sum(not r.verdict.passed for p in plain for r in p.items)
    p50 = np.percentile([1000.0 * t for t in wall], 50)
    per_item = f"{len(wall)} items, median of {len(plain)} passes each"
    per_pass = f"median of {len(plain)} passes"
    return {
        "setup_s": (_median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        "wall_s": (_median(p.wall_s for p in plain), "s", per_pass),
        "cpu_s": (_median(p.cpu_s for p in plain), "s", per_pass),
        "item_ms.p50": (float(p50), "ms", per_item),
        "iterations": (_median(p.iterations for p in plain), "count", "per pass"),
        "ok_frac": ((attempted - failed) / attempted, "ratio", f"of {attempted} attempted"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
            "process peak",
        ),
    }


def per_layer(wl, passes, tracer, probes, setup_spans) -> dict:
    """The per-layer metrics (value, unit, detail): medians over traced
    passes of each pass's totals."""
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    bare = {idx: bare_step_us(wl, item, raw) for idx, (item, raw) in probes.items()}
    rows = [_pass_layers(tracer, p, n, bare) for n, p in enumerate(passes) if p.traced]

    out = {}
    for name, (_, unit) in rows[0].items():
        out[name] = (_median(r[name][0] for r in rows), unit, f"median of {len(rows)} passes")
    overhead = _median(p.wall_s for p in traced) / _median(p.wall_s for p in plain) - 1.0
    out["trace.overhead"] = (overhead, "ratio", "traced wall_s / untraced wall_s - 1")
    selfs = tracing.self_times(setup_spans)
    per_setup: dict = {}
    for span, s in zip(setup_spans, selfs):
        if span[0] == "exact.classify":
            per_setup[span[4]] = per_setup.get(span[4], 0.0) + s
    out["exact.classify_ms"] = (
        1000.0 * _median(per_setup.values()),
        "ms",
        f"median of {len(per_setup)} set-ups",
    )
    return out


def _pass_layers(tracer, pass_result: PassResult, pass_no: int, bare: dict) -> dict:
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    checks = 0
    loop_s = 0.0
    run_setup: dict[int, float] = {}
    for i, (name, start, end, parent, item) in enumerate(spans):
        if not (isinstance(item, tuple) and item[0] == pass_no):
            continue
        total[name] = total.get(name, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0 and spans[parent][0] == "pdhg.run":
            if name == "pdhg.kkt_residual":
                checks += 1
            if name in tracing.RUN_SETUP_SPANS:
                run_setup[parent] = run_setup.get(parent, 0.0) + end - start
        if name == "pdhg.run":
            loop_s += end - start
    loop_s -= sum(run_setup.values())

    counts = pass_result.counts
    iters = counts.get("pdhg.iterations", 0)
    weights = {i: r.steps for i, r in enumerate(pass_result.items)}
    w_sum = sum(weights[i] for i in bare) or 1
    step_us = sum(weights[i] * bare[i][0] for i in bare) / w_sum if bare else 0.0
    step_nnz = sum(weights[i] * bare[i][1] for i in bare) / w_sum if bare else 0.0
    iter_us = 1e6 * loop_s / iters if iters else 0.0
    tests = counts.get("certificates.tests", 0)
    refines = calls.get("identify.refine_ray", 0)

    def ms(name):
        return 1000.0 * total.get(name, 0.0)

    return {
        "instance_io.load_ms": (ms("instance_io.load"), "ms"),
        "instance_io.bytes": (counts.get("instance_io.bytes", 0), "bytes"),
        "model.validate_ms": (ms("model.validate"), "ms"),
        "model.standardize_ms": (ms("model.standardize"), "ms"),
        "linalg.opnorm_ms": (ms("linalg.opnorm"), "ms"),
        "linalg.opnorm_calls": (calls.get("linalg.opnorm", 0), "count"),
        "linalg.opnorm_iters": (counts.get("linalg.opnorm_iters", 0), "count"),
        "linalg.mnorm_ms": (ms("linalg.mnorm"), "ms"),
        "linalg.mnorm_calls": (calls.get("linalg.mnorm", 0), "count"),
        "pdhg.make_operator_ms": (ms("pdhg.make_operator"), "ms"),
        "pdhg.steps": (counts.get("pdhg.steps", 0), "count"),
        "pdhg.step_us": (step_us, "us"),
        "pdhg.step_nnz": (step_nnz, "count"),
        "pdhg.iter_us": (iter_us, "us"),
        "pdhg.check_overhead": (iter_us / step_us - 1.0 if iters and step_us else 0.0, "ratio"),
        "pdhg.checks": (checks, "count"),
        "pdhg.check_ms": (sum(ms(n) for n in tracing.CHECK_SPANS), "ms"),
        "pdhg.kkt_ms": (ms("pdhg.kkt_residual"), "ms"),
        "pdhg.active_pattern_ms": (ms("pdhg.active_pattern"), "ms"),
        "pdhg.recover_r_ms": (ms("pdhg.recover_r"), "ms"),
        "pdhg.grace_iters": (counts.get("pdhg.grace_iters", 0), "count"),
        "pdhg.grace_frac": (counts.get("pdhg.grace_iters", 0) / iters if iters else 0.0, "ratio"),
        "certificates.extract_ms": (ms("certificates.extract"), "ms"),
        "certificates.test_ms": (ms("certificates.test"), "ms"),
        "certificates.tests": (tests, "count"),
        "certificates.pass_ratio": (
            counts.get("certificates.passed", 0) / tests if tests else 0.0,
            "ratio",
        ),
        "identify.refine_ray_ms": (ms("identify.refine_ray"), "ms"),
        "identify.refine_rounds": (counts.get("identify.refine_rounds", 0), "count"),
        "identify.refine_converged_frac": (
            counts.get("identify.refine_converged", 0) / refines if refines else 0.0,
            "ratio",
        ),
        "identify.shifted_steps": (counts.get("identify.shifted_steps", 0), "count"),
        "identify.freeze_ms": (ms("identify.freeze"), "ms"),
        "identify.shift_identity_ms": (ms("identify.shift_identity"), "ms"),
        "identify.affine_phase_ms": (ms("identify.affine_phase"), "ms"),
        "identify.rate_regimes_ms": (ms("identify.rate_regimes"), "ms"),
        "fixed_point.fit_ms": (ms("fixed_point.fit"), "ms"),
        "cli.self_ms": (ms("cli.analysis_report"), "ms"),
    }
