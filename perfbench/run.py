"""Time to a verified verdict on planted-cell corpora.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 36 --trace 0

Workloads are ``desk``, ``sparse`` and ``analyze`` (see perfbench/README.md).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Instance
files, the run record and the spans go to ``.bench_out/``.

``--write-spec`` rewrites BENCHMARK.json from the definitions below and
runs nothing.

The package is imported from ``src/`` of the current directory, never from
an installed copy; without it the run stops with exit code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# BLAS threads per process; the load is one client, so one thread keeps
# timings steady and starts no extra threads.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RUN_SECONDS = 36

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may get worse before a change counts as a regression.
# On the 2-core shared host this was built on, the speed of the same code
# drifts by 20-50% between runs minutes apart, so every time gets the
# widest bound allowed; counts and memory repeat and get tight ones.
# item_ms.p50 is printed but not listed: its spread across runs (0.27-0.36
# of its median) exceeds any allowed bound.  No tail percentile is reported:
# with fewer than 200 items, fewer than ten samples would lie beyond a p95.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("iterations", "count", "lower", 0.05),
    ("ok_frac", "ratio", "higher", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
PER_LAYER = [
    ("trace.overhead", "ratio", "lower"),
    ("instance_io.load_ms", "ms", "lower"),
    ("instance_io.bytes", "bytes", "lower"),
    ("model.validate_ms", "ms", "lower"),
    ("model.standardize_ms", "ms", "lower"),
    ("linalg.opnorm_ms", "ms", "lower"),
    ("linalg.opnorm_calls", "count", "lower"),
    ("linalg.opnorm_iters", "count", "lower"),
    ("linalg.mnorm_ms", "ms", "lower"),
    ("linalg.mnorm_calls", "count", "lower"),
    ("pdhg.make_operator_ms", "ms", "lower"),
    ("pdhg.steps", "count", "lower"),
    ("pdhg.step_us", "us", "lower"),
    ("pdhg.step_nnz", "count", "lower"),
    ("pdhg.iter_us", "us", "lower"),
    ("pdhg.check_overhead", "ratio", "lower"),
    ("pdhg.checks", "count", "lower"),
    ("pdhg.check_ms", "ms", "lower"),
    ("pdhg.kkt_ms", "ms", "lower"),
    ("pdhg.active_pattern_ms", "ms", "lower"),
    ("pdhg.recover_r_ms", "ms", "lower"),
    ("pdhg.grace_iters", "count", "lower"),
    ("pdhg.grace_frac", "ratio", "lower"),
    ("certificates.extract_ms", "ms", "lower"),
    ("certificates.test_ms", "ms", "lower"),
    ("certificates.tests", "count", "lower"),
    ("certificates.pass_ratio", "ratio", "higher"),
    ("identify.refine_ray_ms", "ms", "lower"),
    ("identify.refine_rounds", "count", "lower"),
    ("identify.refine_converged_frac", "ratio", "higher"),
    ("identify.shifted_steps", "count", "lower"),
    ("identify.freeze_ms", "ms", "lower"),
    ("identify.shift_identity_ms", "ms", "lower"),
    ("identify.affine_phase_ms", "ms", "lower"),
    ("identify.rate_regimes_ms", "ms", "lower"),
    ("fixed_point.fit_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("exact.classify_ms", "ms", "lower"),
]


def _import_package(root: str) -> None:
    """Put src/ and this directory first on sys.path, or exit 2."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pdhglp", "__init__.py")):
        print(f"error: no package at {src}/pdhglp; run from the repository root",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [src, HERE]


def spec(workloads) -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bd} for n, u, b, bd in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def environment(args, items, config) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "load": "closed loop, 1 client, 1 process",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "solver_config": None if config is None else vars(config),
        "instances": [it.describe() for it in items],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("desk", "sparse", "analyze"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true")
    args = ap.parse_args(argv)

    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    root = os.getcwd()
    _import_package(root)
    import harness
    import tracing

    if args.write_spec:
        with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
            json.dump(spec(harness.WORKLOADS), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    wl = harness.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    with tracing.installed(tracer) if tracer else contextlib.nullcontext():
        items, setup_times = harness.measure_setup(wl.name, args.seed, tracer)
    setup_spans = list(tracer.spans) if tracer else []
    if tracer:
        tracer.spans.clear()

    def set_up_again():
        setup_times.append(harness.time_setup(wl.name, args.seed)[1])

    passes, probes = harness.measure(
        wl, items, args.seconds, tracer, None if tracer else set_up_again
    )
    if tracer:
        metrics = harness.per_layer(wl, passes, tracer, probes, setup_spans)
        names = [m[0] for m in PER_LAYER]
    else:
        metrics = harness.end_to_end(passes, setup_times)
        names = [m[0] for m in END_TO_END]

    env = environment(args, items, wl.config)
    print("environment:")
    for key, value in env.items():
        if key != "instances":
            print(f"  {key}: {value}")
    print(f"instances ({len(items)}):")
    for it in items:
        print(f"  {it.name:34s} {it.m:5d}x{it.n:<5d} nnz={it.nnz:<6d} {it.form:8s} {it.cell}")
    results = [r for p in passes for r in p.items]
    false_claims = [r for r in results if r.verdict.false_claim]
    for name in dict.fromkeys(r.name for r in results if not r.verdict.passed):
        reason = next(r.verdict.reason for r in results if r.name == name)
        print(f"FAILED {name}: {reason}")
    print(f"passes: {sum(not p.traced for p in passes)} untraced, "
          f"{sum(p.traced for p in passes)} traced")
    for name, (value, unit, detail) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit:6s} ({detail})")

    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    stem = os.path.join(root, ".bench_out", f"{wl.name}-seed{args.seed}-trace{args.trace}")
    if tracer:
        tracer.write_csv(stem + "-spans.csv")
    with open(stem + ".json", "w") as fh:
        json.dump(
            {
                "environment": env,
                "metrics": {n: {"value": v, "unit": u, "detail": d} for n, (v, u, d) in metrics.items()},
                "items": [
                    {"name": r.name, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                     "iterations": r.iterations, "passed": r.verdict.passed,
                     "reason": r.verdict.reason}
                    for r in results
                ],
            },
            fh,
            indent=1,
            default=str,
        )
    result = {
        "correct": not false_claims,
        "attempted": len(results),
        "failed": sum(not r.verdict.passed for r in results),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
