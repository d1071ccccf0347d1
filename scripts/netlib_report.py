#!/usr/bin/env python3
"""Certification report over a directory of infeasible benchmark instances.

For each MPS file: solve once with certificate detection on, then (optionally)
sweep without early stopping to record the first iteration at which each of
the three sequences and the support candidate reaches the certification
threshold, plus the last active-set change before certification.  Missing
files are listed and skipped.
"""

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pdhglp.instance_io import load_problem
from pdhglp.mps import MpsParseError
from pdhglp.pdhg import PdhgConfig, run

DEFAULT_NAMES = ("box1", "woodinfe", "ex72a", "ex73a", "bgdbg1", "chemcom")
SEQS = ("difference", "normalized_iterate", "normalized_average", "support")


def _first_pass(trace, seq, eps):
    for rec in trace:
        if rec.seq == seq and rec.scaled_err is not None and rec.scaled_err <= eps:
            return rec.k
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", default=list(DEFAULT_NAMES),
                    help="instance base names (without extension)")
    ap.add_argument("--dir", default=os.environ.get("PDHGLP_NETLIB_DIR"),
                    help="directory holding the .mps files "
                         "(default: PDHGLP_NETLIB_DIR or data/netlib_infeasible)")
    ap.add_argument("--eps", type=float, default=1e-8)
    ap.add_argument("--max-iters", type=int, default=300_000)
    ap.add_argument("--no-sweep", action="store_true",
                    help="skip the non-stopping per-candidate measurement")
    args = ap.parse_args()

    base = Path(args.dir) if args.dir else (
        Path(__file__).resolve().parents[1] / "data" / "netlib_infeasible"
    )
    missing = []
    rc = 0
    for name in args.names:
        path = None
        for ext in (".mps", ".MPS", ".sif", ".SIF"):
            cand = base / f"{name}{ext}"
            if cand.exists():
                path = cand
                break
        if path is None:
            missing.append(name)
            continue
        try:
            p = load_problem(path)
        except MpsParseError as e:
            print(f"{name}: parse error: {e}")
            rc = 1
            continue
        t0 = time.perf_counter()
        out = run(p, PdhgConfig(max_iters=args.max_iters, eps=args.eps))
        elapsed = time.perf_counter() - t0
        print(f"{name:12s} n={p.n:5d} m={p.m:5d} status={out.status.value:18s} "
              f"iters={out.iterations:7d} ({elapsed:.1f}s)")
        if args.no_sweep:
            continue
        sweep = run(p, PdhgConfig(max_iters=args.max_iters, eps=1e-300,
                                  kkt_tol=1e-300))
        firsts = {seq: _first_pass(sweep.trace, seq, args.eps) for seq in SEQS}
        changed = {r.k for r in sweep.trace if r.active_changed}
        certified = [k for k in firsts.values() if k is not None]
        cutoff = min(certified) if certified else None
        freeze = max((k for k in changed if cutoff is None or k <= cutoff),
                     default=sweep.trace[0].k if sweep.trace else 0)
        cols = "  ".join(
            f"{seq}={firsts[seq] if firsts[seq] is not None else '>budget'}"
            for seq in SEQS
        )
        print(f"{'':12s} first pass at eps={args.eps:g}: {cols}  "
              f"last active change before certification: {freeze}")

    if missing:
        print(f"\nmissing (skipped): {', '.join(missing)}")
        print(f"searched in: {base}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
