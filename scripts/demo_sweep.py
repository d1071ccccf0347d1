#!/usr/bin/env python3
"""Sweep randomized LPs across all four feasibility cells and compare the
solver's verdict against the exact rational classifier.

Instances come from demos.random_cell_instance, which lands in the cell it
is asked for by construction; shapes are drawn per instance.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pdhglp import demos, exact
from pdhglp.pdhg import PdhgConfig, SolveStatus, run

STATUS_FOR_CELL = {
    "both_feasible": SolveStatus.OPTIMAL,
    "primal_infeasible": SolveStatus.PRIMAL_INFEASIBLE,
    "dual_infeasible": SolveStatus.DUAL_INFEASIBLE,
    "both_infeasible": SolveStatus.BOTH_INFEASIBLE,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--per-cell", type=int, default=13, help="instances per cell")
    ap.add_argument("--seed", type=int, default=20240818)
    ap.add_argument("--eps", type=float, default=1e-6)
    ap.add_argument("--max-iters", type=int, default=10**6)
    ap.add_argument(
        "--include-desk",
        action="store_true",
        help="also sweep the built-in desk instances",
    )
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    config = PdhgConfig(max_iters=args.max_iters, eps=args.eps, kkt_tol=args.eps)

    cases = []
    if args.include_desk:
        cases += [(f"ex1(alpha={a:g},beta={b:g})", demos.example1(a, b))
                  for a, b in ((0, 1), (1, 2), (0, 2), (1, 1))]
        cases += [(name, demos.DEMO_BUILDERS[name]())
                  for name in sorted(demos.DEMO_BUILDERS) if name != "ex1"]
    for cell in demos.CELLS:
        for i in range(args.per_cell):
            m, n = (int(v) for v in rng.integers(2, 7, size=2))
            p = demos.random_cell_instance(cell, rng, n=n, m=m)
            cases.append((f"{cell}-{i:02d}", p))

    agree = 0
    t0 = time.perf_counter()
    for label, p in cases:
        cell = exact.classify_lp(p).cell
        out = run(p, config)
        ok = out.status is STATUS_FOR_CELL[cell]
        agree += ok
        flag = "" if ok else "   <-- MISMATCH"
        print(
            f"{label:28s} n={p.n} m={p.m}  solver={out.status.value:18s} "
            f"oracle={cell:18s} iters={out.iterations:7d}{flag}"
        )
    elapsed = time.perf_counter() - t0
    print(f"\nagreement: {agree}/{len(cases)}  ({elapsed:.2f}s)")
    return 0 if agree == len(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
