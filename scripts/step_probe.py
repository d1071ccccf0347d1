#!/usr/bin/env python3
"""Time the PDHG step loop on one instance, in us per step, with nnz.

The operators timed are the one run and the analysis toolkit build for the
standard form of the instance (make_operator: a GeneralFormOperator on its
lowering), the general form of a general-form instance, and the shifted
twin of the standard form (displacement taken from the last step of a
1000-step trajectory, partition from partition_indices).  Each is timed as
op.trajectory from zero, --steps steps, --repeat times;
the fastest run is printed per step.  trajectory is the bare step loop
plus one copy of each row out of the step buffers, so the numbers are the
"bare operator step" of the analysis and of the solve alike.  For steady
numbers pin BLAS to one thread:

    OPENBLAS_NUM_THREADS=1 python3 scripts/step_probe.py instance.mps
    OPENBLAS_NUM_THREADS=1 python3 scripts/step_probe.py --demo std-both-infeasible
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pdhglp import demos, linalg
from pdhglp.identify import ShiftedOperator, partition_indices
from pdhglp.instance_io import load_problem
from pdhglp.linalg import StepSizes
from pdhglp.model import GeneralFormLp, to_standard_form
from pdhglp.pdhg import GeneralFormOperator, make_operator


def _load(args):
    if args.instance is not None:
        return load_problem(args.instance)
    if args.demo == "ex1":
        return demos.example1(args.alpha, args.beta)
    return demos.DEMO_BUILDERS[args.demo]()


def _operators(p, step_factor: float):
    """(name, operator, nnz of A) for the lowered, general (of a
    general-form p only) and shifted operators of p."""
    std = to_standard_form(p)[0] if isinstance(p, GeneralFormLp) else p
    std_steps = StepSizes.for_matrix(std.general.a, step_factor)
    op = make_operator(std, std_steps)
    tail = op.trajectory(np.zeros(op.n + op.m), 1000)[-2:]
    v = tail[1] - tail[0]
    v_x, v_y = v[: std.n], v[std.n :]
    shifted = ShiftedOperator(
        std, std_steps, v_x, v_y, partition_indices(std.a, v_x, v_y)
    )
    ops = [("lowered", op, std.a.nnz)]
    if isinstance(p, GeneralFormLp):
        gen_op = GeneralFormOperator(p, StepSizes.for_matrix(p.a, step_factor))
        ops.append(("general", gen_op, p.a.nnz))
    return ops + [("shifted", shifted, std.a.nnz)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("instance", nargs="?", help="path to a .mps or .json instance")
    ap.add_argument("--demo", choices=sorted(demos.DEMO_BUILDERS),
                    default="std-both-infeasible")
    ap.add_argument("--alpha", type=float, default=0.0, help="ex1 objective knob")
    ap.add_argument("--beta", type=float, default=1.0, help="ex1 rhs knob")
    ap.add_argument("--steps", type=int, default=2000, help="steps per timed run")
    ap.add_argument("--repeat", type=int, default=7, help="timed runs per operator")
    ap.add_argument("--step-factor", type=float, default=0.9)
    args = ap.parse_args()
    if args.steps < 1 or args.repeat < 1:
        ap.error("--steps and --repeat must be at least 1")

    p = _load(args)
    print(f"{'operator':10s} {'storage':7s} {'m':>6s} {'n':>6s} {'nnz':>8s} "
          f"{'us/step':>9s}")
    for name, op, nnz in _operators(p, args.step_factor):
        storage = "dense" if op.m * op.n <= linalg.DENSE_LIMIT else "csr"
        z0 = np.zeros(op.n + op.m)
        best = np.inf
        with np.errstate(all="ignore"):
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                op.trajectory(z0, args.steps)
                best = min(best, time.perf_counter() - t0)
        print(f"{name:10s} {storage:7s} {op.m:6d} {op.n:6d} {nnz:8d} "
              f"{best / args.steps * 1e6:9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
