#!/usr/bin/env python3
"""Trace the three certificate sequences of one instance and fit their decay.

Runs a long trajectory, refines the ray (anchor + displacement) from the
affine phase's predicted displacement at the warm prefix's last support, as
pdhglp analyze does, prints the Farkas identities of the displacement, the
sublinear slopes of the normalized sequences, the post-freeze geometric rate
of the differences against that phase's spectral bracket, and the worst slack
of the explicit (2/k) bound.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pdhglp import demos
from pdhglp.fixed_point import Trajectory, displacement_bound_gap, fit_rate
from pdhglp.identify import (
    active_history,
    active_set,
    affine_phase,
    freeze_detector,
    refine_ray,
    verify_rate_regimes,
)
from pdhglp.instance_io import load_problem
from pdhglp.linalg import StepSizes
from pdhglp.model import GeneralFormLp, to_standard_form
from pdhglp.pdhg import make_operator


def _load(args):
    if args.instance is not None:
        return load_problem(args.instance)
    if args.demo == "ex1":
        return demos.example1(args.alpha, args.beta)
    return demos.DEMO_BUILDERS[args.demo]()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("instance", nargs="?", help="path to a .mps or .json instance")
    ap.add_argument("--demo", choices=sorted(demos.DEMO_BUILDERS),
                    default="std-both-infeasible")
    ap.add_argument("--alpha", type=float, default=1.0, help="ex1 third-column scale")
    ap.add_argument("--beta", type=float, default=2.0, help="ex1 right-hand side")
    ap.add_argument("--iters", type=int, default=100_000)
    ap.add_argument("--warm", type=int, default=20_000,
                    help="trajectory prefix used for ray refinement")
    ap.add_argument("--seed", type=int, default=7, help="random start (off-ray)")
    args = ap.parse_args()

    p = _load(args)
    if isinstance(p, GeneralFormLp):
        p, _ = to_standard_form(p)
        print(f"standardized: n={p.n} m={p.m}")
    steps = StepSizes.for_matrix(p.general.a)
    op = make_operator(p, steps)
    print(f"instance {p.name}: n={p.n} m={p.m} eta=tau={steps.eta:.6g}")

    start = np.random.default_rng(args.seed).standard_normal(p.n + p.m)
    traj = Trajectory(op.trajectory(start, args.iters))
    warm = traj.points[: args.warm + 1]
    support = sorted(set(range(p.n)) - active_set(warm[-1][: p.n]))
    phase = affine_phase(op, support)
    sol = refine_ray(op, warm, None if phase is None else phase.v_pred)
    vx, vy = sol.v[: p.n], sol.v[p.n :]
    print(f"ray refinement: converged={sol.converged} rounds={sol.rounds} "
          f"residual={sol.residual:.3e}")
    print(f"  |v_x|={np.linalg.norm(vx):.6g}  |v_y|={np.linalg.norm(vy):.6g}")
    nx, ny = float(vx @ vx), float(vy @ vy)
    print(f"  dual-side identity  |c'v_x + |v_x|^2/eta| = "
          f"{abs(float(p.c @ vx) + nx / steps.eta):.3e}")
    print(f"  primal-side identity |b'v_y + |v_y|^2/tau| = "
          f"{abs(float(p.b @ vy) + ny / steps.tau):.3e}")

    big_k = traj.k
    it_err = np.linalg.norm(traj.normalized_iterates() - sol.v, axis=1)
    avg_err = np.linalg.norm(traj.normalized_averages() - sol.v, axis=1)
    sel = np.arange(max(1000, big_k // 100), big_k + 1, 9)
    for label, err in (("normalized iterate", it_err), ("normalized average", avg_err)):
        try:
            fit = fit_rate([(k, err[k - 1]) for k in sel], model="power",
                           k_min=int(sel[0]))
            print(f"  {label:20s} slope={fit.slope:+.4f} r2={fit.r_squared:.4f}")
        except ValueError as e:
            print(f"  {label:20s} fit skipped: {e}")

    mn = op.m_norm()
    gap_it, gap_avg = displacement_bound_gap(
        traj,
        sol.v,
        sol.z_star,
        norm=lambda z: mn.rows(z[:, : p.n], z[:, p.n :]),
    )
    print(f"  (2/k) bound worst slack: iterate {gap_it:+.3e}  average {gap_avg:+.3e}")

    k_end = min(big_k, 5000)
    fr = freeze_detector(active_history(traj.points[: k_end + 1], p.n), k_end)
    print(f"freeze: k={fr.k_freeze} frozen={fr.frozen} changes={fr.changes}")
    if phase is None:
        print(f"spectral analysis skipped: {p.m} rows are too many to project")
        return 0
    report = verify_rate_regimes(
        traj.points[: min(big_k, 30_000) + 1], sol.v, phase, fr.k_freeze
    )
    print(f"post-freeze: mu={phase.mu} lower={phase.lower_rate}")
    if report.diff_fit is not None:
        print(f"  difference rate {report.diff_fit.rate:.6f} in "
              f"{report.rate_bracket}: {report.diff_rate_in_bracket}")
    if report.iterate_fit is not None:
        print(f"  restarted slopes: iterate {report.iterate_fit.slope:+.4f} "
              f"average {report.average_fit.slope:+.4f}")
    for note in report.notes:
        print(f"  note: {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
