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
import math
import sys
from pathlib import Path
from typing import Callable

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pdhglp import demos
from pdhglp.identify import (
    Trajectory,
    active_history,
    active_set,
    affine_phase,
    fit_rate,
    freeze_detector,
    refine_ray,
    verify_rate_regimes,
)
from pdhglp.instance_io import load_problem
from pdhglp.linalg import StepSizes
from pdhglp.model import GeneralFormLp, to_standard_form
from pdhglp.pdhg import make_operator


def _euclidean_rows(z: np.ndarray) -> np.ndarray:
    return np.linalg.norm(z, axis=1)


def displacement_bound_gap(
    traj: Trajectory,
    v: np.ndarray,
    z_star: np.ndarray,
    norm: Callable[[np.ndarray], np.ndarray] = _euclidean_rows,
    k_min: int = 1,
) -> tuple[float, float]:
    """Worst slack of the closed-range sublinear bounds along a trajectory.

    Returns (iterate_gap, average_gap): the largest amount by which
    ||v - (z^k - z^0)/k|| exceeds (2/k)||z^0 - z_star|| and by which
    ||v - 2(zbar^k - z^0)/(k+1)|| exceeds (4/(k+1))||z^0 - z_star||, both
    in the supplied norm, over k = k_min..traj.k.  norm maps a (rows, dim)
    block to the norm of each row.  Nonpositive gaps mean the bounds hold;
    NaN gaps are skipped.  A k_min outside 1..traj.k is a ValueError: k = 0
    has no bound, and an empty window would report bounds that hold.
    """
    if not 1 <= k_min <= traj.k:
        raise ValueError(f"k_min must lie in 1..{traj.k}, got {k_min}")
    z0 = traj.points[0]
    anchor = float(norm((z0 - z_star)[None, :])[0])
    ks = np.arange(k_min, traj.k + 1, dtype=np.float64)
    col = ks[:, None]
    lhs_it = norm(v - (traj.points[k_min:] - z0) / col)
    zbar = np.cumsum(traj.points[1:], axis=0)[k_min - 1 :] / col
    lhs_avg = norm(v - 2.0 * (zbar - z0) / (col + 1.0))
    gap_it = np.fmax.reduce(lhs_it - 2.0 * anchor / ks, initial=-math.inf)
    gap_avg = np.fmax.reduce(lhs_avg - 4.0 * anchor / (ks + 1.0), initial=-math.inf)
    return float(gap_it), float(gap_avg)


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
