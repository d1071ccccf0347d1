"""Command-line surface: solve, analyze, oracle, and demo subcommands.

Exit codes: 0 for any classified outcome (optimal or a certified
infeasibility), 2 for unreadable or invalid input, 3 for a numerical abort
or another solver-side failure, 4 for an iteration-limit stop.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import demos, exact
from .identify import (
    active_history,
    affine_phase,
    active_set,
    first_nonfinite_row,
    freeze_detector,
    refine_ray,
    shift_identity_residual,
    verify_rate_regimes,
)
from .instance_io import json_nulled, load_problem, result_to_json, write_trace_csv
from .linalg import SolverError, StepSizes
from .model import GeneralFormLp, to_standard_form
from .mps import MpsParseError
from .pdhg import PdhgConfig, SolveStatus, make_operator, require_valid, run

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_ITER_LIMIT = 4

_STATUS_EXIT = {
    SolveStatus.OPTIMAL: EXIT_OK,
    SolveStatus.PRIMAL_INFEASIBLE: EXIT_OK,
    SolveStatus.DUAL_INFEASIBLE: EXIT_OK,
    SolveStatus.BOTH_INFEASIBLE: EXIT_OK,
    SolveStatus.ITERATION_LIMIT: EXIT_ITER_LIMIT,
    SolveStatus.NUMERICAL_ERROR: EXIT_NUMERICAL,
}


def _at_least_one(text: str) -> int:
    """An integer option value of 1 or more; argparse names the option in
    the error it reports."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_instance_args(sub):
    sub.add_argument("path", nargs="?", help="instance file (.mps or .json)")
    sub.add_argument(
        "--demo",
        choices=sorted(demos.DEMO_BUILDERS),
        help="use a built-in instance instead of a file",
    )
    sub.add_argument("--alpha", type=float, default=0.0, help="ex1 objective knob")
    sub.add_argument("--beta", type=float, default=1.0, help="ex1 rhs knob")


def _add_shared_args(sub):
    """The options solve and analyze share."""
    sub.add_argument("--step-factor", type=float, default=0.9)
    sub.add_argument("--json-out", help="write the result report as JSON")


def _add_solver_args(sub):
    sub.add_argument("--max-iters", type=int, default=1_000_000)
    sub.add_argument("--eps", type=float, default=1e-8, help="certificate tolerance")
    sub.add_argument("--kkt-tol", type=float, default=1e-8)
    sub.add_argument("--check-interval", type=int, default=40)
    _add_shared_args(sub)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once: parse_args keeps no
    state in it, and each call returns a new namespace."""
    ap = argparse.ArgumentParser(
        prog="pdhglp",
        description="First-order LP solver with certificate extraction",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="run the iteration to a verdict")
    _add_instance_args(solve)
    _add_solver_args(solve)
    solve.add_argument("--trace-out", help="write the per-check trace as CSV")

    analyze = subs.add_parser(
        "analyze", help="ray refinement, freeze detection, and rate fits"
    )
    _add_instance_args(analyze)
    _add_shared_args(analyze)
    analyze.add_argument(
        "--analysis-iters",
        type=_at_least_one,
        default=4000,
        help="trajectory length recorded for the analysis",
    )

    oracle = subs.add_parser("oracle", help="exact rational feasibility verdict")
    _add_instance_args(oracle)

    demo = subs.add_parser("demo", help="run the built-in corpus")
    demo.add_argument("--list", action="store_true", help="list names and exit")
    return ap


def _load_instance(args):
    """The instance named by exactly one of a path and --demo; anything else
    is an input error."""
    if (args.path is None) == (args.demo is None):
        raise ValueError("give an instance path or a --demo name, not both or neither")
    if args.demo is None:
        return load_problem(args.path)
    if args.demo == "ex1":
        return demos.example1(args.alpha, args.beta)
    return demos.DEMO_BUILDERS[args.demo]()


def _config(args) -> PdhgConfig:
    return PdhgConfig(
        max_iters=args.max_iters,
        eps=args.eps,
        kkt_tol=args.kkt_tol,
        step_factor=args.step_factor,
        check_interval=args.check_interval,
    )


def cmd_solve(args) -> int:
    config = _config(args)
    p = _load_instance(args)
    outcome = run(p, config)
    print(outcome.status.value)
    line = f"iterations: {outcome.iterations}"
    if outcome.kkt is not None:
        line += f"  kkt: {outcome.kkt.max:.3e}"
    print(f"{line}  termination: {outcome.termination.value}")
    if outcome.status == SolveStatus.OPTIMAL:
        print(
            f"objective: {outcome.primal_objective:.12g} "
            f"(dual {outcome.dual_objective:.12g})"
        )
    for side, rep in (
        ("primal", outcome.primal_certificate),
        ("dual", outcome.dual_certificate),
    ):
        if rep is not None and rep.passed:
            print(
                f"{side} infeasibility certified by {rep.kind.value} at k={rep.k} "
                f"(scaled error {rep.scaled_error:.3e})" + (" exact" if rep.exact else "")
            )
    if args.trace_out:
        write_trace_csv(outcome.trace, args.trace_out)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(result_to_json(outcome, p), fh, indent=1)
            fh.write("\n")
    return _STATUS_EXIT[outcome.status]


def _analysis_report(p, args) -> dict:
    """Drive the identification pipeline on the standardized instance."""
    p_std = to_standard_form(p)[0] if isinstance(p, GeneralFormLp) else p
    # The steps come from the lowering's matrix, whose norm estimate (kept
    # on the matrix) op.m_norm() then shares.  Every identify call takes op.
    steps = StepSizes.for_matrix(p_std.general.a, args.step_factor)
    op = make_operator(p_std, steps)
    mn = op.m_norm()
    k_total = args.analysis_iters
    n = p_std.n
    points = op.trajectory(np.zeros(n + p_std.m), k_total)
    # A diverged trajectory has no ray to refine: the run would spend the
    # refinement's whole budget on it and report a meaningless residual.
    bad = first_nonfinite_row(points)
    if bad is not None:
        raise FloatingPointError(f"the trajectory diverged: z^{bad} is not finite")

    # The affine phase at the last row's support predicts the displacement,
    # so refine_ray starts from it and confirms the ray.
    support = sorted(set(range(n)) - active_set(points[-1][:n]))
    phase = affine_phase(op, support)
    ray = refine_ray(op, points, None if phase is None else phase.v_pred)
    vx, vy = ray.v[:n], ray.v[n:]
    part = ray.partition
    fk1 = abs(float(p_std.c @ vx) + float(vx @ vx) / steps.eta)
    fk2 = abs(float(p_std.b @ vy) + float(vy @ vy) / steps.tau)

    freeze = freeze_detector(active_history(points, n), k_total)
    # The twin runs beside the trajectory's last (up to) 1000 steps.
    shift_res = shift_identity_residual(
        op, ray.v, part, points[-min(1000, k_total) - 1 :]
    )

    report = {
        "instance": p.name,
        "standardized": isinstance(p, GeneralFormLp),
        "dimensions": {"n": p_std.n, "m": p_std.m},
        "steps": {"eta": steps.eta, "tau": steps.tau},
        "ray": {
            "v_norm": mn(vx, vy),
            "residual": ray.residual,
            "converged": ray.converged,
            "rounds": ray.rounds,
            "steps": ray.steps,
            "farkas_identity_primal": fk2,
            "farkas_identity_dual": fk1,
        },
        "partition": {
            "b": len(part.b),
            "n1": len(part.n1),
            "n2": len(part.n2),
            "tol": part.tol,
        },
        "freeze": {
            "k_freeze": freeze.k_freeze,
            "frozen": freeze.frozen,
            "changes": freeze.changes,
        },
        "shift_identity_residual": shift_res,
    }

    if phase is None:
        report["spectral"] = {
            "skipped": True,
            "reason": f"{p_std.m} rows are too many to project the support",
        }
        return report
    regimes = verify_rate_regimes(points, ray.v, phase, freeze.k_freeze)
    report["spectral"] = {
        "skipped": False,
        "support_size": len(support),
        "mu": phase.mu,
        "lower_rate": phase.lower_rate,
        "v_prediction_gap": float(np.linalg.norm(phase.v_pred - ray.v)),
    }
    report["rates"] = {
        "bracket": regimes.rate_bracket,
        "difference_rate": None if regimes.diff_fit is None else regimes.diff_fit.rate,
        "difference_in_bracket": regimes.diff_rate_in_bracket,
        "iterate_slope": None
        if regimes.iterate_fit is None
        else regimes.iterate_fit.slope,
        "average_slope": None
        if regimes.average_fit is None
        else regimes.average_fit.slope,
        "iterate_slope_ok": regimes.iterate_slope_ok,
        "average_slope_ok": regimes.average_slope_ok,
        "notes": list(regimes.notes),
    }
    return report


def cmd_analyze(args) -> int:
    p = _load_instance(args)
    require_valid(p)
    report = _analysis_report(p, args)
    text = json.dumps(json_nulled(report), indent=1)
    print(text)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def cmd_oracle(args) -> int:
    p = _load_instance(args)
    verdict = exact.classify_lp(p)
    print(verdict.cell)
    return EXIT_OK


def cmd_demo(args) -> int:
    if args.list:
        for name in sorted(demos.DEMO_BUILDERS):
            print(name)
        return EXIT_OK
    settings = [("ex1", a, b) for a, b in ((0, 1), (1, 2), (0, 2), (1, 1))]
    settings += [(name, None, None) for name in sorted(demos.DEMO_BUILDERS) if name != "ex1"]
    worst = EXIT_OK
    for name, alpha, beta in settings:
        if name == "ex1":
            p = demos.example1(alpha, beta)
            label = f"ex1(alpha={alpha:g},beta={beta:g})"
        else:
            p = demos.DEMO_BUILDERS[name]()
            label = name
        outcome = run(p, PdhgConfig())
        verdict = exact.classify_lp(p)
        print(f"{label:32s} solver={outcome.status.value:18s} oracle={verdict.cell}")
        worst = max(worst, _STATUS_EXIT[outcome.status])
    return worst


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "analyze": cmd_analyze,
        "oracle": cmd_oracle,
        "demo": cmd_demo,
    }
    try:
        return handlers[args.command](args)
    except SolverError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (MpsParseError, OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except FloatingPointError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
