"""End-to-end checks of the library's headline behaviors.

Each test covers one acceptance item and prints one summary line on
success, so a verbose run reads as a checklist.  Oracle agreement is
checked against the exact rational classifier, never against the solver
itself.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from pdhglp import demos, exact
from pdhglp.fixed_point import (
    Trajectory,
    creeper_operator,
    displacement_bound_gap,
    fit_rate,
    iterate,
    rotation_operator,
)
from pdhglp.identify import (
    active_history,
    active_set,
    affine_phase,
    freeze_detector,
    refine_ray,
    shift_identity_residual,
    verify_rate_regimes,
)
from pdhglp.instance_io import load_problem
from pdhglp.linalg import SparseMatrix, StepSizes
from pdhglp.model import GeneralFormLp, StandardFormLp, to_standard_form
from pdhglp.pdhg import (
    PdhgConfig,
    SolveStatus,
    inclusion_residual,
    make_operator,
    run,
)


def _stamp(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n} {label}: PASS")


INFEASIBLE_DESK = (
    ("std-primal-infeasible", demos.std_primal_infeasible),
    ("std-dual-infeasible", demos.std_dual_infeasible),
    ("std-both-infeasible", demos.std_both_infeasible),
    ("ex1(1,2)", lambda: demos.example1(1, 2)),
    ("ex1(0,2)", lambda: demos.example1(0, 2)),
    ("ex1(1,1)", lambda: demos.example1(1, 1)),
)

ALL_DESK = (
    ("std-feasible", demos.std_feasible),
    ("ex1(0,1)", lambda: demos.example1(0, 1)),
) + INFEASIBLE_DESK


def _standardize(p):
    if isinstance(p, GeneralFormLp):
        return to_standard_form(p)[0]
    return p


@pytest.fixture(scope="module")
def desk_rays():
    """Long trajectory plus refined ray for every infeasible desk instance.

    The warm window must outlast the slow null-direction drift of split
    free variables (ex1 standardized), hence 2*10^4 rows for refinement.
    The start is a fixed random point: from the origin some desk instances
    begin exactly on their ray and the normalized errors carry no 1/k
    signal, only roundoff.
    """
    out = {}
    for name, build in INFEASIBLE_DESK:
        ps = _standardize(build())
        steps = StepSizes.for_matrix(ps.a)
        op = make_operator(ps, steps)
        start = np.random.default_rng(7).standard_normal(ps.n + ps.m)
        traj = Trajectory(op.trajectory(start, 100_000))
        sol = refine_ray(ps, steps, traj.points[: 20_001])
        assert sol.converged, f"{name}: ray refinement did not converge"
        out[name] = (ps, steps, op, traj, sol)
    return out


# ---------------------------------------------------------------------------
# 1. the four-cell family


def test_acceptance_1_example_one_cells():
    expected = {
        (0, 1): SolveStatus.OPTIMAL,
        (1, 2): SolveStatus.BOTH_INFEASIBLE,
        (0, 2): SolveStatus.PRIMAL_INFEASIBLE,
        (1, 1): SolveStatus.DUAL_INFEASIBLE,
    }
    for (alpha, beta), want in expected.items():
        t0 = time.perf_counter()
        out = run(demos.example1(alpha, beta), PdhgConfig(max_iters=10**6))
        elapsed = time.perf_counter() - t0
        assert out.status is want, f"ex1({alpha},{beta}) -> {out.status}"
        assert elapsed < 5.0, f"ex1({alpha},{beta}) took {elapsed:.2f}s"

    # one-sided cells: the feasible side's iterate converges while the
    # other grows linearly, with the roles swapped between the two cells
    for (alpha, beta), x_converges in (((0, 2), True), ((1, 1), False)):
        p = demos.example1(alpha, beta)
        op = make_operator(p, StepSizes.for_matrix(p.a))
        points = op.trajectory(np.zeros(p.n + p.m), 4000)
        xs, ys = points[:, : p.n], points[:, p.n :]
        settling, growing = (xs, ys) if x_converges else (ys, xs)
        gaps = np.linalg.norm(settling - settling[-1], axis=1)
        scale = 1.0 + float(np.linalg.norm(settling[-1]))
        assert gaps[1000] <= 1e-9 * scale
        assert gaps[2000:3000].max() <= 1e-9 * scale
        r = np.linalg.norm(growing, axis=1)
        assert 1.9 <= r[2000] / r[1000] <= 2.1
        assert 1.9 <= r[4000] / r[2000] <= 2.1
    _stamp(1, "example-one cell classification")


# ---------------------------------------------------------------------------
# 2. randomized classification against the exact oracle


def _mk_std(c, a, b, name):
    return StandardFormLp(
        c=np.asarray(c, dtype=float),
        a=SparseMatrix.from_dense(a),
        b=np.asarray(b, dtype=float),
        name=name,
    )


def _gen_both_feasible(rng):
    m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    a = rng.integers(-2, 3, (m, n)).astype(float)
    xhat = rng.integers(0, 4, n).astype(float)
    yhat = rng.integers(-2, 3, m).astype(float)
    slack = rng.integers(0, 3, n).astype(float)
    # b reachable from xhat >= 0, c dominated by a dual point: both sides hold
    return _mk_std(a.T @ yhat + slack, a, a @ xhat, "rand-both-feasible")


def _gen_primal_infeasible(rng):
    mb, n = int(rng.integers(1, 5)), int(rng.integers(2, 7))
    a = rng.integers(-2, 3, (mb, n)).astype(float)
    g = rng.integers(-2, 3, n).astype(float)
    while not g.any():
        g = rng.integers(-2, 3, n).astype(float)
    xhat = rng.integers(0, 4, n).astype(float)
    rows = np.vstack([a, g, -g])
    beta = float(g @ xhat)
    # the (g, -g) pair demands g'x = beta and g'x = beta + delta at once
    b = np.concatenate([a @ xhat, [beta, -(beta + float(rng.integers(1, 4)))]])
    yhat = rng.integers(-2, 3, mb + 2).astype(float)
    slack = rng.integers(0, 3, n).astype(float)
    return _mk_std(rows.T @ yhat + slack, rows, b, "rand-primal-infeasible")


def _gen_dual_infeasible(rng):
    m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    a = rng.integers(-2, 3, (m, n)).astype(float)
    a[:, -1] = -a[:, 0]
    xhat = rng.integers(0, 4, n).astype(float)
    c = rng.integers(-2, 3, n).astype(float)
    # e_0 + e_{n-1} is a nonnegative null direction with negative cost
    c[-1] = -1.0 - c[0]
    return _mk_std(c, a, a @ xhat, "rand-dual-infeasible")


def _gen_both_infeasible(rng):
    mb, n = int(rng.integers(1, 5)), int(rng.integers(2, 7))
    a = rng.integers(-2, 3, (mb, n)).astype(float)
    a[:, -1] = -a[:, 0]
    g = rng.integers(-2, 3, n).astype(float)
    g[-1] = -g[0]
    while not g.any():
        g = rng.integers(-2, 3, n).astype(float)
        g[-1] = -g[0]
    xhat = rng.integers(0, 4, n).astype(float)
    rows = np.vstack([a, g, -g])
    beta = float(g @ xhat)
    b = np.concatenate([a @ xhat, [beta, -(beta + float(rng.integers(1, 4)))]])
    c = rng.integers(-2, 3, n).astype(float)
    c[-1] = -1.0 - c[0]
    return _mk_std(c, rows, b, "rand-both-infeasible")


_STATUS_FOR_CELL = {
    "both_feasible": SolveStatus.OPTIMAL,
    "primal_infeasible": SolveStatus.PRIMAL_INFEASIBLE,
    "dual_infeasible": SolveStatus.DUAL_INFEASIBLE,
    "both_infeasible": SolveStatus.BOTH_INFEASIBLE,
}


def test_acceptance_2_randomized_oracle_agreement():
    rng = np.random.default_rng(20240818)
    config = PdhgConfig(max_iters=10**6, eps=1e-6, kkt_tol=1e-6)
    generators = (
        _gen_both_feasible,
        _gen_primal_infeasible,
        _gen_dual_infeasible,
        _gen_both_infeasible,
    )
    total = 0
    cells_seen = set()
    for gen in generators:
        for _ in range(13):
            p = gen(rng)
            assert p.n <= 6 and p.m <= 6
            cell = exact.classify_lp(p).cell
            out = run(p, config)
            cells_seen.add(cell)
            total += 1
            assert out.status is _STATUS_FOR_CELL[cell], (
                f"{p.name}: oracle says {cell}, solver says {out.status}"
            )
    assert total >= 50
    assert cells_seen == set(_STATUS_FOR_CELL)
    _stamp(2, f"randomized oracle agreement ({total}/{total})")


# ---------------------------------------------------------------------------
# 3. certificate identities of the refined displacement


def test_acceptance_3_ray_farkas_identities(desk_rays):
    checked = 0
    for name, (ps, steps, op, traj, sol) in desk_rays.items():
        vx, vy = sol.v[: ps.n], sol.v[ps.n :]
        for vec, cost, step in ((vx, ps.c, steps.eta), (vy, ps.b, steps.tau)):
            nsq = float(vec @ vec)
            lhs = abs(float(cost @ vec) + nsq / step)
            if nsq <= 1e-16:
                # a vanished side satisfies its identity as 0 = 0; demand
                # the side really is negligible rather than scaling dust
                assert lhs <= 1e-12, name
                continue
            assert lhs <= 1e-4 * nsq, f"{name}: {lhs:.3e} > 1e-4 * {nsq:.3e}"
            checked += 1
    assert checked >= 6
    _stamp(3, f"ray Farkas identities ({checked} sides)")


# ---------------------------------------------------------------------------
# 4. sublinear rate of the normalized sequences


def test_acceptance_4_sublinear_rate_and_bound(desk_rays):
    for name, (ps, steps, op, traj, sol) in desk_rays.items():
        big_k = traj.k
        ks = np.arange(1, big_k + 1, dtype=np.float64)
        it_err = np.linalg.norm(traj.points[1:] / ks[:, None] - sol.v, axis=1)
        avg_err = np.linalg.norm(traj.normalized_averages() - sol.v, axis=1)
        sel = np.arange(1000, big_k + 1, 9)
        it_fit = fit_rate([(k, it_err[k - 1]) for k in sel], model="power", k_min=1000)
        avg_fit = fit_rate(
            [(k, avg_err[k - 1]) for k in sel], model="power", k_min=1000
        )
        assert abs(it_fit.slope + 1.0) <= 0.15, f"{name}: iterate {it_fit.slope}"
        assert abs(avg_fit.slope + 1.0) <= 0.15, f"{name}: average {avg_fit.slope}"

        mn = op.m_norm()
        gap_it, _ = displacement_bound_gap(
            traj,
            sol.v,
            sol.z_star,
            norm=lambda z: mn.rows(z[:, : ps.n], z[:, ps.n :]),
        )
        assert gap_it <= 1e-9, f"{name}: bound violated by {gap_it:.3e}"
    _stamp(4, "sublinear rate and explicit bound")


# ---------------------------------------------------------------------------
# 5. agreement between the iteration and its shifted twin


def test_acceptance_5_shifted_twin_identity(desk_rays):
    for name in ("std-both-infeasible", "std-primal-infeasible"):
        ps, steps, op, traj, sol = desk_rays[name]
        worst = shift_identity_residual(
            ps, steps, sol.v, sol.partition, traj.points[20_000:21_001]
        )
        assert worst <= 1e-8, f"{name}: twin deviates by {worst:.3e}"
    _stamp(5, "shifted-twin identity")


# ---------------------------------------------------------------------------
# 6. geometric difference decay after the support freezes


def _bilinear_game():
    """A 4x4 matrix coupling with a strictly interior saddle point.

    c and b are chosen so (xhat, yhat) is a fixed point of the iteration
    with every x coordinate far from its bound; starting nearby keeps the
    whole run projection-free and the update affine from step one.
    """
    coupling = np.array(
        [
            [1.0, 0.3, -0.2, 0.1],
            [-0.4, 1.1, 0.2, -0.3],
            [0.2, -0.1, 0.9, 0.4],
            [0.1, 0.2, -0.3, 1.2],
        ]
    )
    xhat = np.array([8.0, 9.0, 10.0, 11.0])
    yhat = np.array([1.0, -1.0, 2.0, 0.5])
    p = _mk_std(-(coupling.T @ yhat), coupling, coupling @ xhat, "bilinear-game-4x4")
    z0 = np.concatenate([xhat, yhat]) + np.array(
        [0.3, -0.2, 0.25, -0.35, 0.2, -0.3, 0.15, 0.1]
    )
    return p, z0


def _regime_checks(label, points, v, ps, steps, k_freeze):
    support = sorted(set(range(ps.n)) - active_set(points[-1][: ps.n]))
    phase = affine_phase(ps, steps, support)
    report = verify_rate_regimes(points, v, phase, k_freeze)
    assert report.diff_rate_in_bracket is True, (
        f"{label}: rate {report.diff_fit and report.diff_fit.rate} "
        f"outside {report.rate_bracket}"
    )
    assert report.iterate_slope_ok is True, label
    assert report.average_slope_ok is True, label
    # the difference error must sit far below both normalized errors at a
    # common iteration well past the freeze
    j = k_freeze + 500
    diff_err = float(np.linalg.norm((points[j + 1] - points[j]) - v))
    it_err = float(np.linalg.norm(points[j] / j - v))
    assert diff_err <= 1e-8, f"{label}: difference error {diff_err:.3e}"
    assert it_err >= 1e-4, f"{label}: normalized error {it_err:.3e}"


def test_acceptance_6_post_freeze_linear_phase(desk_rays):
    ps, steps, op, traj, sol = desk_rays["std-both-infeasible"]
    fr = freeze_detector(active_history(traj.points[:3001], ps.n), 3000)
    assert fr.frozen and fr.k_freeze <= 100
    _regime_checks(
        "both-infeasible", traj.points[:30_001], sol.v, ps, steps, fr.k_freeze
    )

    game, z0 = _bilinear_game()
    gsteps = StepSizes.for_matrix(game.a)
    gop = make_operator(game, gsteps)
    gpoints = gop.trajectory(z0, 6000)
    # projection-free throughout: the affine phase spans the whole run
    assert gpoints[:, : game.n].min() > 0.0
    gfr = freeze_detector(active_history(gpoints, game.n), 6000)
    assert gfr.changes == 0
    _regime_checks(
        "bilinear-game", gpoints, np.zeros(game.n + game.m), game, gsteps, 0
    )
    _stamp(6, "post-freeze linear phase")


# ---------------------------------------------------------------------------
# 7. maps where the sequences genuinely disagree


def test_acceptance_7_counterexample_suite():
    # an isometry: differences never settle, yet z^k/k dies at the 1/k rate
    rot = iterate(rotation_operator(), [1.0, 0.0], 1000)
    diffs = rot.differences()
    consec = np.linalg.norm(diffs[1:] - diffs[:-1], axis=1)
    assert consec.min() >= 2.0 - 1e-9
    ni_norms = np.linalg.norm(rot.normalized_iterates(), axis=1)
    ks = np.arange(1, rot.k + 1, dtype=np.float64)
    assert np.all(ni_norms <= 2.0 / ks + 1e-12)

    # (-1)^k k^{3/2}: the normalized iterate diverges, the average settles
    ks = np.arange(0, 4001, dtype=np.float64)
    alt = Trajectory((((-1.0) ** ks) * ks**1.5)[:, None])
    ni = alt.normalized_iterates()[:, 0]
    assert abs(ni[-1]) > 60.0
    assert abs(ni[-1]) > abs(ni[999]) > abs(ni[99])
    na = alt.normalized_averages()[:, 0]
    assert np.max(np.abs(na[-100:])) < 0.1

    # the creeping map: reaching within eps of the infimal displacement
    # requires height growing like the square root of log(1/eps)
    op = creeper_operator()

    def excess(z, eps):
        return float(op(np.array([z]))[0]) - z - 1.0 - eps

    eps_grid = [10.0 ** (-e) for e in range(2, 13)]
    heights = [brentq(excess, 1e-9, 50.0, args=(eps,)) for eps in eps_grid]
    xs = np.log([np.log(1.0 / e) for e in eps_grid])
    slope = float(np.polyfit(xs, np.log(heights), 1)[0])
    assert abs(slope - 0.5) <= 0.1
    _stamp(7, "counterexample suite")


# ---------------------------------------------------------------------------
# 8. published infeasible benchmark instances (data-dependent)

NETLIB_CERT_BY_DIFFERENCE = ("box1", "woodinfe", "ex72a", "ex73a")
NETLIB_CERT_BY_ITERATE = ("bgdbg1", "chemcom")


def _netlib_dir() -> Path:
    env = os.environ.get("PDHGLP_NETLIB_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[1] / "data" / "netlib_infeasible"


def _netlib_file(name: str) -> Path | None:
    base = _netlib_dir()
    for ext in (".mps", ".MPS", ".sif", ".SIF"):
        cand = base / f"{name}{ext}"
        if cand.exists():
            return cand
    return None


def _first_pass_k(trace, seq: str, eps: float) -> int | None:
    for rec in trace:
        if rec.seq == seq and rec.scaled_err is not None and rec.scaled_err <= eps:
            return rec.k
    return None


@pytest.mark.skipif(
    any(
        _netlib_file(n) is None
        for n in NETLIB_CERT_BY_DIFFERENCE + NETLIB_CERT_BY_ITERATE
    ),
    reason="benchmark files not present; point PDHGLP_NETLIB_DIR at them",
)
def test_acceptance_8_benchmark_reproduction():
    budget = 300_000
    sweep_cfg = PdhgConfig(max_iters=budget, eps=1e-300, kkt_tol=1e-300)
    for name in NETLIB_CERT_BY_DIFFERENCE:
        p = load_problem(_netlib_file(name))
        out = run(p, PdhgConfig(eps=1e-8))
        assert out.status is SolveStatus.PRIMAL_INFEASIBLE, f"{name}: {out.status}"
        # measure certification without early stopping, then require the
        # support to have frozen before the difference sequence certifies
        sweep = run(p, sweep_cfg)
        k_diff = _first_pass_k(sweep.trace, "difference", 1e-8)
        assert k_diff is not None, f"{name}: difference never certified in budget"
        changed = {r.k for r in sweep.trace if r.active_changed}
        k_freeze = max(changed, default=sweep.trace[0].k)
        assert k_freeze < k_diff, f"{name}: freeze {k_freeze} not before {k_diff}"

    for name in NETLIB_CERT_BY_ITERATE:
        p = load_problem(_netlib_file(name))
        sweep = run(p, sweep_cfg)
        k_it = _first_pass_k(sweep.trace, "normalized_iterate", 1e-8)
        k_diff = _first_pass_k(sweep.trace, "difference", 1e-8)
        assert k_it is not None, f"{name}: normalized iterate never certified"
        if k_diff is None:
            # the difference did not certify inside the budget; the factor-two
            # claim needs the budget to actually cover twice k_it
            assert 2 * k_it <= budget, f"{name}: budget too small to conclude"
        else:
            assert 2 * k_it <= k_diff, f"{name}: {k_diff} < 2 * {k_it}"
    _stamp(8, "benchmark reproduction")


# ---------------------------------------------------------------------------
# 9. operator contract at scale


def test_acceptance_9_operator_property_suite(rng):
    for name, build in ALL_DESK:
        p = build()
        steps = StepSizes.for_matrix(p.a)
        op = make_operator(p, steps)
        mn = op.m_norm()
        nn, mm = op.n, op.m

        for _ in range(1000):
            scale = 10.0 ** rng.uniform(-1.0, 2.0)
            z = rng.standard_normal(nn + mm) * scale
            w = rng.standard_normal(nn + mm) * scale
            tz = op.apply_z(z)
            tw = op.apply_z(w)
            lhs = mn.sq(tz[:nn] - tw[:nn], tz[nn:] - tw[nn:]) + mn.sq(
                (z - tz)[:nn] - (w - tw)[:nn], (z - tz)[nn:] - (w - tw)[nn:]
            )
            rhs = mn.sq(z[:nn] - w[:nn], z[nn:] - w[nn:])
            assert lhs <= rhs + 1e-9 * (1.0 + rhs), name

        x = rng.standard_normal(nn) * 5.0
        y = rng.standard_normal(mm) * 5.0
        for _ in range(1000):
            res = inclusion_residual(op, x, y)
            assert res <= 1e-9, f"{name}: inclusion residual {res:.3e}"
            x, y = op.apply(x, y)
    _stamp(9, "operator property suite")
