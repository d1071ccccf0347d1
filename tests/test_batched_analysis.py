"""Differential tests of the batched analysis stages.

Each test compares a batched routine against a copy of the per-row code it
replaced, kept here as the reference: equal results where the arithmetic is
the same, and 1e-12 relative where only the order of a sum changed.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pdhglp import demos, linalg
from pdhglp.identify import (
    ACTIVE_TOL_REL,
    PARTITION_TOL_REL,
    IndexPartition,
    RateFit,
    ShiftedOperator,
    Trajectory,
    active_history,
    active_set,
    build_auxiliary,
    fit_rate,
    freeze_detector,
    partition_indices,
    refine_ray,
    shift_identity_residual,
)
from pdhglp.linalg import MNorm, SparseMatrix, StepSizes, opnorm_estimate
from pdhglp.model import GeneralFormLp, StandardFormLp, to_standard_form
from pdhglp.pdhg import make_operator

from helpers import (
    block_copies,
    FixedPointOperator,
    from_lp_operator,
    iterate,
    same_entries,
    translation_operator,
)

# ---------------------------------------------------------------------------
# Reference copies of the per-row code


def _active_set_loop(x, tol=ACTIVE_TOL_REL):
    x = np.asarray(x, dtype=np.float64)
    cut = tol * (1.0 + float(np.max(np.abs(x), initial=0.0)))
    return frozenset(int(i) for i in np.flatnonzero(x <= cut))


def _active_history_rows(points, n, tol=ACTIVE_TOL_REL):
    return [
        (k, _active_set_loop(points[k][:n], tol)) for k in range(points.shape[0])
    ]


def _change_rows(rows):
    """The rows of a per-row history whose set differs from the row before."""
    return [row for i, row in enumerate(rows) if i == 0 or row[1] != rows[i - 1][1]]


def _freeze_loop(rows):
    """k_freeze, frozen and changes walked from a per-row history."""
    k_freeze, changes = rows[0][0], 0
    for (_, prev), (k, s) in zip(rows, rows[1:]):
        if s != prev:
            k_freeze, changes = k, changes + 1
    return k_freeze, k_freeze < rows[-1][0], changes


def _partition_loop(a, v_x, v_y, tol=None):
    v_x = np.asarray(v_x, dtype=np.float64)
    v_y = np.asarray(v_y, dtype=np.float64)
    if tol is None:
        scale = max(
            float(np.max(np.abs(v_x), initial=0.0)),
            float(np.max(np.abs(v_y), initial=0.0)),
        )
        tol = PARTITION_TOL_REL * (1.0 + scale)
    atv = a.rmatvec(v_y)
    b, n1, n2 = [], [], []
    for i in range(v_x.size):
        if v_x[i] > tol:
            b.append(i)
        elif atv[i] > tol:
            n2.append(i)
        else:
            n1.append(i)
    return IndexPartition(tuple(b), tuple(n1), tuple(n2), tol)


def _auxiliary_triplets(p, steps, v, partition):
    """-A x = -b_aux on m equality rows, the lowering of p, with c_aux = c +
    v_x/eta on b and b_aux = b + v_y/tau, built entry by entry."""
    rows_i, cols_j, vals = p.a.triplets()
    m, n = p.a.shape
    negated = SparseMatrix.from_triplets(m, n, rows_i, cols_j, -vals)
    c_aux, l, u = p.c.copy(), np.zeros(n), np.full(n, np.inf)
    for j in partition.b:
        c_aux[j] += v[j] / steps.eta
        l[j] = -np.inf
    for j in partition.n2:
        u[j] = 0.0
    return GeneralFormLp(
        c=c_aux,
        a=negated,
        b=-(p.b + v[n:] / steps.tau),
        l=l,
        u=u,
        name=f"aux({p.name})",
        eq=np.ones(m, dtype=bool),
    )


def _shift_identity_per_k(op, v, partition, z_from, k_max):
    shifted = ShiftedOperator(op, v, partition)
    mn = op.m_norm()
    n = op.n
    x, y = z_from[:n].copy(), z_from[n:].copy()
    xs, ys = x.copy(), y.copy()
    worst = 0.0
    for k in range(1, k_max + 1):
        x, y = op.apply(x, y)
        xs, ys = shifted.apply(xs, ys)
        worst = max(worst, mn(xs - (x - k * v[:n]), ys - (y - k * v[n:])))
    return worst


def _fit_rate_loop(samples, model="power", k_min=100):
    ks, es = [], []
    dropped = 0
    for k, e in samples:
        if k < k_min:
            continue
        if e <= 0.0:
            dropped += 1
            continue
        ks.append(float(k))
        es.append(float(e))
    if len(ks) < 20:
        raise ValueError(f"need at least 20 post-warm-up samples, have {len(ks)}")
    xs = np.log(ks) if model == "power" else np.asarray(ks)
    ys = np.log(es)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(
        model=model,
        slope=float(slope),
        rate=float(np.exp(slope)) if model == "geometric" else None,
        intercept=float(intercept),
        r_squared=r2,
        n_used=len(ks),
        n_dropped=dropped,
        k_min=k_min,
    )


def _bound_gap_per_k(traj, v, z_star, norm, k_min=1):
    z0 = traj.points[0]
    anchor = norm(z0 - z_star)
    sums = np.cumsum(traj.points[1:], axis=0)
    gap_it = -math.inf
    gap_avg = -math.inf
    for k in range(k_min, traj.k + 1):
        lhs_it = norm(v - (traj.points[k] - z0) / k)
        gap_it = max(gap_it, lhs_it - 2.0 * anchor / k)
        zbar = sums[k - 1] / k
        lhs_avg = norm(v - 2.0 * (zbar - z0) / (k + 1))
        gap_avg = max(gap_avg, lhs_avg - 4.0 * anchor / (k + 1))
    return gap_it, gap_avg


# ---------------------------------------------------------------------------
# Helpers


def _random_standard_lp(rng, m, n):
    a = SparseMatrix.from_dense(
        rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.6)
    )
    c = rng.standard_normal(n)
    return StandardFormLp(c=c, a=a, b=rng.standard_normal(m), name="rand")


def _split(n, rng, how):
    idx = np.arange(n)
    if how == "random":
        roles = rng.integers(0, 3, n)
    else:
        roles = {"no_b_no_n2": 1, "all_b": 0, "all_n2": 2}[how] * np.ones(n, int)
    return IndexPartition(
        b=tuple(idx[roles == 0].tolist()),
        n1=tuple(idx[roles == 1].tolist()),
        n2=tuple(idx[roles == 2].tolist()),
        tol=0.0,
    )


def _same_fit(a: RateFit, b: RateFit) -> bool:
    for name in RateFit.__dataclass_fields__:
        u, w = getattr(a, name), getattr(b, name)
        both_nan = isinstance(u, float) and isinstance(w, float) and (
            math.isnan(u) and math.isnan(w)
        )
        if not (u == w or both_nan):
            return False
    return True


@pytest.fixture(scope="module")
def ray_cases():
    """Refined rays of two infeasible desk instances, with their trajectories."""
    out = {}
    for name, p in (
        ("std-both", demos.std_both_infeasible()),
        ("ex1(1,2)", to_standard_form(demos.example1(1, 2))[0]),
    ):
        steps = StepSizes.for_matrix(p.a)
        op = make_operator(p, steps)
        pts = op.trajectory(np.zeros(p.n + p.m), 2000)
        out[name] = (p, op, pts, refine_ray(op, pts))
    return out


# ---------------------------------------------------------------------------
# active_history


def _trajectory_at_cut(seed, rows=400, n=7, m=3):
    """Rows in runs of repeats, with entries at zero, exactly at the cut,
    one ulp above it, and a NaN row."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((rows, n + m))
    pts = pts[np.sort(rng.integers(0, rows, rows))]
    x = pts[:, :n]
    x[rng.random((rows, n)) < 0.3] = 0.0
    for k in range(rows):
        cut = ACTIVE_TOL_REL * (1.0 + np.max(np.abs(x[k]), initial=0.0))
        x[k, rng.random(n) < 0.15] = cut
        x[k, rng.random(n) < 0.1] = np.nextafter(cut, np.inf)
    x[rows // 2] = np.nan
    x[rows // 3] = 0.0
    return pts, n


@pytest.mark.parametrize("seed", range(6))
def test_active_history_matches_row_loop(seed):
    pts, n = _trajectory_at_cut(seed)
    got = active_history(pts, n)
    want = _active_history_rows(pts, n)
    assert got == _change_rows(want)
    rep = freeze_detector(got, pts.shape[0] - 1)
    assert (rep.k_freeze, rep.frozen, rep.changes) == _freeze_loop(want)


def test_active_history_matches_row_loop_on_trajectories(ray_cases):
    for p, _, pts, _ in ray_cases.values():
        for tol in (ACTIVE_TOL_REL, 1e-4):
            got = active_history(pts, p.n, tol)
            want = _active_history_rows(pts, p.n, tol)
            assert got == _change_rows(want)
            rep = freeze_detector(got, pts.shape[0] - 1)
            assert (rep.k_freeze, rep.frozen, rep.changes) == _freeze_loop(want)


@pytest.mark.parametrize("seed", range(3))
def test_active_set_matches_loop(seed):
    pts, n = _trajectory_at_cut(seed, rows=60)
    for row in pts:
        for tol in (ACTIVE_TOL_REL, 1e-3):
            assert active_set(row[:n], tol) == _active_set_loop(row[:n], tol)
    assert active_set(np.empty(0)) == _active_set_loop(np.empty(0)) == frozenset()


def test_active_history_edge_shapes():
    assert active_history(np.empty((0, 4)), 3) == []
    pts = np.zeros((3, 2))
    assert active_history(pts, 0) == _change_rows(_active_history_rows(pts, 0))


# ---------------------------------------------------------------------------
# partition_indices and build_auxiliary


def _same_float(u, w):
    return np.float64(u).tobytes() == np.float64(w).tobytes()


def _displacement_with_edges(rng, size, tol):
    """Entries at zero, exactly at tol, one ulp either side, and NaN."""
    v = rng.standard_normal(size) * (rng.random(size) < 0.7)
    v[rng.random(size) < 0.15] = tol
    v[rng.random(size) < 0.1] = np.nextafter(tol, np.inf)
    v[rng.random(size) < 0.1] = np.nextafter(tol, -np.inf)
    v[rng.random(size) < 0.05] = np.nan
    return v


@pytest.mark.parametrize("seed", range(8))
def test_partition_indices_matches_loop(seed):
    rng = np.random.default_rng(seed)
    m, n = 5, 11
    p = _random_standard_lp(rng, m, n)
    for tol in (None, 1e-3, 0.0):
        edge = 1e-3 if tol is None else tol
        v_x = _displacement_with_edges(rng, n, edge)
        v_y = _displacement_with_edges(rng, m, edge)
        if tol is None and seed % 2:
            v_x = np.nan_to_num(v_x)  # a finite scale, not a NaN tol
            v_y = np.nan_to_num(v_y)
        got = partition_indices(p.a, v_x, v_y, tol)
        want = _partition_loop(p.a, v_x, v_y, tol)
        assert (got.b, got.n1, got.n2) == (want.b, want.n1, want.n2)
        assert _same_float(got.tol, want.tol)
        assert all(type(i) is int for i in got.b + got.n1 + got.n2)


@pytest.mark.parametrize("how", ["random", "no_b_no_n2", "all_b", "all_n2"])
def test_build_auxiliary_matches_triplet_build(how):
    rng = np.random.default_rng(len(how))
    m, n = 4, 9
    p = dataclasses.replace(_random_standard_lp(rng, m, n), objective_offset=1.5)
    op = make_operator(p, StepSizes.for_matrix(p.a))
    v = rng.standard_normal(n + m)
    partition = _split(n, rng, how)
    got = build_auxiliary(op, v, partition)
    want = _auxiliary_triplets(p, op.steps, v, partition)
    assert same_entries(got.a, want.a)
    for name in ("c", "b", "l", "u", "eq"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.name == want.name
    assert got.objective_offset == want.objective_offset == 0.0
    # The problem owns a read-only copy of its costs.
    assert not np.shares_memory(got.c, p.c)
    assert not got.c.flags.writeable


# ---------------------------------------------------------------------------
# op.trajectory against the generic fixed-point driver


def _trajectory_cases():
    rng = np.random.default_rng(11)
    std = demos.std_both_infeasible()
    gen = demos.example1(1, 2)
    sparse = block_copies(demos.std_both_infeasible(), 45, seed=2)
    ops = {
        "standard": make_operator(std, StepSizes.for_matrix(std.a)),
        "general": make_operator(gen, StepSizes.for_matrix(gen.a)),
        "standard-sparse": make_operator(sparse, StepSizes.for_matrix(sparse.a)),
    }
    for how in ("random", "all_b", "all_n2"):
        p = _random_standard_lp(rng, 4, 9)
        ops[f"shifted-{how}"] = ShiftedOperator(
            make_operator(p, StepSizes.for_matrix(p.a)),
            np.concatenate([rng.standard_normal(9), rng.standard_normal(4)]),
            _split(9, rng, how),
        )
    return ops


@pytest.mark.parametrize("name", sorted(_trajectory_cases()))
def test_trajectory_matches_iterate_bitwise(name):
    op = _trajectory_cases()[name]
    rng = np.random.default_rng(len(name))
    for z0, k in ((np.zeros(op.n + op.m), 300), (rng.standard_normal(op.n + op.m), 1)):
        got = op.trajectory(z0, k)
        want = iterate(from_lp_operator(op), z0, k).points
        assert got.shape == want.shape == (k + 1, op.n + op.m)
        assert got.tobytes() == want.tobytes()
    assert op.trajectory(z0, 0).tobytes() == z0.tobytes()


@pytest.mark.parametrize("name", sorted(_trajectory_cases()))
def test_trajectory_rejects_a_negative_length(name):
    op = _trajectory_cases()[name]
    with pytest.raises(ValueError, match="k >= 0"):
        op.trajectory(np.zeros(op.n + op.m), -1)


# ---------------------------------------------------------------------------
# The step loop against the textbook step

# After 4000 steps every row of a trajectory agrees with the textbook
# formulas within this much, relative to 1 + the row's largest entry: the
# step loop sums each product with its offset in one dot, in another order.
_KERNEL_REL_TOL = 1e-11


def _textbook_step(case, x, y):
    """One step of the case's operator from the formulas of pdhg's module
    docstring, on the dense matrix.  A case is (op, std, v, partition):
    without std, the general form on op.p; with it, the standard form on
    std's own A, b and c, where the shifted twin (partition given) projects,
    pins n2 to zero, then shifts both parts back by v."""
    op, std, v, partition = case
    eta, tau = op.steps.eta, op.steps.tau
    if std is None:
        a, p = op.p.a.csr.toarray(), op.p
        x1 = np.clip(x - eta * (p.c - a.T @ y), p.l, p.u)
        return x1, np.maximum(y + tau * (p.b - a @ (2.0 * x1 - x)), p.row_floor)
    a, n = std.a.csr.toarray(), std.n
    w = x - eta * (a.T @ y) - eta * std.c
    x1 = np.maximum(w, 0.0)
    if partition is not None:
        mask_b, _, mask_n2 = partition.masks(n)
        x1 = np.where(mask_b, w, x1)
        x1 = np.where(mask_n2, 0.0, x1) - v[:n]
    return x1, y + tau * (a @ (2.0 * x1 - x)) - tau * std.b - v[n:]


def _kernel_differential_cases():
    rng = np.random.default_rng(5)
    cases = {}
    for storage, copies in (("dense", 1), ("csr", 41)):
        std = block_copies(demos.std_both_infeasible(), copies, seed=3)
        gen = block_copies(demos.example1(1, 2), copies, seed=3)
        assert (std.m * std.n <= linalg.DENSE_LIMIT) == (storage == "dense")
        assert (gen.m * gen.n <= linalg.DENSE_LIMIT) == (storage == "dense")
        steps = StepSizes.for_matrix(std.a)
        lowered = make_operator(std, steps)
        cases[f"standard-{storage}"] = (lowered, None, None, None)
        cases[f"paper-{storage}"] = (lowered, std, np.zeros(std.n + std.m), None)
        cases[f"general-{storage}"] = (
            make_operator(gen, StepSizes.for_matrix(gen.a)), None, None, None
        )
        v_x = rng.standard_normal(std.n) * (rng.random(std.n) < 0.5)
        v_y = rng.standard_normal(std.m)
        partition = _split(std.n, rng, "random")
        v = np.concatenate([v_x, v_y])
        cases[f"shifted-{storage}"] = (ShiftedOperator(lowered, v, partition), std, v, partition)
    return cases


@pytest.mark.parametrize("name", sorted(_kernel_differential_cases()))
def test_step_loop_matches_textbook_step(name):
    case = _kernel_differential_cases()[name]
    op = case[0]
    assert isinstance(op.k1, np.ndarray) == name.endswith("dense")
    z0 = np.random.default_rng(len(name)).standard_normal(op.n + op.m)
    got = op.trajectory(z0, 4000)
    want = np.empty_like(got)
    want[0] = z0
    for k in range(1, 4001):
        x, y = _textbook_step(case, want[k - 1, : op.n], want[k - 1, op.n :])
        want[k] = np.concatenate([x, y])
    scale = 1.0 + np.max(np.abs(want), axis=1)
    assert np.max(np.max(np.abs(got - want), axis=1) / scale) <= _KERNEL_REL_TOL


# ---------------------------------------------------------------------------
# shift_identity_residual


@pytest.mark.parametrize("k_max", [0, 1, 7, 200, 437])
def test_shift_identity_residual_matches_per_k_loop(ray_cases, k_max):
    for p, op, pts, sol in ray_cases.values():
        start = np.random.default_rng(k_max).standard_normal(p.n + p.m)
        for z_from in (pts[50], pts[-1], start):
            orig = op.trajectory(z_from, k_max)
            got = shift_identity_residual(op, sol.v, sol.partition, orig)
            want = _shift_identity_per_k(op, sol.v, sol.partition, z_from, k_max)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# fit_rate


@pytest.mark.parametrize("model", ["power", "geometric"])
@pytest.mark.parametrize("seed", range(5))
def test_fit_rate_list_and_array_agree(model, seed):
    rng = np.random.default_rng(seed)
    ks = np.arange(1, 400)
    es = 3.0 * (0.99**ks if model == "geometric" else ks**-1.0)
    es = es * np.exp(0.05 * rng.standard_normal(ks.size))
    es[rng.random(ks.size) < 0.1] = 0.0
    es[rng.random(ks.size) < 0.05] *= -1.0
    if seed % 2:
        es[rng.integers(0, ks.size, 2)] = np.nan
    samples = [(int(k), float(e)) for k, e in zip(ks, es)]
    arr = np.column_stack([ks, es])
    for k_min in (0, 50, 120):
        from_list = fit_rate(samples, model=model, k_min=k_min)
        from_array = fit_rate(arr, model=model, k_min=k_min)
        reference = _fit_rate_loop(samples, model=model, k_min=k_min)
        assert _same_fit(from_list, from_array)
        assert _same_fit(from_list, reference)
        assert from_list.n_dropped == reference.n_dropped > 0


def test_fit_rate_nan_k_is_not_warm_up():
    # A NaN k fails the k < k_min test, so the loop went on to the error
    # test and counted a nonpositive error as dropped.
    samples = [(k, 1.0 / k) for k in range(1, 30)] + [(math.nan, 0.0)]
    for given_as in (samples, np.array(samples)):
        fit = fit_rate(given_as, k_min=5)
        assert _same_fit(fit, _fit_rate_loop(samples, k_min=5))
        assert fit.n_dropped == 1


def test_fit_rate_kept_nan_k_raises_value_error(capfd):
    # The fit used to run on log(NaN): LAPACK printed DLASCL to stderr and
    # numpy raised LinAlgError instead of naming the sample.
    samples = [(k, 1.0 / k) for k in range(1, 60)] + [(math.nan, 0.5)]
    for given_as in (samples, np.array(samples)):
        with pytest.raises(ValueError, match=r"sample 59 \(nan, 0.5\) has a NaN k"):
            fit_rate(given_as, k_min=5)
    assert "DLASCL" not in capfd.readouterr().err


def test_fit_rate_too_few_samples_rejected_for_both_inputs():
    samples = [(k, 1.0 if k % 2 else 0.0) for k in range(1, 39)]
    with pytest.raises(ValueError, match="have 19"):
        fit_rate(samples, k_min=0)
    with pytest.raises(ValueError, match="have 19"):
        fit_rate(np.array(samples), k_min=0)
    with pytest.raises(ValueError, match="have 0"):
        fit_rate(np.empty((0, 2)), k_min=0)


# ---------------------------------------------------------------------------
# MNorm.rows and the batched bound gap

finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.integers(1, 5).flatmap(
            lambda n: arrays(np.float64, (m, n), elements=finite)
        )
    ),
    st.integers(0, 2**31 - 1),
    st.booleans(),
)
def test_mnorm_rows_matches_call(arr, seed, negate):
    # negate: the norm of a lowering, whose matrix is -A.
    a = SparseMatrix.from_dense(-arr if negate else arr)
    if opnorm_estimate(a).value == 0.0:
        steps = StepSizes(1.0, 1.0)
    else:
        steps = StepSizes.for_matrix(a, factor=0.9)
    mn = MNorm(a, steps)
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((6, a.n_cols))
    ys = rng.standard_normal((6, a.n_rows))
    xs[0], ys[0] = 0.0, 0.0
    got = mn.rows(xs, ys)
    want = np.array([mn(x, y) for x, y in zip(xs, ys)])
    assert got.shape == (6,)
    assert got[0] == 0.0
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_bound_gap_matches_per_k_loop(ray_cases, scripts):
    displacement_bound_gap = scripts("rate_study").displacement_bound_gap
    t = iterate(translation_operator([1.0, -2.0]), [5.0, 5.0], 300)
    got = displacement_bound_gap(t, np.array([1.0, -2.0]), t.points[0])
    want = _bound_gap_per_k(
        t, np.array([1.0, -2.0]), t.points[0], lambda z: float(np.linalg.norm(z))
    )
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    for p, op, _, sol in ray_cases.values():
        start = np.random.default_rng(7).standard_normal(p.n + p.m)
        traj = Trajectory(op.trajectory(start, 3000))
        mn = op.m_norm()
        n = p.n
        for k_min in (1, 1000):
            got = displacement_bound_gap(
                traj,
                sol.v,
                sol.z_star,
                norm=lambda z: mn.rows(z[:, :n], z[:, n:]),
                k_min=k_min,
            )
            want = _bound_gap_per_k(
                traj, sol.v, sol.z_star, lambda z: mn(z[:n], z[n:]), k_min
            )
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_bound_gap_empty_window(scripts):
    # A window past the trajectory's end used to report (-inf, -inf), bounds
    # that hold over no k at all.
    displacement_bound_gap = scripts("rate_study").displacement_bound_gap
    t = iterate(translation_operator([1.0]), [0.0], 5)
    with pytest.raises(ValueError, match="k_min"):
        displacement_bound_gap(t, np.ones(1), t.points[0], k_min=6)


@pytest.mark.parametrize("k_min", [-1, 0, 11, 12])
def test_bound_gap_refuses_a_k_min_outside_the_trajectory(scripts, k_min):
    # k_min = 0 divides by k = 0; k_min > 10 leaves no k of 10 steps.  A
    # translation anchored at its start meets both bounds exactly.
    displacement_bound_gap = scripts("rate_study").displacement_bound_gap
    t = iterate(translation_operator([1.0, 1.0]), [0.0, 0.0], 10)
    v = np.ones(2)
    assert displacement_bound_gap(t, v, t.points[0], k_min=1) == (0.0, 0.0)
    assert displacement_bound_gap(t, v, t.points[0], k_min=10) == (0.0, 0.0)
    with pytest.raises(ValueError, match="k_min"):
        displacement_bound_gap(t, v, t.points[0], k_min=k_min)


# ---------------------------------------------------------------------------
# iterate's overflow guard


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5e100])
def test_iterate_guard_raises_at_the_same_step(bad):
    def apply(z):
        out = z + 1.0
        if out[0] >= 3.0:
            out[1] = bad
        return out

    t = FixedPointOperator(dim=2, apply=apply)
    with pytest.raises(OverflowError, match="at step 3"):
        iterate(t, [0.0, 0.0], 10)


def test_iterate_guard_admits_the_limit():
    t = FixedPointOperator(dim=2, apply=lambda z: np.array([1e100, -1e100]))
    assert iterate(t, [0.0, 0.0], 3).points[-1].tolist() == [1e100, -1e100]
