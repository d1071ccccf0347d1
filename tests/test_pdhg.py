import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pdhglp import demos, linalg, pdhg
from pdhglp.identify import IndexPartition, ShiftedOperator, partition_indices
from pdhglp.linalg import SparseMatrix, StepSizes
from pdhglp.model import GeneralFormLp, StandardFormLp
from pdhglp.pdhg import (
    GeneralFormOperator,
    PdhgConfig,
    PdhgState,
    SolveStatus,
    StandardFormOperator,
    Termination,
    kkt_residual,
    make_operator,
    run,
)

from helpers import block_copies, inclusion_residual

FAST = PdhgConfig(max_iters=200_000, eps=1e-8, kkt_tol=1e-8)


def _random_general(rng):
    m, n = 3, 4
    a = rng.standard_normal((m, n))
    l = np.array([0.0, -1.0, -np.inf, 0.5])
    u = np.array([2.0, np.inf, 1.0, np.inf])
    return GeneralFormLp(
        c=rng.standard_normal(n),
        a=SparseMatrix.from_dense(a),
        b=rng.standard_normal(m),
        l=l,
        u=u,
    )


def _non_finite_cases():
    """Operators in both storages whose every row and column of A has a
    nonzero.  A clip to a finite bound can turn an infinite entry finite
    (a box, or y >= 0 in general form), so each case has a part that
    nothing clips and that every input entry reaches through A: y in
    standard form and in the shifted twin, x in the general-form problem,
    whose columns are all free.  NaN survives every clip."""
    rng = np.random.default_rng(3)
    std = demos.std_both_infeasible()
    big = block_copies(std, 41)
    free = _random_general(rng)
    free = dataclasses.replace(
        free, l=np.full(free.n, -np.inf), u=np.full(free.n, np.inf)
    )
    v = rng.standard_normal(std.n + std.m)
    shifted = ShiftedOperator(
        make_operator(std, StepSizes.for_matrix(std.a)),
        v,
        partition_indices(std.a, v[: std.n], v[std.n :]),
    )
    ops = [make_operator(q, StepSizes.for_matrix(q.a)) for q in (std, big, free)]
    names = ["standard-dense", "standard-csr", "general-free"]
    return dict(zip(names, ops), shifted=shifted)


_NON_FINITE_CASES = _non_finite_cases()


class TestOperators:
    def test_standard_apply_matches_formula(self, rng):
        p = demos.std_both_infeasible()
        steps = StepSizes.for_matrix(p.a)
        op = make_operator(p, steps)
        x = rng.standard_normal(p.n)
        y = rng.standard_normal(p.m)
        x1, y1 = op.apply(x, y)
        a = p.a.csr.toarray()
        x1_ref = np.maximum(x - steps.eta * (a.T @ y) - steps.eta * p.c, 0.0)
        y1_ref = y + steps.tau * (a @ (2.0 * x1_ref - x)) - steps.tau * p.b
        np.testing.assert_allclose(x1, x1_ref, atol=1e-14)
        np.testing.assert_allclose(y1, y1_ref, atol=1e-14)

    def test_general_apply_matches_formula(self, rng):
        p = _random_general(rng)
        steps = StepSizes.for_matrix(p.a)
        op = GeneralFormOperator(p, steps)
        x = rng.standard_normal(p.n)
        y = rng.standard_normal(p.m)
        x1, y1 = op.apply(x, y)
        a = p.a.csr.toarray()
        x1_ref = np.clip(x + steps.eta * (a.T @ y) - steps.eta * p.c, p.l, p.u)
        y1_ref = np.maximum(
            y - steps.tau * (a @ (2.0 * x1_ref - x)) + steps.tau * p.b, 0.0
        )
        np.testing.assert_allclose(x1, x1_ref, atol=1e-14)
        np.testing.assert_allclose(y1, y1_ref, atol=1e-14)

    def test_apply_z_stacks(self, rng):
        p = demos.std_feasible()
        op = make_operator(p, StepSizes.for_matrix(p.a))
        z = rng.standard_normal(p.n + p.m)
        x1, y1 = op.apply(z[: p.n], z[p.n :])
        np.testing.assert_array_equal(op.apply_z(z), np.concatenate([x1, y1]))

    def test_make_operator_iterates_the_general_form(self, rng):
        # A standard-form problem is iterated as its lowering, by the solver
        # and the analysis toolkit alike, with no shift: make_operator
        # returns a StandardFormOperator exactly for a standard-form
        # problem, with the blocks of the plain operator on the lowering.
        p = demos.std_feasible()
        steps = StepSizes(0.1, 0.1)
        std = make_operator(p, steps)
        assert type(std) is StandardFormOperator
        assert std.p is p.general and std.standard is p
        assert not std.shift.any() and std.shift.shape == (p.n + p.m,)
        plain = GeneralFormOperator(p.general, steps)
        for name in ("k1", "k2"):
            assert getattr(std, name).tobytes() == getattr(plain, name).tobytes()
        for q in (_random_general(rng), p.general):
            assert type(make_operator(q, steps)) is GeneralFormOperator

    def test_matrix_is_the_storage_of_the_products(self):
        small = demos.std_both_infeasible()
        big = block_copies(small, 41)
        assert small.m * small.n <= linalg.DENSE_LIMIT < big.m * big.n
        for p, dense in ((small, True), (big, False)):
            op = make_operator(p, StepSizes.for_matrix(p.a))
            assert isinstance(op.matrix, np.ndarray) == dense
            assert op.matrix is (op.p.a.dense if dense else op.p.a.csr)
            x = np.arange(p.n, dtype=np.float64)
            np.testing.assert_array_equal(op.matrix @ x, op.p.a.matvec(x))

    @pytest.mark.parametrize(
        "name,params", [("example1", (0, 1)), ("std_feasible", ()), ("example1", (1, 2))]
    )
    def test_small_solve_makes_two_dense_copies(self, name, params, monkeypatch):
        # The problem's A for the scaling, and the scaled A, which the norm
        # estimate and the step blocks both read as SparseMatrix.dense.
        shapes = []
        toarray = sp.csr_matrix.toarray

        def counted(self, *args, **kwargs):
            shapes.append(self.shape)
            return toarray(self, *args, **kwargs)

        p = getattr(demos, name)(*params)
        monkeypatch.setattr(sp.csr_matrix, "toarray", counted)
        run(p, PdhgConfig())
        assert shapes == [p.a.shape] * 2

    @pytest.mark.parametrize("form", ["standard", "general", "shifted"])
    def test_step_blocks_hold_no_square_block(self, form, rng):
        # 1 x 10000 is stored dense.  An n x n identity or zero block in K1
        # or K2 would hold 10^8 entries, 800 MB.
        m, n = 1, 10_000
        assert m * n <= linalg.DENSE_LIMIT
        a = SparseMatrix.from_dense(rng.standard_normal((m, n)))
        std = StandardFormLp(c=rng.standard_normal(n), a=a, b=np.ones(m))
        steps = StepSizes.for_matrix(a)
        if form == "standard":
            op = make_operator(std, steps)
        elif form == "general":
            gen = GeneralFormLp(
                c=std.c, a=a, b=std.b, l=np.zeros(n), u=np.full(n, np.inf)
            )
            op = GeneralFormOperator(gen, steps)
        else:
            v = np.zeros(n + m)
            op = ShiftedOperator(
                make_operator(std, steps), v, partition_indices(a, v[:n], v[n:])
            )
        assert op.storage == "dense"
        assert isinstance(op.k1, np.ndarray) and isinstance(op.k2, np.ndarray)
        assert op.k1.size + op.k2.size == 2 * m * n + n + m

    @pytest.mark.parametrize("n,storage", [(98, "fused"), (99, "dense")])
    def test_fused_blocks_fit_in_the_dense_limit(self, n, storage, rng):
        # At m = 1 the fused blocks hold n (n + 2) + (2 n + 2) entries:
        # 9998 at n = 98, 10199 at n = 99.
        m = 1
        a = SparseMatrix.from_dense(rng.standard_normal((m, n)))
        c = rng.standard_normal(n)
        p = GeneralFormLp(c=c, a=a, b=np.ones(m), l=np.zeros(n), u=np.full(n, np.inf))
        op = GeneralFormOperator(p, StepSizes.for_matrix(a))
        assert op.storage == storage
        if storage == "fused":
            assert op.k1.shape == (n, n + m + 1) and op.k2.shape == (m, 2 * n + m + 1)
            assert op.k1.size + op.k2.size == 9998 <= linalg.DENSE_LIMIT
        else:
            assert op.k1.size + op.k2.size == 2 * m * n + n + m

    @pytest.mark.parametrize("case", sorted(_NON_FINITE_CASES))
    @settings(max_examples=30, deadline=None)
    @given(
        side=st.sampled_from(["x", "y"]),
        index=st.integers(0, 10**6),
        value=st.sampled_from([np.nan, np.inf, -np.inf]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_non_finite_input_gives_non_finite_output(
        self, case, side, index, value, seed
    ):
        op = _NON_FINITE_CASES[case]
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal(op.n), rng.standard_normal(op.m)
        v = x if side == "x" else y
        v[index % v.size] = value
        with np.errstate(invalid="ignore", over="ignore"):
            x1, y1 = op.apply(x, y)
        assert not (np.isfinite(x1).all() and np.isfinite(y1).all())

    @given(st.integers(0, 2**31 - 1))
    def test_firm_nonexpansiveness_standard(self, seed):
        rng = np.random.default_rng(seed)
        p = demos.std_both_infeasible()
        op = make_operator(p, StepSizes.for_matrix(p.a))
        nrm = op.m_norm()
        z = rng.standard_normal(p.n + p.m) * 3.0
        w = rng.standard_normal(p.n + p.m) * 3.0
        tz, tw = op.apply_z(z), op.apply_z(w)
        d, rd = z - w, (z - tz) - (w - tw)
        lhs = nrm.sq(tz[: p.n] - tw[: p.n], tz[p.n :] - tw[p.n :])
        lhs += nrm.sq(rd[: p.n], rd[p.n :])
        rhs = nrm.sq(d[: p.n], d[p.n :])
        assert lhs <= rhs + 1e-9 * (1.0 + rhs)

    @given(st.integers(0, 2**31 - 1))
    def test_firm_nonexpansiveness_general(self, seed):
        rng = np.random.default_rng(seed)
        p = _random_general(np.random.default_rng(7))
        op = GeneralFormOperator(p, StepSizes.for_matrix(p.a))
        nrm = op.m_norm()
        z = rng.standard_normal(p.n + p.m) * 3.0
        w = rng.standard_normal(p.n + p.m) * 3.0
        tz, tw = op.apply_z(z), op.apply_z(w)
        d, rd = z - w, (z - tz) - (w - tw)
        lhs = nrm.sq(tz[: p.n] - tw[: p.n], tz[p.n :] - tw[p.n :])
        lhs += nrm.sq(rd[: p.n], rd[p.n :])
        rhs = nrm.sq(d[: p.n], d[p.n :])
        assert lhs <= rhs + 1e-9 * (1.0 + rhs)

    @given(st.integers(0, 2**31 - 1))
    def test_inclusion_residual_vanishes(self, seed):
        rng = np.random.default_rng(seed)
        std = demos.std_both_infeasible()
        ops = [
            make_operator(p, StepSizes.for_matrix(p.a))
            for p in (std, _random_general(np.random.default_rng(7)))
        ]
        # The shifted twin, with one coordinate in each of b, n1 and n2: its
        # step is the one of its clipped problem, moved by v.
        v = np.random.default_rng(11).standard_normal(std.n + std.m)
        part = IndexPartition(b=(0,), n1=(1,), n2=(2,), tol=0.0)
        twin = ShiftedOperator(ops[0], v, part)
        ops.append(twin)
        for op in ops:
            x = rng.standard_normal(op.n) * 2.0
            y = rng.standard_normal(op.m) * 2.0
            assert inclusion_residual(op, x, y) <= 1e-10

    def test_step_advances_sums(self, rng):
        p = demos.std_feasible()
        op = make_operator(p, StepSizes.for_matrix(p.a))
        s = PdhgState.initial(p.n, p.m)
        s.advance(op, 1)
        x1 = s.x
        s.advance(op, 1)
        assert s.k == 2
        np.testing.assert_array_equal(s.x_prev, x1)
        np.testing.assert_allclose(s.sum_x, x1 + s.x, atol=1e-15)


def _step(op, state):
    """One iteration returning a fresh state: the single-step routine that
    PdhgState.advance replaced, kept as its reference."""
    x1, y1 = op.apply(state.x, state.y)
    return PdhgState(
        k=state.k + 1,
        x=x1,
        y=y1,
        x_prev=state.x,
        y_prev=state.y,
        sum_x=state.sum_x + x1,
        sum_y=state.sum_y + y1,
    )


def _same_state(a, b):
    return a.k == b.k and all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("x", "y", "x_prev", "y_prev", "sum_x", "sum_y")
    )


def _one_by_one(m: int, n: int) -> StandardFormLp:
    """min x_0 : A x = b, x >= 0 on an m x n all-ones A."""
    a = SparseMatrix.from_dense(np.ones((m, n)))
    return StandardFormLp(c=np.eye(n)[0], a=a, b=np.ones(m))


# The sums are checked bitwise at m = 1 (std_feasible, std_dual_infeasible,
# a 1 x 3), at n = 1 (a 2 x 1 and a 1 x 1) and at general shapes.
_ADVANCE_CASES = (
    demos.std_both_infeasible,
    demos.std_feasible,
    demos.std_dual_infeasible,
    lambda: demos.example1(1, 2),
    lambda: demos.example1(0, 1),
    lambda: _one_by_one(1, 1),
    lambda: _one_by_one(2, 1),
    lambda: _one_by_one(1, 3),
    lambda: demos.random_cell_instance("both_feasible", np.random.default_rng(4)),
)


@pytest.mark.parametrize("build", _ADVANCE_CASES)
def test_advance_matches_single_steps(build, rng):
    # One block of advance, then three, the middle one full (pdhg._BLOCK).
    p = build()
    op = make_operator(p, StepSizes.for_matrix(p.a))
    x0, y0 = rng.standard_normal(p.n), rng.standard_normal(p.m)
    ref = PdhgState.initial(p.n, p.m, x0, y0)
    one = PdhgState.initial(p.n, p.m, x0, y0)
    many = PdhgState.initial(p.n, p.m, x0, y0)
    for _ in range(57):
        ref = _step(op, ref)
        one.advance(op, 1)
        assert _same_state(one, ref)
    many.advance(op, 57)
    assert _same_state(many, ref)
    many.advance(op, 0)
    assert _same_state(many, ref)
    for _ in range(2 * pdhg._BLOCK + 3):
        ref = _step(op, ref)
    many.advance(op, 2 * pdhg._BLOCK + 3)
    assert _same_state(many, ref)


@pytest.mark.parametrize(
    "setting,match",
    [
        ({"eps": np.inf}, "eps must be positive and finite"),
        ({"kkt_tol": np.inf}, "kkt_tol must be positive and finite"),
        ({"kkt_tol": -1e-8}, "kkt_tol must be positive and finite"),
        ({"step_factor": 1.0}, r"step factor must be in \(0, 1\)"),
        ({"step_factor": -0.5}, r"step factor must be in \(0, 1\)"),
    ],
)
def test_config_refuses_bad_settings_at_construction(setting, match):
    with pytest.raises(ValueError, match=match):
        PdhgConfig(**setting)


@pytest.mark.parametrize(
    "x0,y0,name",
    [
        (np.zeros(1), None, "x0"),
        (np.zeros(5), None, "x0"),
        (None, np.zeros(1), "y0"),
        (None, np.zeros((3, 1)), "y0"),
    ],
)
def test_warm_start_of_the_wrong_shape_is_rejected(x0, y0, name):
    # ex1 has n = m = 3; a length-one x0 would broadcast over x.
    p = demos.example1(0.0, 1.0)
    assert (p.n, p.m) == (3, 3)
    with pytest.raises(ValueError, match=name):
        run(p, x0=x0, y0=y0)


class TestKkt:
    def test_zero_at_hand_optimum(self):
        # (2, 0) with dual value -1 closes the gap: objectives match at 2.
        p = demos.std_feasible()
        res = kkt_residual(p, np.array([2.0, 0.0]), np.array([-1.0]))
        assert res.max <= 1e-12

    def test_detects_primal_violation(self):
        p = demos.std_feasible()
        res = kkt_residual(p, np.array([0.0, 0.0]), np.array([-1.0]))
        assert res.primal > 0.1

    def test_max_field(self):
        p = demos.std_feasible()
        res = kkt_residual(p, np.array([1.0, 0.0]), np.array([0.5]))
        assert res.max == max(res.primal, res.dual, res.gap)


class TestRunStatuses:
    def test_standard_demo_cells(self):
        expected = {
            demos.std_feasible: SolveStatus.OPTIMAL,
            demos.std_primal_infeasible: SolveStatus.PRIMAL_INFEASIBLE,
            demos.std_dual_infeasible: SolveStatus.DUAL_INFEASIBLE,
            demos.std_both_infeasible: SolveStatus.BOTH_INFEASIBLE,
        }
        for build, want in expected.items():
            out = run(build(), FAST)
            assert out.status is want, build.__name__

    @pytest.mark.parametrize(
        "params,want",
        [
            ((0.0, 1.0), SolveStatus.OPTIMAL),
            ((0.0, 2.0), SolveStatus.PRIMAL_INFEASIBLE),
            ((1.0, 1.0), SolveStatus.DUAL_INFEASIBLE),
            ((1.0, 2.0), SolveStatus.BOTH_INFEASIBLE),
        ],
    )
    def test_example1_cells(self, params, want):
        out = run(demos.example1(*params), FAST)
        assert out.status is want

    def test_optimal_matches_exact_value(self):
        out = run(demos.std_feasible(), FAST)
        assert out.status is SolveStatus.OPTIMAL
        assert out.primal_objective == pytest.approx(2.0, abs=1e-6)
        assert out.kkt.max <= FAST.kkt_tol

    def test_example1_objective(self):
        out = run(demos.example1(0.0, 1.0), FAST)
        assert out.primal_objective == pytest.approx(1.0, abs=1e-6)
        assert out.dual_objective == pytest.approx(1.0, abs=1e-6)

    def test_certificates_attached(self):
        out = run(demos.std_primal_infeasible(), FAST)
        assert out.primal_certificate is not None
        assert out.primal_certificate.passed
        assert out.dual_certificate is None

    def test_both_infeasible_not_one_sided(self):
        # Both sides certify: the verdict is not the side that certified
        # first.
        out = run(demos.std_both_infeasible(), FAST)
        assert out.status is SolveStatus.BOTH_INFEASIBLE
        assert out.primal_certificate.passed and out.dual_certificate.passed

    def test_optimal_outcome_carries_no_certificate(self):
        # x1 + x2 = 0.3 with x1 fixed at 0.1 and x2 at 0.2: the float images
        # miss the row by 2**-55, so the check that meets kkt_tol also passes
        # a primal certificate (y = -2.8e-17).  The OPTIMAL verdict drops it.
        p = GeneralFormLp(
            c=np.zeros(2),
            a=SparseMatrix.from_dense([[1.0, 1.0]]),
            b=np.array([0.3]),
            l=np.array([0.1, 0.2]),
            u=np.array([0.1, 0.2]),
            eq=np.array([True]),
        )
        out = run(p)
        assert out.status is SolveStatus.OPTIMAL
        assert out.termination is Termination.KKT and out.iterations == 40
        assert out.primal_certificate is None and out.dual_certificate is None
        # The check that ended the run did pass the certificate.
        assert any(
            t.k == 40 and t.obj_term > 0 and t.scaled_err <= PdhgConfig().eps
            for t in out.trace
        )

    @staticmethod
    def _no_feasible_point(monkeypatch):
        """Switch the feasible-point test off, so that a one-sided check goes
        on to the witness sub-solve, and record the outcome of every nested
        run."""
        # Switched off, not made strict: the dual iterate of
        # std_primal_infeasible is already dual feasible at the first check
        # (residual exactly 0, which any kkt_tol accepts).
        monkeypatch.setattr(pdhg, "_other_side_feasible", lambda *args: None)
        nested = []
        solve = pdhg.run

        def recorded(*args, **kwargs):
            nested.append(solve(*args, **kwargs))
            return nested[-1]

        monkeypatch.setattr(pdhg, "run", recorded)
        return nested

    def test_one_sided_verdict_with_no_steps_left(self, monkeypatch):
        # The certificate passes at the first check, which is also the last:
        # no sub-solve, and the verdict stands on the budget.
        nested = self._no_feasible_point(monkeypatch)
        p = demos.std_primal_infeasible()
        out = run(p, PdhgConfig(max_iters=40))
        assert not nested
        assert out.status is SolveStatus.PRIMAL_INFEASIBLE
        assert out.termination is Termination.BUDGET
        assert out.iterations == 40
        assert out.primal_certificate.passed and out.dual_certificate is None
        assert np.array_equal(out.x, out.state.x)
        assert np.array_equal(out.y, out.state.y)

    def test_budget_runs_out_inside_the_witness_sub_solve(self, monkeypatch):
        # The certificate passes at k=40 and the sub-solve gets the other 40
        # steps; kkt_tol=1e-300 keeps it from ending OPTIMAL.  The verdict
        # stands on the budget, with the sub-solve's iterate as x and y.
        nested = self._no_feasible_point(monkeypatch)
        p = demos.std_dual_infeasible()
        out = run(p, PdhgConfig(max_iters=80, kkt_tol=1e-300))
        assert len(nested) == 1
        sub = nested[0]
        assert sub.status is SolveStatus.ITERATION_LIMIT
        assert sub.termination is Termination.BUDGET and sub.iterations == 40
        assert out.status is SolveStatus.DUAL_INFEASIBLE
        assert out.termination is Termination.BUDGET
        assert out.iterations == 80
        assert out.dual_certificate.k == 40 and out.primal_certificate is None
        assert np.array_equal(out.x, sub.state.x)
        assert np.array_equal(out.y, sub.state.y)
        assert out.state.k == 40
        assert out.kkt.max == kkt_residual(p, out.x, out.y).max

    def test_iteration_limit_status(self):
        cfg = PdhgConfig(max_iters=10, eps=1e-14, kkt_tol=1e-14)
        out = run(demos.std_feasible(), cfg)
        assert out.status is SolveStatus.ITERATION_LIMIT
        assert out.iterations == 10

    def test_divergence_guard(self, monkeypatch):
        monkeypatch.setattr(pdhg, "_DIVERGENCE_LIMIT", 0.5)
        cfg = PdhgConfig(max_iters=1000, check_interval=1)
        out = run(demos.std_dual_infeasible(), cfg)
        assert out.status is SolveStatus.NUMERICAL_ERROR
        assert out.termination is Termination.DIVERGENCE

    @pytest.mark.parametrize(
        "build,cfg,status,rule",
        [
            (demos.std_feasible, PdhgConfig(), "optimal", Termination.KKT),
            (demos.example1, PdhgConfig(), "optimal", Termination.POLISH),
            (
                demos.std_both_infeasible,
                PdhgConfig(),
                "both_infeasible",
                Termination.BOTH_CERTIFICATES,
            ),
            (
                demos.std_primal_infeasible,
                PdhgConfig(),
                "primal_infeasible",
                Termination.OTHER_SIDE_FEASIBLE,
            ),
            # A draw whose feasible side has no point the ray move finds at
            # this step size: the sub-solve on its c = 0 problem gives one.
            (
                lambda: demos.random_cell_instance(
                    "dual_infeasible", np.random.default_rng([4, 29])
                ),
                PdhgConfig(step_factor=0.5),
                "dual_infeasible",
                Termination.WITNESS_SOLVE,
            ),
            (
                demos.std_feasible,
                PdhgConfig(max_iters=10, eps=1e-14, kkt_tol=1e-14),
                "iteration_limit",
                Termination.BUDGET,
            ),
        ],
        ids=lambda v: v.value if isinstance(v, Termination) else None,
    )
    def test_termination_names_the_rule(self, build, cfg, status, rule):
        out = run(build(), cfg)
        assert out.status.value == status
        assert out.termination is rule

    def test_invalid_problem_rejected(self):
        p = demos.std_feasible()
        p = dataclasses.replace(p, c=np.array([np.nan, *p.c[1:]]))
        with pytest.raises(ValueError):
            run(p)

    def test_warm_start_accepted(self):
        p = demos.std_feasible()
        ref = run(p, FAST)
        out = run(p, FAST, x0=ref.x, y0=ref.y)
        assert out.status is SolveStatus.OPTIMAL
        assert out.iterations <= ref.iterations


class TestTrace:
    def test_rows_per_check(self, no_verdict):
        # ex1(0,1)'s polish reaches KKT exactly 0 at k=40, which any
        # tolerance accepts; no_verdict fails every test, so the run makes
        # all five checks.
        cfg = PdhgConfig(max_iters=100, check_interval=20)
        out = run(demos.example1(0.0, 1.0), cfg)
        ks = [t.k for t in out.trace]
        assert ks == sorted(ks)
        assert set(ks) == {20, 40, 60, 80, 100}
        for k in set(ks):
            seqs = [t.seq for t in out.trace if t.k == k]
            assert seqs[:3] == ["difference", "normalized_iterate", "normalized_average"]
            # A support row only at a check that ran a projection.
            assert seqs[3:] in ([], ["support"])

    def test_ms_nondecreasing_and_kkt_repeated(self):
        cfg = PdhgConfig(max_iters=120, eps=1e-16, kkt_tol=1e-16, check_interval=40)
        out = run(demos.std_feasible(), cfg)
        ms = [t.ms for t in out.trace]
        assert all(b >= a for a, b in zip(ms, ms[1:]))
        for k in {t.k for t in out.trace}:
            vals = {t.kkt for t in out.trace if t.k == k}
            assert len(vals) == 1
