import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdhglp import demos
from pdhglp.certificates import (
    CandidateKind,
    CertificateCandidate,
    check_dual_infeasibility,
    check_primal_infeasibility,
    check_standard_farkas,
    extract,
)
from pdhglp.linalg import SparseMatrix
from pdhglp.model import GeneralFormLp, clip_to_dual_signs, standard_to_general
from pdhglp.pdhg import PdhgState, run


def _state():
    # k = 3 with transparent numbers so each sequence is hand-checkable.
    return PdhgState(
        k=3,
        x=np.array([6.0, -3.0]),
        y=np.array([9.0]),
        x_prev=np.array([4.0, -2.0]),
        y_prev=np.array([6.0]),
        sum_x=np.array([12.0, -6.0]),
        sum_y=np.array([18.0]),
    )


def _cand(y, kind=CandidateKind.DIFFERENCE, x=None, k=1):
    y = np.asarray(y, dtype=float)
    x = np.zeros(0) if x is None else np.asarray(x, dtype=float)
    return CertificateCandidate(kind=kind, k=k, x_part=x, y_part=y)


class TestExtract:
    def test_difference(self):
        cand = extract(_state(), CandidateKind.DIFFERENCE)
        np.testing.assert_array_equal(cand.x_part, [2.0, -1.0])
        np.testing.assert_array_equal(cand.y_part, [3.0])

    def test_normalized_iterate(self):
        cand = extract(_state(), CandidateKind.NORMALIZED_ITERATE)
        np.testing.assert_allclose(cand.x_part, [2.0, -1.0])
        np.testing.assert_allclose(cand.y_part, [3.0])

    def test_normalized_average(self):
        cand = extract(_state(), CandidateKind.NORMALIZED_AVERAGE)
        # 2 * sum / (k (k+1)) = sum / 6
        np.testing.assert_allclose(cand.x_part, [2.0, -1.0])
        np.testing.assert_allclose(cand.y_part, [3.0])

    def test_before_first_iteration_rejected(self):
        state = PdhgState.initial(2, 1)
        with pytest.raises(ValueError):
            extract(state, CandidateKind.DIFFERENCE)



class TestPrimalInfeasibilityCheck:
    def test_reduced_costs_follow_the_bound_kinds(self):
        p = dataclasses.replace(
            demos.example1(0.0, 2.0),
            l=np.array([0.0, -np.inf, -1.0]),
            u=np.array([np.inf, 2.0, 1.0]),
        )
        y = np.array([1.0, 2.0, 3.0])
        rep = check_primal_infeasibility(_cand(y), p, 1e-8)
        # -A'y = (4, 1, 0); the upper-only column's positive entry is clipped.
        want = clip_to_dual_signs(-p.a.rmatvec(y), p.masks)
        np.testing.assert_array_equal(want, [4.0, 0.0, 0.0])
        np.testing.assert_array_equal(rep.r, want)
        # ex1's variables are free: the sign clip zeroes every reduced cost.
        free = check_primal_infeasibility(_cand(y), demos.example1(0.0, 2.0), 1e-8)
        np.testing.assert_array_equal(free.r, np.zeros(3))
        # A standard-form problem is tested as its lowering (-A, -b, x >= 0):
        # y keeps the iteration's sign and r is max(A'y, 0), here A'y = (1, 1).
        std = demos.std_primal_infeasible()
        rep = check_primal_infeasibility(_cand([1.0]), std, 1e-8)
        np.testing.assert_array_equal(rep.r, [1.0, 1.0])

    def test_hand_certificate_passes(self):
        p = demos.example1(0.0, 2.0)
        cand = _cand([2.0, 1.0, 5.0])
        rep = check_primal_infeasibility(cand, p, eps=1e-8)
        assert rep.passed
        assert rep.objective_term == pytest.approx(4.0)
        assert rep.scaled_error == pytest.approx(0.0)
        assert rep.side == "primal"

    def test_negative_dual_rejected(self):
        p = demos.example1(0.0, 2.0)
        rep = check_primal_infeasibility(_cand([-2.0, -1.0, -5.0]), p, 1e-8)
        assert not rep.passed
        assert any("negative" in s for s in rep.reasons)

    def test_dust_is_clipped(self):
        p = demos.example1(0.0, 2.0)
        y = np.array([2.0, 1.0, 5.0])
        y[0] = -1e-14  # dust far below the relative clip threshold
        rep = check_primal_infeasibility(_cand(y), p, 1e-6)
        assert not any("negative" in s for s in rep.reasons)
        assert rep.vector[0] == 0.0

    def test_dust_ignores_carried_product(self):
        # The carried A'y belongs to the unclipped y; once the clip zeroes
        # dust the test must use the product of the clipped vector.
        p = demos.example1(0.0, 2.0)
        y = np.array([-1e-14, 1.0, 5.0])
        state = PdhgState(
            k=1,
            x=np.zeros(3),
            y=y,
            x_prev=np.zeros(3),
            y_prev=np.zeros(3),
            sum_x=np.zeros(3),
            sum_y=y.copy(),
        )
        mat, rmat = p.a.matvec, p.a.rmatvec
        kind = CandidateKind.NORMALIZED_ITERATE
        cached = extract(state, kind, mat(state.x), rmat(state.y))
        bare = _cand(cached.y_part, cached.kind, cached.x_part)
        assert not np.array_equal(cached.aty, rmat(np.array([0.0, 1.0, 5.0])))
        got = check_primal_infeasibility(cached, p, 1e-8)
        want = check_primal_infeasibility(bare, p, 1e-8)
        assert got.vector[0] == 0.0
        assert got.scaled_error == want.scaled_error
        assert got.objective_term == want.objective_term
        assert got.reasons == want.reasons

    def test_zero_candidate(self):
        p = demos.example1(0.0, 2.0)
        rep = check_primal_infeasibility(_cand(np.zeros(3)), p, 1e-8)
        assert not rep.passed
        assert rep.reasons == ("zero candidate",)
        assert rep.scaled_error is None

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scaled_error_is_scale_invariant(self, t):
        p = demos.example1(0.0, 2.0)
        y = np.array([2.0, 1.1, 5.0])  # slightly off: nonzero residual
        one = check_primal_infeasibility(_cand(y), p, 1e-8)
        two = check_primal_infeasibility(_cand(t * y), p, 1e-8)
        assert one.scaled_error is not None
        assert two.scaled_error == pytest.approx(one.scaled_error, rel=1e-9)


class TestDualInfeasibilityCheck:
    def test_hand_ray_passes(self):
        # Third variable is free with cost -1: unit ray certifies.
        p = demos.example1(1.0, 1.0)
        cand = _cand([], x=[0.0, 0.0, 1.0])
        rep = check_dual_infeasibility(cand, p, 1e-8)
        assert rep.passed
        assert rep.objective_term == pytest.approx(1.0)
        assert rep.scaled_error == pytest.approx(0.0)

    def test_wrong_direction_rejected(self):
        p = demos.example1(1.0, 1.0)
        rep = check_dual_infeasibility(_cand([], x=[0.0, 0.0, -1.0]), p, 1e-8)
        assert not rep.passed
        assert "certificate objective is not positive" in rep.reasons

    def test_zero_candidate(self):
        p = demos.example1(1.0, 1.0)
        rep = check_dual_infeasibility(_cand([], x=np.zeros(3)), p, 1e-8)
        assert rep.reasons == ("zero candidate",)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, t):
        p = demos.example1(1.0, 1.0)
        d = np.array([0.05, -0.02, 1.0])
        one = check_dual_infeasibility(_cand([], x=d), p, 1e-8)
        two = check_dual_infeasibility(_cand([], x=t * d), p, 1e-8)
        assert one.scaled_error == pytest.approx(two.scaled_error, rel=1e-9)


class TestStandardFarkas:
    """check_standard_farkas returns the two tests of a standard-form
    candidate as (primal, dual)."""

    def test_primal_side(self):
        p = demos.std_primal_infeasible()
        prim, _ = check_standard_farkas(_cand([1.0], x=np.zeros(2)), p, 1e-8)
        assert prim.passed
        assert prim.objective_term == pytest.approx(1.0)

    def test_primal_side_flipped_fails(self):
        p = demos.std_primal_infeasible()
        prim, _ = check_standard_farkas(_cand([-1.0], x=np.zeros(2)), p, 1e-8)
        assert not prim.passed
        assert "certificate objective is not positive" in prim.reasons

    def test_dual_side(self):
        p = demos.std_dual_infeasible()
        _, dual = check_standard_farkas(_cand([0.0], x=[1.0, 1.0]), p, 1e-8)
        assert dual.passed
        assert dual.objective_term == pytest.approx(1.0)

    def test_dual_side_infeasible_direction_fails(self):
        p = demos.std_dual_infeasible()
        # c'x < 0 but Ax != 0: residual does not pass a tight eps
        _, dual = check_standard_farkas(_cand([0.0], x=[1.0, 0.0]), p, 1e-8)
        assert not dual.passed

    def test_zero_candidates(self):
        p = demos.std_primal_infeasible()
        prim, dual = check_standard_farkas(_cand([0.0], x=np.zeros(2)), p, 1e-8)
        assert prim.reasons == ("zero candidate",)
        assert dual.reasons == ("zero candidate",)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, t):
        p = demos.std_both_infeasible()
        y = np.array([0.3, 1.0])
        x = np.array([0.5, 0.5, 0.1])
        a, b = check_standard_farkas(_cand(y, x=x), p, 1e-8)
        c, d = check_standard_farkas(_cand(t * y, x=t * x), p, 1e-8)
        assert a.scaled_error == pytest.approx(c.scaled_error, rel=1e-9)
        assert b.scaled_error == pytest.approx(d.scaled_error, rel=1e-9)


class TestOneScaleForBothForms:
    """A candidate has the same scaled error in a standard-form problem as
    in its standard_to_general copy, whose rows are A x >= b and
    -A x >= -b: the dual vector y becomes (max(-y, 0), max(y, 0)), the
    direction d stays as it is."""

    def test_same_scaled_error_in_both_forms(self):
        p = demos.random_cell_instance("both_infeasible", np.random.default_rng([7, 1]))
        g = standard_to_general(p)
        out = run(p)
        rng = np.random.default_rng(0)
        # Moved off the exact certificates, so that the residuals are not 0.
        y = out.primal_certificate.vector + 0.05 * rng.uniform(-1.0, 1.0, p.m)
        d = out.dual_certificate.vector + 0.05 * rng.uniform(-1.0, 1.0, p.n)
        # The objectives differ from the sup norms, so a form that divided
        # by ||y||_inf or ||d||_inf would give another scaled error.
        assert -float(p.b @ y) > 10.0 * np.abs(y).max()
        assert abs(-float(p.c @ d) - np.abs(d).max()) > 0.01
        y_g = np.concatenate([np.maximum(-y, 0.0), np.maximum(y, 0.0)])
        std_primal, std_dual = check_standard_farkas(_cand(y, x=d), p, 1e-8)
        pairs = [
            (std_primal, check_primal_infeasibility(_cand(y_g), g, 1e-8)),
            (std_dual, check_dual_infeasibility(_cand([], x=d), g, 1e-8)),
        ]
        for std, gen in pairs:
            assert std.scaled_error > 0.0
            assert gen.objective_term == pytest.approx(std.objective_term, rel=1e-12)
            assert gen.scaled_error == pytest.approx(std.scaled_error, rel=1e-12)


class TestFiniteBoundGathers:
    """KindMasks caches the finite-bound index gathers; the sums over them
    must equal the boolean-mask expressions they replace, to the bit."""

    @staticmethod
    def _problem(rng, n=9, m=4):
        lo = rng.standard_normal(n)
        kind = rng.integers(0, 4, size=n)  # boxed, lower, upper, free
        l = np.where((kind == 0) | (kind == 1), lo, -np.inf)
        u = np.where((kind == 0) | (kind == 2), lo + rng.random(n), np.inf)
        a = SparseMatrix.from_dense(rng.standard_normal((m, n)))
        return GeneralFormLp(rng.standard_normal(n), a, rng.standard_normal(m), l, u)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_primal_test_and_dual_objective_match_mask_expressions(self, seed):
        rng = np.random.default_rng(seed)
        p = self._problem(rng)
        masks = p.masks
        y = np.abs(rng.standard_normal(p.m))
        r = clip_to_dual_signs(-p.a.rmatvec(y), masks)
        rep = check_primal_infeasibility(_cand(y), p, 1e-8)

        fin_l, fin_u = np.isfinite(p.l), np.isfinite(p.u)
        r_pos, r_neg = np.maximum(r, 0.0), np.maximum(-r, 0.0)
        obj = float(p.b @ y)
        obj += float(p.l[fin_l] @ r_pos[fin_l])
        obj -= float(p.u[fin_u] @ r_neg[fin_u])
        assert rep.objective_term == obj

        want = float(p.b @ y)
        want += float(p.l[fin_l] @ np.maximum(r[fin_l], 0.0))
        want -= float(p.u[fin_u] @ np.maximum(-r[fin_u], 0.0))
        want += p.objective_offset
        assert p.dual_value(y, r) + p.objective_offset == want
