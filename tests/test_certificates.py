import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdhglp import demos
from pdhglp.certificates import (
    CandidateKind,
    CertificateCandidate,
    StateProducts,
    check_dual_infeasibility,
    check_primal_infeasibility,
    check_standard_farkas,
    extract,
)
from pdhglp.linalg import SparseMatrix
from pdhglp.model import GeneralFormLp
from pdhglp.pdhg import PdhgState, dual_objective


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


def _cand(y, kind=CandidateKind.DIFFERENCE, x=None, r=None, k=1):
    y = np.asarray(y, dtype=float)
    x = np.zeros(0) if x is None else np.asarray(x, dtype=float)
    return CertificateCandidate(kind=kind, k=k, x_part=x, y_part=y, r_part=r)


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

    def test_reduced_costs_attached_only_for_general_form(self):
        p = demos.example1(0.0, 2.0)
        st3 = PdhgState(
            k=1,
            x=np.zeros(3),
            y=np.array([2.0, 1.0, 5.0]),
            x_prev=np.zeros(3),
            y_prev=np.zeros(3),
            sum_x=np.zeros(3),
            sum_y=np.array([2.0, 1.0, 5.0]),
        )
        with_r = extract(st3, CandidateKind.NORMALIZED_ITERATE, p)
        without = extract(st3, CandidateKind.NORMALIZED_ITERATE)
        assert with_r.r_part is not None
        assert without.r_part is None
        # all variables free: the sign clip zeroes every reduced cost
        np.testing.assert_array_equal(with_r.r_part, np.zeros(3))


class TestPrimalInfeasibilityCheck:
    def test_hand_certificate_passes(self):
        p = demos.example1(0.0, 2.0)
        cand = _cand([2.0, 1.0, 5.0], r=np.zeros(3))
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
        products = StateProducts(mat(state.x), rmat(state.y), mat, rmat)
        cached = extract(state, CandidateKind.NORMALIZED_ITERATE, p, products)
        bare = _cand(cached.y_part, cached.kind, cached.x_part, cached.r_part)
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
        assert "objective does not decrease along the ray" in rep.reasons

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
    def test_primal_side(self):
        p = demos.std_primal_infeasible()
        prim, _ = check_standard_farkas(_cand([1.0], x=np.zeros(2)), p, 1e-8)
        assert prim.passed
        assert prim.objective_term == pytest.approx(1.0)

    def test_primal_side_flipped_fails(self):
        p = demos.std_primal_infeasible()
        prim, _ = check_standard_farkas(_cand([-1.0], x=np.zeros(2)), p, 1e-8)
        assert not prim.passed
        assert "b'y is not negative" in prim.reasons

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
        masks = p.kind_masks()
        y = np.abs(rng.standard_normal(p.m))
        # Unclipped reduced costs, so the sign reasons can fire too.
        r = rng.standard_normal(p.n) * (rng.random(p.n) < 0.7)
        rep = check_primal_infeasibility(_cand(y, r=r), p, 1e-8, masks)

        fin_l, fin_u = np.isfinite(p.l), np.isfinite(p.u)
        r_pos, r_neg = np.maximum(r, 0.0), np.maximum(-r, 0.0)
        obj = float(p.b @ y)
        obj += float(p.l[fin_l] @ r_pos[fin_l])
        obj -= float(p.u[fin_u] @ r_neg[fin_u])
        assert rep.objective_term == obj
        no_l = "positive reduced cost on a variable with no lower bound"
        no_u = "negative reduced cost on a variable with no upper bound"
        assert (no_l in rep.reasons) == bool((r_pos[~fin_l] > 0.0).any())
        assert (no_u in rep.reasons) == bool((r_neg[~fin_u] > 0.0).any())

        want = float(p.b @ y)
        want += float(p.l[fin_l] @ np.maximum(r[fin_l], 0.0))
        want -= float(p.u[fin_u] @ np.maximum(-r[fin_u], 0.0))
        want += p.objective_offset
        assert dual_objective(p, y, r, masks) == want
        assert dual_objective(p, y, r) == want
