import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdhglp import demos
from pdhglp.identify import Trajectory, fit_rate
from pdhglp.linalg import StepSizes
from pdhglp.pdhg import make_operator

from helpers import (
    FixedPointOperator,
    creeper_epsilon_point,
    creeper_operator,
    estimate_v,
    from_lp_operator,
    identity_operator,
    iterate,
    rotation_operator,
    translation_operator,
)


class TestTrajectory:
    def test_derived_sequences_match_hand_values(self):
        pts = np.array([[0.0], [1.0], [3.0], [6.0]])
        t = Trajectory(pts)
        assert t.k == 3
        np.testing.assert_array_equal(t.differences(), [[1.0], [2.0], [3.0]])
        np.testing.assert_allclose(t.normalized_iterates(), [[1.0], [1.5], [2.0]])
        # 2/(k(k+1)) * cumsum: k=1 -> 1, k=2 -> 2*4/6, k=3 -> 2*10/12
        np.testing.assert_allclose(
            t.normalized_averages(), [[1.0], [4.0 / 3.0], [5.0 / 3.0]]
        )

    def test_iterate_records_all_points(self):
        t = iterate(translation_operator([2.0, 0.0]), [0.0, 1.0], 5)
        assert t.points.shape == (6, 2)
        np.testing.assert_array_equal(t.points[-1], [10.0, 1.0])

    def test_iterate_rejects_bad_start(self):
        with pytest.raises(ValueError):
            iterate(identity_operator(2), [1.0], 3)
        with pytest.raises(ValueError):
            iterate(identity_operator(2), [1.0, 2.0], 0)

    def test_iterate_overflow_guard(self):
        doubler = FixedPointOperator(dim=1, apply=lambda z: 2.0 * z)
        with pytest.raises(OverflowError):
            iterate(doubler, [1.0], 2000)


class TestRotation:
    """An isometry that is not firmly nonexpansive: the difference sequence
    must fail while the normalized iterate still finds v = 0."""

    def test_orbit_has_period_four(self):
        t = iterate(rotation_operator(), [1.0, 0.0], 8)
        np.testing.assert_allclose(t.points[4], t.points[0], atol=1e-15)
        np.testing.assert_allclose(t.points[8], t.points[4], atol=1e-15)

    def test_differences_never_settle(self):
        t = iterate(rotation_operator(), [1.0, 0.0], 1000)
        d = t.differences()
        gaps = np.linalg.norm(d[1:] - d[:-1], axis=1)
        # consecutive differences stay sqrt(2)*|z| apart forever
        assert np.min(gaps[-100:]) > 1.0

    def test_normalized_iterate_obeys_sublinear_envelope(self):
        t = iterate(rotation_operator(), [1.0, 0.0], 1000)
        vs = t.normalized_iterates()
        ks = np.arange(1, 1001)
        # v = 0 and z_star = 0 is a fixed point: ||z^k/k|| <= 2||z^0||/k
        assert np.all(np.linalg.norm(vs, axis=1) <= 2.0 / ks + 1e-15)

    def test_estimator_disagreement_is_flagged(self):
        est = estimate_v(rotation_operator(), [1.0, 0.0], 1000)
        assert est.flagged
        assert np.linalg.norm(est.normalized_iterate) < 2e-3


class TestAlternatingCounterexample:
    """z^k = (-1)^k k^(3/2) e: z^k / k diverges, yet the running average
    stays bounded, so neither sequence alone is a safe default."""

    @staticmethod
    def _points(k_max):
        ks = np.arange(k_max + 1, dtype=np.float64)
        return (((-1.0) ** ks) * ks**1.5)[:, None]

    def test_normalized_iterate_diverges(self):
        t = Trajectory(self._points(4000))
        norms = np.linalg.norm(t.normalized_iterates(), axis=1)
        assert norms[-1] > 60.0
        assert norms[-1] > 10.0 * norms[39]

    def test_normalized_average_stays_bounded(self):
        t = Trajectory(self._points(4000))
        norms = np.linalg.norm(t.normalized_averages(), axis=1)
        # pairwise cancellation keeps the averages O(k^{1/2}/k) ~ o(1)... not
        # quite: the alternating sum of j^{3/2} grows like k^{3/2}/2, so the
        # average ~ k^{3/2}/(k(k+1)) -> 0 while the iterate ~ k^{1/2} -> inf.
        assert norms[-1] < 0.1
        assert norms[-1] < norms[99]


class TestCreeper:
    def test_epsilon_point_closed_form(self):
        for eps in (1e-2, 1e-6, 1e-10):
            z = creeper_epsilon_point(eps)
            # displacement at z is 1 + exp(-z^2) = 1 + eps exactly
            assert math.exp(-z * z) == pytest.approx(eps, rel=1e-12)
        with pytest.raises(ValueError):
            creeper_epsilon_point(2.0)

    def test_epsilon_point_grows_like_sqrt_log(self):
        zs = [creeper_epsilon_point(10.0**-p) for p in range(2, 12)]
        assert all(b > a for a, b in zip(zs, zs[1:]))
        ratio = zs[-1] / math.sqrt(math.log(10.0**11))
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_displacement_error_decays_with_sqrt_log_exponent(self):
        # error e_k = T(z^k) - z^k - 1 = exp(-(z^k)^2); since z^k ~ k the
        # decay is superpolynomial, but the *height* needed for accuracy eps
        # follows the closed form; fit height vs log(1/eps) on a log-log
        # scale and expect exponent 1/2.
        eps = np.logspace(-2, -12, 30)
        heights = np.array([creeper_epsilon_point(e) for e in eps])
        fit = fit_rate(list(zip(np.log(1.0 / eps), heights)), model="power", k_min=0)
        assert fit.slope == pytest.approx(0.5, abs=0.1)

    def test_iteration_moves_away(self):
        t = iterate(creeper_operator(), [0.0], 500)
        d = t.differences()[:, 0]
        # displacement 1 + exp(-z^2) underflows to 1.0 (up to addition
        # rounding at height ~500) once z passes ~27
        assert np.all(d >= 1.0 - 1e-12)
        assert d[1] > 1.0
        assert d[-1] < d[1]
        assert t.points[-1, 0] > 500.0


class TestEstimateV:
    def test_translation_from_ray_start_is_clean(self):
        est = estimate_v(translation_operator([0.5, -0.25]), [0.0, 0.0], 400)
        np.testing.assert_allclose(est.difference_tail, [0.5, -0.25], atol=1e-12)
        np.testing.assert_allclose(est.normalized_iterate, [0.5, -0.25], atol=1e-12)
        assert not est.flagged

    def test_translation_off_ray_start_flags_the_transient(self):
        # z^K/K carries a z^0/K term, so a short budget from a far start
        # must trip the disagreement flag even though the tail is exact.
        est = estimate_v(translation_operator([0.5, -0.25]), [300.0, 400.0], 400)
        np.testing.assert_allclose(est.difference_tail, [0.5, -0.25], atol=1e-12)
        assert est.flagged
        transient = np.linalg.norm([300.0, 400.0]) / 400.0
        scale = 1.0 + np.linalg.norm(est.normalized_iterate)
        assert est.disagreement == pytest.approx(transient / scale, rel=1e-9)

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            estimate_v(identity_operator(1), [0.0], 50)

    def test_lp_operator_wrap(self):
        p = demos.std_both_infeasible()
        steps = StepSizes.for_matrix(p.a)
        op = make_operator(p, steps)
        est = estimate_v(from_lp_operator(op), np.zeros(p.n + p.m), 2000)
        # the difference tail settles geometrically on the displacement,
        # eta (1/2, 1/2, 0) on x and tau (0, 1) on y
        v = [steps.eta / 2, steps.eta / 2, 0.0, 0.0, steps.tau]
        np.testing.assert_allclose(est.difference_tail, v, atol=1e-9)
        # the normalized iterate still carries its O(1/k) transient, which
        # the disagreement flag reports at this budget
        assert est.disagreement < 1e-3
        assert np.max(np.abs(est.normalized_iterate[: p.n])) > 1e-3
        assert np.max(np.abs(est.normalized_iterate[p.n :])) > 1e-3


class TestFitRate:
    @given(
        st.floats(min_value=-2.5, max_value=-0.3),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_recovers_power_law(self, slope, scale):
        ks = np.arange(1, 400)
        samples = [(float(k), scale * float(k) ** slope) for k in ks]
        fit = fit_rate(samples, model="power")
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.r_squared > 0.999999

    @given(st.floats(min_value=0.5, max_value=0.99))
    def test_recovers_geometric_rate(self, rate):
        ks = np.arange(1, 300)
        samples = [(float(k), 5.0 * rate ** float(k)) for k in ks]
        fit = fit_rate(samples, model="geometric", k_min=10)
        assert fit.rate == pytest.approx(rate, rel=1e-9)

    def test_drops_warmup_and_nonpositive(self):
        samples = [(k, 1.0 / k) for k in range(1, 200)] + [(250, 0.0), (251, -1.0)]
        fit = fit_rate(samples, k_min=100)
        assert fit.n_dropped == 2
        assert fit.n_used == 100  # k = 100..199 survive the warm-up cut

    def test_insufficient_data_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([(k, 1.0) for k in range(10)], k_min=0)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([(k, 1.0) for k in range(1, 100)], model="cubic")


class TestDisplacementBounds:
    def test_translation_bounds_hold(self, scripts):
        displacement_bound_gap = scripts("rate_study").displacement_bound_gap
        v = np.array([1.0, -2.0])
        t = iterate(translation_operator(v), [5.0, 5.0], 300)
        # any point is a "fixed point" of the shifted map; the natural
        # anchor for a pure translation is the start itself
        gap_it, gap_avg = displacement_bound_gap(t, v, t.points[0])
        assert gap_it <= 1e-12
        assert gap_avg <= 1e-12

    def test_rotation_bounds_hold_with_origin_anchor(self, scripts):
        displacement_bound_gap = scripts("rate_study").displacement_bound_gap
        t = iterate(rotation_operator(), [1.0, 0.0], 500)
        gap_it, gap_avg = displacement_bound_gap(
            t, np.zeros(2), np.zeros(2)
        )
        assert gap_it <= 1e-12
        assert gap_avg <= 1e-12
