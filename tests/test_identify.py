import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from pdhglp import demos, linalg
from pdhglp.exact import verify_certificate_exact
from pdhglp.identify import (
    AffinePhase,
    FreezeReport,
    ShiftedOperator,
    active_history,
    active_set,
    affine_phase,
    build_auxiliary,
    freeze_detector,
    partition_indices,
    refine_ray,
    shift_identity_residual,
    verify_rate_regimes,
)
from pdhglp.linalg import SparseMatrix, StepSizes, Support
from pdhglp.model import StandardFormLp, to_standard_form
from pdhglp.pdhg import make_operator

from helpers import block_copies


def _v_both(steps: StepSizes) -> np.ndarray:
    """The displacement of the both-infeasible desk instance at steps,
    (eta d, tau w): d = (1/2, 1/2, 0) is the cost's descent direction
    -P_null(A) c, and w = (0, 1) the gap of the hopeless row x2 = -1.  An
    independent long run of the raw iteration agrees (difference tail at
    k = 2000)."""
    return np.concatenate([steps.eta * np.array([0.5, 0.5, 0.0]), [0.0, steps.tau]])


V_BOTH = _v_both(StepSizes.for_matrix(demos.std_both_infeasible().a))


def _setup(p):
    return p, make_operator(p, StepSizes.for_matrix(p.a))


def _trajectory(op, k, z0=None):
    z0 = np.zeros(op.n + op.m) if z0 is None else z0
    return op.trajectory(z0, k)


@pytest.fixture(scope="module")
def refined_both():
    p, op = _setup(demos.std_both_infeasible())
    pts = _trajectory(op, 2000)
    return p, op, refine_ray(op, pts)


class TestOperatorInput:
    """Every entry point takes make_operator of a standard-form problem, a
    StandardFormOperator (the other tests pass one), and refuses any other
    operator by type."""

    CALLS = {
        "refine_ray": lambda op, part: refine_ray(op, np.zeros(5)),
        "affine_phase": lambda op, part: affine_phase(op, (0, 1)),
        "shift_identity_residual": lambda op, part: shift_identity_residual(
            op, V_BOTH, part, np.zeros((2, 5))
        ),
        "ShiftedOperator": lambda op, part: ShiftedOperator(op, V_BOTH, part),
        "build_auxiliary": lambda op, part: build_auxiliary(op, V_BOTH, part),
        "build_auxiliary-no-partition": lambda op, part: build_auxiliary(op, V_BOTH),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("other", ["general-form", "twin"])
    def test_other_operators_raise_type_error(self, other, name):
        p, op = _setup(demos.std_both_infeasible())
        part = partition_indices(p.a, V_BOTH[:3], V_BOTH[3:])
        if other == "twin":
            bad = ShiftedOperator(op, V_BOTH, part)
        else:
            gen = demos.example1(1, 2)
            bad = make_operator(gen, StepSizes.for_matrix(gen.a))
        with pytest.raises(TypeError, match="standard-form"):
            self.CALLS[name](bad, part)


class TestPartition:
    def test_hand_partition(self):
        p = demos.std_both_infeasible()
        part = partition_indices(p.a, V_BOTH[:3], V_BOTH[3:])
        assert part.b == (0, 1)
        assert part.n2 == (2,)
        assert part.n1 == ()

    def test_huge_tol_sends_everything_to_n1(self):
        p = demos.std_both_infeasible()
        part = partition_indices(p.a, V_BOTH[:3], V_BOTH[3:], tol=10.0)
        assert part.n1 == (0, 1, 2)

    def test_masks_cover_exactly(self):
        p = demos.std_both_infeasible()
        part = partition_indices(p.a, V_BOTH[:3], V_BOTH[3:])
        mb, m1, m2 = part.masks(3)
        total = mb.astype(int) + m1.astype(int) + m2.astype(int)
        np.testing.assert_array_equal(total, np.ones(3, dtype=int))

    def test_zero_displacement_is_all_n1(self):
        p = demos.std_feasible()
        part = partition_indices(p.a, np.zeros(p.n), np.zeros(p.m))
        assert part.b == () and part.n2 == ()
        assert part.n1 == tuple(range(p.n))


class TestShiftedOperator:
    @given(st.integers(0, 2**31 - 1))
    def test_firmly_nonexpansive_in_step_norm(self, seed):
        p, op = _setup(demos.std_both_infeasible())
        part = partition_indices(p.a, V_BOTH[:3], V_BOTH[3:])
        shifted = ShiftedOperator(op, V_BOTH, part)
        nrm = shifted.m_norm()
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(5) * 4.0
        w = rng.standard_normal(5) * 4.0
        tz, tw = shifted.apply_z(z), shifted.apply_z(w)
        d, rd = z - w, (z - tz) - (w - tw)
        lhs = nrm.sq(tz[:3] - tw[:3], tz[3:] - tw[3:]) + nrm.sq(rd[:3], rd[3:])
        rhs = nrm.sq(d[:3], d[3:])
        assert lhs <= rhs + 1e-9 * (1.0 + rhs)

    def test_anchor_is_fixed_point(self, refined_both):
        p, op, sol = refined_both
        shifted = ShiftedOperator(op, sol.v, sol.partition)
        z1 = shifted.apply_z(sol.z_star)
        nrm = shifted.m_norm()
        gap = nrm(z1[:3] - sol.z_star[:3], z1[3:] - sol.z_star[3:])
        assert gap <= 1e-10

    def test_b_coordinates_skip_the_projection(self):
        p, op = _setup(demos.std_both_infeasible())
        part = partition_indices(p.a, V_BOTH[:3], V_BOTH[3:])
        shifted = ShiftedOperator(op, V_BOTH, part)
        # a state pushing the b block deeply negative: the plain operator
        # clamps, the twin must not
        x = np.array([-50.0, -50.0, 0.0])
        y = np.zeros(2)
        x1, _ = shifted.apply(x, y)
        assert x1[0] < -40.0 and x1[1] < -40.0
        assert x1[2] == -V_BOTH[2]  # pinned to zero then shifted


class TestRefineRay:
    def test_desk_both_infeasible(self, refined_both):
        p, op, sol = refined_both
        assert sol.converged
        assert sol.residual <= 1e-10
        assert sol.partition.b == (0, 1)
        assert sol.partition.n2 == (2,)
        np.testing.assert_allclose(sol.v, V_BOTH, atol=1e-9)

    def test_farkas_identities(self, refined_both):
        p, op, sol = refined_both
        v_x, v_y = sol.v[: p.n], sol.v[p.n :]
        lhs_c = float(p.c @ v_x)
        lhs_b = float(p.b @ v_y)
        assert lhs_c == pytest.approx(-float(v_x @ v_x) / op.steps.eta, abs=1e-12)
        assert lhs_b == pytest.approx(-float(v_y @ v_y) / op.steps.tau, abs=1e-12)

    def test_refined_parts_verify_exactly(self, refined_both):
        p, _, sol = refined_both
        v_x, v_y = sol.v[: p.n], sol.v[p.n :]
        assert verify_certificate_exact(v_y, p, "primal").valid
        assert verify_certificate_exact(v_x, p, "dual").valid

    def test_primal_infeasible_instance(self):
        p, op = _setup(demos.std_primal_infeasible())
        pts = _trajectory(op, 1500)
        sol = refine_ray(op, pts)
        assert sol.converged
        v_x, v_y = sol.v[: p.n], sol.v[p.n :]
        np.testing.assert_allclose(v_x, 0.0, atol=1e-12)
        assert float(p.b @ v_y) < -0.1
        assert sol.partition.b == ()
        assert set(sol.partition.n2) == {0, 1}

    def test_single_warm_point_accepted(self):
        p, op = _setup(demos.std_both_infeasible())
        sol = refine_ray(op, np.zeros(p.n + p.m))
        assert sol.converged
        np.testing.assert_allclose(sol.v, V_BOTH, atol=1e-9)

    def test_short_trajectory_rejected(self):
        p, op = _setup(demos.std_both_infeasible())
        with pytest.raises(ValueError):
            refine_ray(op, np.zeros((1, p.n + p.m)))

    def test_seed_on_the_ray_converges_in_one_round(self):
        p, op = _setup(demos.std_both_infeasible())
        pts = _trajectory(op, 50)
        sol = refine_ray(op, pts, V_BOTH)
        assert sol.converged and sol.rounds == 1
        np.testing.assert_allclose(sol.v, V_BOTH, atol=1e-9)

    def test_seed_of_the_wrong_shape_rejected(self):
        p, op = _setup(demos.std_both_infeasible())
        pts = _trajectory(op, 50)
        with pytest.raises(ValueError):
            refine_ray(op, pts, V_BOTH[:-1])

    def test_feasible_problem_gives_zero_displacement(self):
        p, op = _setup(demos.std_feasible())
        pts = _trajectory(op, 1500)
        sol = refine_ray(op, pts)
        np.testing.assert_allclose(sol.v, 0.0, atol=1e-9)


class TestFreeze:
    def test_handcrafted_history(self):
        hist = [(0, frozenset({0, 1})), (40, frozenset({0}))]
        rep = freeze_detector(hist, 120)
        assert rep == FreezeReport(k_freeze=40, frozen=True, changes=1, last_k=120)

    def test_change_at_the_end_means_not_frozen(self):
        hist = [(0, frozenset()), (80, frozenset({2}))]
        rep = freeze_detector(hist, 80)
        assert rep.k_freeze == 80
        assert not rep.frozen

    def test_never_changing_history(self):
        rep = freeze_detector([(0, frozenset({1}))], 20)
        assert rep.k_freeze == 0 and rep.frozen and rep.changes == 0

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            freeze_detector([], 0)

    def test_history_lists_only_changes(self):
        x = np.array([[0.0, 1.0], [0.0, 2.0], [1.0, 2.0], [1.0, 3.0], [0.0, 3.0]])
        assert active_history(x, 2) == [
            (0, frozenset({0})),
            (2, frozenset()),
            (4, frozenset({0})),
        ]
        rep = freeze_detector(active_history(x, 2), 4)
        assert rep == FreezeReport(k_freeze=4, frozen=False, changes=2, last_k=4)

    def test_active_set_scaled_tolerance(self):
        assert active_set(np.array([1e-12, 0.5])) == frozenset({0})
        assert active_set(np.array([0.3, 0.5])) == frozenset()
        # tolerance scales with the iterate magnitude
        assert active_set(np.array([1e-6, 1e9])) == frozenset({0})

    def test_desk_run_freezes_early(self):
        p, op = _setup(demos.std_both_infeasible())
        pts = _trajectory(op, 400)
        rep = freeze_detector(active_history(pts, p.n), 400)
        assert rep.frozen
        assert rep.k_freeze <= 10


class TestShiftIdentity:
    def test_matches_along_the_run(self, refined_both):
        p, op, sol = refined_both
        pts = _trajectory(op, 1010)
        res = shift_identity_residual(op, sol.v, sol.partition, pts[10:])
        assert res <= 1e-8

    def test_small_from_origin_too(self, refined_both):
        # the partition freezes immediately on this instance, so even the
        # cold start obeys the identity to roundoff
        p, op, sol = refined_both
        pts = _trajectory(op, 500)
        res = shift_identity_residual(op, sol.v, sol.partition, pts)
        assert res <= 1e-8

    def test_one_row_has_no_gap_and_no_rows_is_rejected(self, refined_both):
        p, op, sol = refined_both
        pts = _trajectory(op, 3)
        assert shift_identity_residual(op, sol.v, sol.partition, pts[-1:]) == 0.0
        with pytest.raises(ValueError):
            shift_identity_residual(op, sol.v, sol.partition, pts[:0])


class TestAffinePhase:
    def test_spectral_data_on_desk_instance(self, refined_both):
        p, op, sol = refined_both
        phase = affine_phase(op, sol.partition.b)
        np.testing.assert_allclose(phase.sigma, [np.sqrt(2.0)], atol=1e-12)
        assert phase.mu == pytest.approx(
            np.sqrt(1.0 - op.steps.eta * op.steps.tau * 2.0), abs=1e-12
        )
        assert phase.lower_rate is not None
        assert 0.0 < phase.lower_rate < phase.mu

    def test_predicted_displacement_matches_refined(self, refined_both):
        p, op, sol = refined_both
        phase = affine_phase(op, sol.partition.b)
        np.testing.assert_allclose(phase.v_pred, sol.v, atol=1e-9)

    @pytest.mark.parametrize(
        "p",
        [
            demos.std_primal_infeasible(),
            demos.std_dual_infeasible(),
            demos.std_both_infeasible(),
        ]
        + [
            to_standard_form(demos.example1(alpha, beta))[0]
            for alpha, beta in ((1.0, 2.0), (0.0, 2.0), (1.0, 1.0))
        ],
        ids=["std-primal", "std-dual", "std-both", "ex1(1,2)", "ex1(0,2)", "ex1(1,1)"],
    )
    def test_v_pred_equals_the_support_projection(self, p):
        # The support as the analysis freezes it: the columns off the
        # active set of the last point of a 2000-step trajectory.
        p, op = _setup(p)
        pts = _trajectory(op, 2000)
        support = sorted(set(range(p.n)) - active_set(pts[-1][: p.n]))
        phase = affine_phase(op, support)
        # On the standard form's own A, b (not the lowering's -A, -b) and
        # dense: w changes sign.
        cols = np.isin(np.arange(p.n), support)
        rows = np.ones(p.m, dtype=bool)
        sup = Support(p.a.csr.toarray(), p.c, p.b, cols, rows, np.zeros(p.n))
        want = np.concatenate([op.steps.eta * sup.d, -op.steps.tau * sup.w])
        np.testing.assert_allclose(phase.v_pred, want, rtol=0.0, atol=1e-10)
        assert np.any(want != 0.0)

    @pytest.mark.parametrize(
        "p,storage",
        [
            (demos.std_both_infeasible(), np.ndarray),
            (block_copies(demos.std_both_infeasible(), 60), sp.csr_matrix),
        ],
        ids=["desk", "past-dense-limit"],
    )
    def test_projects_on_the_operator_block(self, p, storage, monkeypatch):
        # The block run's polish slices: A.dense up to linalg.DENSE_LIMIT,
        # else the CSR.
        p, op = _setup(p)
        seen = []
        within_cap = Support.within_cap.__func__

        def spy(cls, a, *args):
            seen.append(a)
            return within_cap(cls, a, *args)

        monkeypatch.setattr(Support, "within_cap", classmethod(spy))
        assert affine_phase(op, range(p.n)) is not None
        assert len(seen) == 1 and seen[0] is op.matrix
        assert isinstance(seen[0], storage)

    def test_empty_support(self):
        p, op = _setup(demos.std_both_infeasible())
        phase = affine_phase(op, ())
        assert phase.sigma.size == 0
        assert phase.mu is None and phase.lower_rate is None
        want = np.concatenate([np.zeros(p.n), -op.steps.tau * p.b])
        np.testing.assert_allclose(phase.v_pred, want, atol=1e-14)

    def test_size_cap(self):
        # The cap is the support projector's: a Gram matrix of order
        # linalg.GRAM_MAX_ORDER + 1 is not decomposed.
        m = linalg.GRAM_MAX_ORDER + 1
        p = StandardFormLp(
            c=np.zeros(1),
            a=SparseMatrix.from_triplets(m, 1, [0], [0], [1.0]),
            b=np.zeros(m),
        )
        assert affine_phase(make_operator(p, StepSizes(0.5, 0.5)), (0,)) is None


class TestRateRegimes:
    def test_desk_instance_brackets_and_slopes(self, refined_both):
        p, op, sol = refined_both
        pts = _trajectory(op, 3000)
        rep_freeze = freeze_detector(active_history(pts, p.n), 3000)
        phase = affine_phase(op, sol.partition.b)
        rep = verify_rate_regimes(pts, sol.v, phase, rep_freeze.k_freeze)
        assert rep.diff_fit is not None
        assert rep.diff_rate_in_bracket
        assert rep.diff_fit.r_squared > 0.99
        assert rep.iterate_slope_ok and rep.average_slope_ok

    def test_trajectory_already_on_ray_skips_fits(self):
        # this instance walks the ray exactly from a cold start: every error
        # sits at the noise floor, and the report says so instead of fitting
        p, op = _setup(demos.std_primal_infeasible())
        pts = _trajectory(op, 500)
        sol = refine_ray(op, pts)
        phase = affine_phase(op, sol.partition.b)
        rep = verify_rate_regimes(pts, sol.v, phase, k_freeze=0)
        assert rep.diff_fit is None
        assert rep.iterate_fit is None
        assert any("noise floor" in s for s in rep.notes)

    def test_no_window_after_freeze(self, refined_both):
        p, op, sol = refined_both
        pts = _trajectory(op, 50)
        phase = affine_phase(op, sol.partition.b)
        rep = verify_rate_regimes(pts, sol.v, phase, k_freeze=50)
        assert rep.notes == ("no post-freeze window observed",)

    def test_short_window_notes_power_skip(self, refined_both):
        p, op, sol = refined_both
        pts = _trajectory(op, 80)
        phase = affine_phase(op, sol.partition.b)
        rep = verify_rate_regimes(pts, sol.v, phase, k_freeze=2)
        assert any("too short" in s for s in rep.notes)
