import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdhglp import demos, exact
from pdhglp.linalg import SparseMatrix
from pdhglp.model import (
    GeneralFormLp,
    KindMasks,
    StandardFormLp,
    clip_to_dual_signs,
    clip_to_ray_signs,
    general_form,
    number_errors,
    standard_to_general,
    to_standard_form,
    validate,
)
from pdhglp.pdhg import run

from helpers import pull_back_dual_solution, pull_back_primal, pull_back_primal_ray


def general_box_lp():
    """Mixed bound kinds: boxed, lower, upper, free."""
    return GeneralFormLp(
        c=np.array([1.0, -2.0, 0.5, 3.0]),
        a=SparseMatrix.from_dense(
            [
                [1.0, 1.0, 0.0, -1.0],
                [0.0, 2.0, -1.0, 1.0],
            ]
        ),
        b=np.array([-1.0, 0.0]),
        l=np.array([0.0, -1.0, -np.inf, -np.inf]),
        u=np.array([2.0, np.inf, 4.0, np.inf]),
        name="box-mix",
    )


class TestContainers:
    def test_shape_mismatch_rejected(self):
        a = SparseMatrix.from_dense([[1.0, 2.0]])
        with pytest.raises(ValueError):
            StandardFormLp(c=np.ones(3), a=a, b=np.ones(1))
        with pytest.raises(ValueError):
            StandardFormLp(c=np.ones(2), a=a, b=np.ones(2))

    def test_objective_includes_offset(self):
        p = StandardFormLp(
            c=np.array([2.0]),
            a=SparseMatrix.from_dense([[1.0]]),
            b=np.array([1.0]),
            objective_offset=5.0,
        )
        assert p.objective(np.array([3.0])) == 11.0

    def test_vectors_are_read_only_copies(self):
        # The cached masks, row floor and lowering read the vectors, so a
        # problem owns them: the caller's arrays are copied, and writes fail.
        l = np.array([0.0, -1.0, -np.inf, -np.inf])
        eq = np.array([True, False])
        p = dataclasses.replace(general_box_lp(), l=l, eq=eq)
        l[0], eq[1] = -np.inf, True
        assert p.l[0] == 0.0 and not p.eq[1] and p.masks.boxed[0]
        for name in ("c", "b", "l", "u", "eq"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(p, name)[0] = 1
        q = StandardFormLp(c=np.ones(2), a=SparseMatrix.from_dense([[1.0, 1.0]]), b=np.ones(1))
        for name in ("c", "b"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(q, name)[0] = 0.0

    def test_lowering_of_a_standard_problem(self):
        q = StandardFormLp(
            c=np.array([1.0, 2.0]), a=SparseMatrix.from_dense([[1.0, -3.0]]), b=np.array([2.0])
        )
        g = q.general
        assert g is q.general  # built once
        np.testing.assert_array_equal(g.a.to_dense(), [[-1.0, 3.0]])
        np.testing.assert_array_equal(g.b, [-2.0])
        assert g.eq.all() and np.all(g.l == 0.0) and np.all(np.isinf(g.u))
        np.testing.assert_array_equal(g.row_floor, [-np.inf])
        assert general_form(q) is g and general_form(g) is g

    def test_row_violation_reads_each_row_kind(self):
        p = dataclasses.replace(
            general_box_lp(), a=SparseMatrix.from_dense(np.eye(3, 4)), b=np.zeros(3),
            eq=np.array([False, True, False]),
        )
        assert p.row_violation(np.array([1.0, 0.0, -0.5])) == 0.5
        assert p.row_violation(np.array([1.0, 2.0, 0.0])) == 2.0
        assert p.row_violation(np.array([1.0, -3.0, 0.0])) == 3.0
        np.testing.assert_array_equal(p.row_floor, [0.0, -np.inf, 0.0])

    def test_kinds(self):
        masks = general_box_lp().masks
        assert masks.boxed.tolist() == [True, False, False, False]
        assert masks.lower.tolist() == [False, True, False, False]
        assert masks.upper.tolist() == [False, False, True, False]
        assert masks.free.tolist() == [False, False, False, True]

    @pytest.mark.parametrize("form", ["standard", "general"])
    def test_fields_cannot_be_rebound(self, form):
        p = general_box_lp()
        if form == "standard":
            p = to_standard_form(p)[0]
        for f in dataclasses.fields(p):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, f.name, getattr(p, f.name))

    def test_masks_are_built_once(self):
        p = general_box_lp()
        assert p.masks is p.masks

    def test_replace_carries_the_masks_of_the_new_bounds(self):
        p = general_box_lp()
        old = p.masks
        q = dataclasses.replace(
            p, l=np.array([-np.inf, 0.0, 1.0, -np.inf]), u=np.full(4, np.inf)
        )
        assert q.masks is not old
        assert q.masks.free.tolist() == [True, False, False, True]
        assert q.masks.lower.tolist() == [False, True, True, False]
        assert not q.masks.boxed.any() and not q.masks.upper.any()
        assert q.masks.finite_l[1].tolist() == [0.0, 1.0]
        # p keeps its own masks.
        assert p.masks is old and old.boxed.tolist() == [True, False, False, False]


class TestValidate:
    def test_clean_problem_ok(self):
        assert validate(general_box_lp()) == []

    def test_nan_entries_rejected(self):
        p = general_box_lp()
        p = dataclasses.replace(p, c=np.array([np.nan, *p.c[1:]]))
        assert validate(p) == ["c contains NaN or infinite entries"]

    @pytest.mark.parametrize("offset", [np.inf, -np.inf, np.nan])
    def test_non_finite_objective_offset_rejected(self, offset):
        p = dataclasses.replace(demos.example1(0, 1), objective_offset=offset)
        assert validate(p) == ["objective_offset contains NaN or infinite entries"]
        with pytest.raises(ValueError, match="objective_offset"):
            run(p)

    def test_crossed_bounds_rejected(self):
        p = general_box_lp()
        p = dataclasses.replace(
            p, l=np.array([3.0, *p.l[1:]]), u=np.array([1.0, *p.u[1:]])
        )
        assert validate(p) == ["variable 0: lower bound exceeds upper bound"]

    def test_infinite_lower_plus_rejected(self):
        p = general_box_lp()
        p = dataclasses.replace(p, l=np.array([np.inf, *p.l[1:]]))
        assert validate(p)[0] == "lower bound +inf is not a valid bound"

    def test_zero_row_accepted(self):
        p = GeneralFormLp(
            c=np.array([1.0]),
            a=SparseMatrix.from_triplets(1, 1, [], [], []),
            b=np.array([0.0]),
            l=np.zeros(1),
            u=np.ones(1),
        )
        assert validate(p) == []

    @pytest.mark.parametrize("form", ["standard", "general"])
    def test_no_columns_rejected(self, form):
        a = SparseMatrix.from_triplets(1, 0, [], [], [])
        common = dict(c=np.zeros(0), a=a, b=np.ones(1))
        if form == "standard":
            p = StandardFormLp(**common)
        else:
            p = GeneralFormLp(l=np.zeros(0), u=np.zeros(0), **common)
        assert validate(p) == ["the problem has no columns"]

    def test_number_errors_leave_the_solver_needs_to_validate(self):
        # No rows and crossed bounds are the solver's needs, which the
        # exact oracle classifies; a NaN bound hides the infinite ones.
        p = GeneralFormLp(
            c=np.ones(2),
            a=SparseMatrix.from_triplets(0, 2, [], [], []),
            b=np.zeros(0),
            l=np.array([1.0, np.nan]),
            u=np.array([0.0, -np.inf]),
        )
        assert number_errors(p) == ["bounds contain NaN"]
        assert validate(p) == [
            "the problem has no constraint rows",
            "bounds contain NaN",
            "variable 0: lower bound exceeds upper bound",
        ]

    def test_fixed_variable_ok(self):
        p = general_box_lp()
        p = dataclasses.replace(
            p, l=np.array([1.5, *p.l[1:]]), u=np.array([1.5, *p.u[1:]])
        )
        assert validate(p) == []


class TestSignClips:
    def test_dual_signs(self):
        p = general_box_lp()
        masks = p.masks
        w = np.array([-3.0, -1.0, 2.0, 5.0])
        r = clip_to_dual_signs(w, masks)
        # boxed keeps sign, lower clipped up, upper clipped down, free zeroed
        assert r.tolist() == [-3.0, 0.0, 0.0, 0.0]

    def test_ray_signs(self):
        p = general_box_lp()
        masks = p.masks
        d = np.array([1.0, -1.0, 2.0, -4.0])
        out = clip_to_ray_signs(d, masks)
        assert out.tolist() == [0.0, 0.0, 0.0, -4.0]

    @staticmethod
    def _masked_dual(w, masks):
        r = w.copy()
        r[masks.free] = 0.0
        r[masks.lower] = np.maximum(r[masks.lower], 0.0)
        r[masks.upper] = np.minimum(r[masks.upper], 0.0)
        return r

    @staticmethod
    def _masked_ray(d, masks):
        out = d.copy()
        out[masks.boxed] = 0.0
        out[masks.lower] = np.maximum(out[masks.lower], 0.0)
        out[masks.upper] = np.minimum(out[masks.upper], 0.0)
        return out

    def test_clips_match_masked_assignment_to_the_bit(self, rng):
        # The clips run as floor/ceil ufuncs; per entry they apply the same
        # operations as masked assignment, so NaN, infinities and the sign
        # of zero come out the same.
        special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324])
        for _ in range(300):
            n = int(rng.integers(0, 20))
            kinds = rng.integers(0, 4, n)
            masks = KindMasks(kinds == 0, kinds == 1, kinds == 2, kinds == 3)
            w = rng.standard_normal(n)
            hit = rng.integers(0, n, n) if n else np.zeros(0, dtype=int)
            w[hit] = rng.choice(special, hit.size)
            for clip, ref in (
                (clip_to_dual_signs, self._masked_dual),
                (clip_to_ray_signs, self._masked_ray),
            ):
                got, want = clip(w, masks), ref(w, masks)
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))


class TestStandardization:
    def test_dimensions_and_kinds(self):
        p = general_box_lp()
        q, smap = to_standard_form(p)
        # columns: 1 boxed + 1 lower + 1 upper + 2 free + 2 row slacks + 1 box slack
        assert q.n == smap.n_std == 8
        # rows: 2 original + 1 box row
        assert q.m == smap.m_std == 3
        assert validate(q) == []

    def test_feasible_point_maps_forward_and_back(self):
        p = general_box_lp()
        q, smap = to_standard_form(p)
        rng = np.random.default_rng(5)
        # Sample standard-form-feasible points by projecting random
        # nonnegatives onto Ax = b via least squares is overkill; instead
        # check the pull-back of structure: any x_std >= 0 with Ax_std = b_std
        # must pull back into the box and satisfy the general rows.
        found = 0
        for _ in range(200):
            x_std = rng.uniform(0.0, 2.0, q.n)
            res = q.a.matvec(x_std) - q.b
            # Newton-style correction using pseudo-inverse to land on Ax = b
            x_std = x_std - np.linalg.pinv(q.a.to_dense()) @ res
            if np.any(x_std < -1e-12):
                continue
            x_std = np.maximum(x_std, 0.0)
            if np.max(np.abs(q.a.matvec(x_std) - q.b)) > 1e-9:
                continue
            found += 1
            x = pull_back_primal(smap, x_std)
            assert np.all(x >= p.l - 1e-9) and np.all(x <= p.u + 1e-9)
            assert np.all(p.a.matvec(x) >= p.b - 1e-9)
            # objective agrees through the offset
            assert q.objective(x_std) == pytest.approx(p.objective(x), abs=1e-9)
        assert found > 0

    def test_equality_rows_get_no_slack(self):
        p = dataclasses.replace(general_box_lp(), eq=np.array([True, False]))
        q, smap = to_standard_form(p)
        # One slack fewer than test_dimensions_and_kinds: row 0 has none.
        assert q.n == smap.n_std == 7 and q.m == 3
        assert smap.row_slack_col[0] == -1 and smap.row_slack_col[1] >= 0
        assert exact.classify_lp(q).cell == exact.classify_lp(p).cell
        assert exact.exact_optimum(q) == exact.exact_optimum(p)

    def test_feasibility_is_preserved_exactly(self):
        # The oracle sees the same feasibility cell before and after.
        for alpha, beta in [(0, 1), (1, 2), (0, 2), (1, 1)]:
            from pdhglp.demos import example1

            p = example1(alpha, beta)
            q, _ = to_standard_form(p)
            assert exact.classify_lp(q).cell == exact.classify_lp(p).cell

    def test_standard_to_general_round_trip_certifies_same(self):
        p = StandardFormLp(
            c=np.array([1.0, 2.0]),
            a=SparseMatrix.from_dense([[1.0, 1.0]]),
            b=np.array([2.0]),
        )
        g = standard_to_general(p)
        assert exact.classify_lp(g).cell == exact.classify_lp(p).cell
        assert np.all(g.l == 0.0) and np.all(np.isinf(g.u))

    def test_standard_to_general_rejects_general_input(self):
        # A general problem duck-types the attributes the embedding reads,
        # so passing one through would silently change the feasible set.
        g = general_box_lp()
        with pytest.raises(TypeError, match="StandardFormLp"):
            standard_to_general(g)

    @given(st.integers(0, 2**31 - 1))
    def test_pull_back_primal_ray_is_homogeneous(self, seed):
        p = general_box_lp()
        q, smap = to_standard_form(p)
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(q.n)
        one = pull_back_primal_ray(smap, d)
        two = pull_back_primal_ray(smap, 2.0 * d)
        np.testing.assert_allclose(two, 2.0 * one, atol=1e-12)

    def test_dual_pull_back_negates(self):
        p = general_box_lp()
        q, smap = to_standard_form(p)
        y_std = np.arange(1.0, q.m + 1)
        np.testing.assert_array_equal(
            pull_back_dual_solution(smap, y_std), -y_std[: p.m]
        )
