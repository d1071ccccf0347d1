import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdhglp import exact
from pdhglp.linalg import SparseMatrix
from pdhglp.model import (
    GeneralFormLp,
    KindMasks,
    StandardFormLp,
    clip_to_dual_signs,
    clip_to_ray_signs,
    standard_to_general,
    to_standard_form,
    validate,
)


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
        rep = validate(general_box_lp())
        assert rep.ok

    def test_nan_entries_rejected(self):
        p = general_box_lp()
        p.c[0] = np.nan
        assert not validate(p).ok

    def test_crossed_bounds_rejected(self):
        p = general_box_lp()
        p.l[0], p.u[0] = 3.0, 1.0
        rep = validate(p)
        assert not rep.ok
        assert any("l > u" in e or "l[" in e or "bound" in e for e in rep.errors)

    def test_infinite_lower_plus_rejected(self):
        p = general_box_lp()
        p.l[0] = np.inf
        assert not validate(p).ok

    def test_zero_row_warns_only(self):
        p = GeneralFormLp(
            c=np.array([1.0]),
            a=SparseMatrix.from_triplets(1, 1, [], [], []),
            b=np.array([0.0]),
            l=np.zeros(1),
            u=np.ones(1),
        )
        rep = validate(p)
        assert rep.ok
        assert rep.warnings

    def test_fixed_variable_ok(self):
        p = general_box_lp()
        p.l[0] = p.u[0] = 1.5
        assert validate(p).ok


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
        assert validate(q).ok

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
            x = smap.pull_back_primal(x_std)
            assert np.all(x >= p.l - 1e-9) and np.all(x <= p.u + 1e-9)
            assert np.all(p.a.matvec(x) >= p.b - 1e-9)
            # objective agrees through the offset
            assert q.objective(x_std) == pytest.approx(p.objective(x), abs=1e-9)
        assert found > 0

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
        one = smap.pull_back_primal_ray(d)
        two = smap.pull_back_primal_ray(2.0 * d)
        np.testing.assert_allclose(two, 2.0 * one, atol=1e-12)

    def test_dual_pull_back_negates(self):
        p = general_box_lp()
        q, smap = to_standard_form(p)
        y_std = np.arange(1.0, q.m + 1)
        np.testing.assert_array_equal(
            smap.pull_back_dual_solution(y_std), -y_std[: p.m]
        )
