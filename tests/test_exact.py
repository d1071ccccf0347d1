import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdhglp import demos, exact, linalg, pdhg
from pdhglp.exact import (
    ExactLp,
    classify_lp,
    decide_feasibility,
    exact_optimum,
    exactify_vector,
    repair_certificate,
    verify_certificate_exact,
)
from pdhglp.linalg import SparseMatrix
from pdhglp.model import (
    GeneralFormLp,
    StandardFormLp,
    clip_to_dual_signs,
    standard_to_general,
    to_standard_form,
)


class TestDecideFeasibility:
    def test_interval_feasible_with_witness(self):
        sys = ExactLp(1)
        sys.add_le([1], 3)
        sys.add_ge([1], 1)
        res = decide_feasibility(sys)
        assert res.feasible
        w = res.witness[0]
        assert Fraction(1) <= w <= Fraction(3)

    def test_empty_interval_infeasible_with_farkas(self):
        sys = ExactLp(1)
        sys.add_le([1], 1)
        sys.add_ge([1], 2)
        res = decide_feasibility(sys)
        assert not res.feasible
        lam = res.farkas
        # lam'A = 0, lam'b < 0 over the stored <=-rows
        assert sum(l * r[0] for l, r in zip(lam, sys.rows)) == 0
        assert sum(l * b for l, b in zip(lam, sys.rhs)) < 0

    def test_equalities_split_correctly(self):
        sys = ExactLp(2)
        sys.add_eq([1, 1], 2)
        sys.add_eq([1, -1], 0)
        res = decide_feasibility(sys)
        assert res.feasible
        assert res.witness == [Fraction(1), Fraction(1)]

    def test_transitive_contradiction(self):
        # x <= y, y <= z, z <= x - 1 chains to 0 <= -1.
        sys = ExactLp(3)
        sys.add_le([1, -1, 0], 0)
        sys.add_le([0, 1, -1], 0)
        sys.add_le([-1, 0, 1], -1)
        assert not decide_feasibility(sys).feasible

    def test_variable_cap_enforced(self):
        sys = ExactLp(40)
        with pytest.raises(ValueError):
            decide_feasibility(sys)


class TestClassifyLp:
    # Feasibility cell of the two-parameter demo family, derived by hand:
    # the third variable is absent from every row, so its zero cost column
    # forces alpha = 0 for dual feasibility; the first two rows cap
    # x1 + x2 at 6/5, so beta <= 6/5 is primal feasibility.
    CASES = [
        ((0.0, 1.0), "both_feasible"),
        ((0.0, 2.0), "primal_infeasible"),
        ((1.0, 1.0), "dual_infeasible"),
        ((1.0, 2.0), "both_infeasible"),
    ]

    @pytest.mark.parametrize("params,cell", CASES)
    def test_example1_cells(self, params, cell):
        assert classify_lp(demos.example1(*params)).cell == cell

    def test_standard_demo_cells(self):
        assert classify_lp(demos.std_feasible()).cell == "both_feasible"
        assert classify_lp(demos.std_primal_infeasible()).cell == "primal_infeasible"
        assert classify_lp(demos.std_dual_infeasible()).cell == "dual_infeasible"
        assert classify_lp(demos.std_both_infeasible()).cell == "both_infeasible"

    def test_row_scaling_does_not_change_cell(self):
        p = demos.std_both_infeasible()
        dense = p.a.to_dense()
        scale = np.array([[4.0], [0.25]])
        q = StandardFormLp(
            c=p.c.copy(),
            a=SparseMatrix.from_dense(dense * scale),
            b=p.b * scale[:, 0],
        )
        assert classify_lp(q).cell == classify_lp(p).cell


class TestExactOptimum:
    def test_example1_value_is_one(self):
        res = exact_optimum(demos.example1(0.0, 1.0))
        assert res.status == "optimal"
        assert res.value == Fraction(1)

    def test_std_feasible_value_is_two(self):
        res = exact_optimum(demos.std_feasible())
        assert res.status == "optimal"
        assert res.value == Fraction(2)

    def test_unbounded_detected(self):
        assert exact_optimum(demos.example1(1.0, 1.0)).status == "unbounded"

    def test_non_finite_offset_refused(self):
        # Fraction(inf) raised OverflowError.
        p = dataclasses.replace(demos.example1(0.0, 1.0), objective_offset=np.inf)
        with pytest.raises(ValueError, match="objective_offset"):
            exact_optimum(p)

    def test_infeasible_detected(self):
        assert exact_optimum(demos.example1(0.0, 2.0)).status == "infeasible"
        assert exact_optimum(demos.example1(1.0, 2.0)).status == "infeasible"

    def test_offset_added_exactly(self):
        p = dataclasses.replace(demos.std_feasible(), objective_offset=0.5)
        assert exact_optimum(p).value == Fraction(5, 2)


def _optimal_cases() -> dict:
    """Desk problems with an optimum, by label."""
    cases = {"ex1(0,1)": demos.example1(0.0, 1.0), "std-feasible": demos.std_feasible()}
    for seed in range(25):
        rng = np.random.default_rng([seed, 29])
        p = demos.random_cell_instance("both_feasible", rng)
        cases[f"both_feasible-{seed}"] = p
    return cases


OPTIMAL_CASES = _optimal_cases()


@pytest.mark.parametrize("label", OPTIMAL_CASES)
def test_optimal_objectives_match_exact_optimum(label):
    # The optimum is the same in both forms: standardization carries the
    # objective into the offset, and the embedding keeps c.
    p = OPTIMAL_CASES[label]
    v = float(exact_optimum(p).value)
    if isinstance(p, StandardFormLp):
        forms = (p, standard_to_general(p))
    else:
        forms = (p, to_standard_form(p)[0])
    for q in forms:
        out = pdhg.run(q)
        assert out.status is pdhg.SolveStatus.OPTIMAL
        tol = 1e-7 * (1.0 + abs(v))
        assert abs(out.primal_objective - v) <= tol
        assert abs(out.dual_objective - v) <= tol


class TestVerifyCertificateExact:
    def test_standard_primal_certificate(self):
        p = demos.std_primal_infeasible()
        assert verify_certificate_exact(np.array([1.0]), p, "primal").valid
        bad = verify_certificate_exact(np.array([-1.0]), p, "primal")
        assert not bad.valid and bad.reasons

    def test_standard_dual_certificate(self):
        p = demos.std_dual_infeasible()
        assert verify_certificate_exact(np.array([1.0, 1.0]), p, "dual").valid
        assert not verify_certificate_exact(np.array([-1.0, -1.0]), p, "dual").valid

    def test_general_primal_certificate(self):
        # Hand-built multipliers for the beta = 2 instance: the combination
        # 5*(row 3) + 2*(row 1) + 1*(row 2) cancels every column and leaves
        # 0 >= 4.
        p = demos.example1(0.0, 2.0)
        y = np.array([2.0, 1.0, 5.0])
        assert verify_certificate_exact(y, p, "primal").valid
        assert not verify_certificate_exact(-y, p, "primal").valid

    def test_zero_certificate_rejected(self):
        p = demos.std_primal_infeasible()
        res = verify_certificate_exact(np.zeros(1), p, "primal")
        assert not res.valid
        assert "certificate is zero" in res.reasons

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            verify_certificate_exact(np.ones(1), demos.std_feasible(), "sideways")

    @pytest.mark.parametrize("repair", [False, True], ids=["verify", "repair"])
    def test_wrong_length_rejected(self, repair):
        # m = 1 and n = 2: a dual ray has length 1, a primal ray length 2.
        p = demos.std_primal_infeasible()
        check = repair_certificate if repair else verify_certificate_exact
        with pytest.raises(ValueError, match="length 1, got 2"):
            check(np.array([1.0, 5.0]), p, "primal")
        with pytest.raises(ValueError, match="length 2, got 1"):
            check(np.array([1.0]), p, "dual")

    @given(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    def test_positive_scaling_invariance(self, scale):
        p = demos.std_primal_infeasible()
        base = verify_certificate_exact(np.array([1.0]), p, "primal")
        scaled = verify_certificate_exact(np.array([scale]), p, "primal")
        assert base.valid == scaled.valid


class TestExactifyVector:
    def test_snaps_dust_to_zero(self):
        out = exactify_vector(np.array([1.0, 1e-15]))
        assert out == [Fraction(1), Fraction(0)]

    def test_zero_vector(self):
        assert exactify_vector(np.zeros(3)) == [Fraction(0)] * 3

    def test_normalization_keeps_ratios(self):
        out = exactify_vector(np.array([2.0, 4.0]))
        assert out[1] / out[0] == Fraction(2)

    def test_integer_vectors_are_read_exactly(self):
        # Normalized by 2**52 - 1 and snapped at 10**9, the 3 would move.
        v = np.array([2.0**52 - 1, 3.0, -5.0])
        assert exactify_vector(v) == [Fraction(2**52 - 1), Fraction(3), Fraction(-5)]


def _reports(out):
    return [r for r in (out.primal_certificate, out.dual_certificate) if r]


# Exactly valid certificates: (problem, side, vector).
VALID = [
    (demos.std_primal_infeasible(), "primal", np.array([1.0])),
    (demos.std_dual_infeasible(), "dual", np.array([1.0, 1.0])),
    (demos.std_both_infeasible(), "primal", np.array([0.0, 1.0])),
    (demos.std_both_infeasible(), "dual", np.array([1.0, 1.0, 0.0])),
    (demos.example1(0.0, 2.0), "primal", np.array([2.0, 1.0, 5.0])),
]


class TestRepairCertificate:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("general", [False, True], ids=["standard", "general"])
    @pytest.mark.parametrize("cell", demos.CELLS)
    def test_run_certificates_are_exact_integers(self, cell, general, seed):
        p = demos.random_cell_instance(cell, np.random.default_rng([seed, 17]))
        if general:
            p = standard_to_general(p)
        assert exact.repair_fits(p)
        out = pdhg.run(p)
        for rep in _reports(out):
            assert rep.exact is True
            assert verify_certificate_exact(rep.vector, p, rep.side).valid
            assert np.array_equal(rep.vector, np.round(rep.vector))
            assert np.max(np.abs(rep.vector)) <= 1e9
            if isinstance(p, GeneralFormLp) and rep.side == "primal":
                # The reduced costs belong to the repaired vector.
                want = clip_to_dual_signs(-p.a.rmatvec(rep.vector), p.masks)
                assert np.array_equal(rep.r, want)

    @pytest.mark.parametrize("seed", [13, 21, 26, 27, 32])
    def test_large_null_vectors_are_repaired(self, seed):
        # Dense 12 x 12 LPs with free variables whose last row is minus a
        # nonnegative combination of the others: both infeasible, and the
        # dual SUPPORT certificate's integer repair has entries of 1.2e7 to
        # 5.8e10, which a float snap at denominator 10**9 moves.
        rng = np.random.default_rng(seed)
        a = rng.integers(-3, 4, (12, 12))
        y = rng.integers(0, 3, 12)
        y[-1] = 1
        a[-1] = -(y[:-1] @ a[:-1])
        b = rng.integers(-3, 4, 12)
        if b @ y <= 0:
            b[-1] += 1 - b @ y
        c = rng.integers(-3, 4, 12)
        p = GeneralFormLp(
            c=c.astype(float),
            a=SparseMatrix.from_dense(a.astype(float)),
            b=b.astype(float),
            l=np.full(12, -np.inf),
            u=np.full(12, np.inf),
        )
        out = pdhg.run(p)
        assert out.status is pdhg.SolveStatus.BOTH_INFEASIBLE
        for rep in _reports(out):
            assert rep.exact is True
            assert verify_certificate_exact(rep.vector, p, rep.side).valid
            assert np.array_equal(rep.vector, np.round(rep.vector))

    def test_sign_violation_of_1e_10_is_repaired(self):
        # A'y >= 0 forces 97 y0 = 89 y1, and b'y = -y0 < 0: the certificates
        # are the multiples of (89, 97).  Raising y1 by 1e-10 (relative)
        # makes the first entry of A'y negative, a violation the eps test
        # accepts and the oracle's snap keeps.
        p = StandardFormLp(
            np.ones(2),
            SparseMatrix.from_dense([[97.0, -97.0], [-89.0, 89.0]]),
            np.array([-1.0, 0.0]),
        )
        assert verify_certificate_exact(np.array([89.0, 97.0]), p, "primal").valid
        bad = np.array([89.0, 97.0 * (1.0 + 1e-10)])
        assert not verify_certificate_exact(bad, p, "primal").valid
        fixed = repair_certificate(bad, p, "primal")
        assert np.array_equal(fixed, [89.0, 97.0])

    def test_null_basis_spans_the_null_space_exactly(self):
        rows = [{0: 1, 1: -2, 2: 1}, {2: 3}]
        assert exact._null_basis(rows, 3) == [[2, 1, 0]]
        # Three unknowns, rank 1: two integer vectors that zero the row.
        row = {0: 4, 1: -16, 2: 10}
        basis = exact._null_basis([row], 3)
        assert len(basis) == 2
        for b in basis:
            assert all(isinstance(i, int) for i in b)
            assert 4 * b[0] - 16 * b[1] + 10 * b[2] == 0
        assert exact._null_basis([], 2) == [[1, 0], [0, 1]]

    def test_opposite_rows_are_kept_as_an_equality(self):
        # standard_to_general writes Ax = b as the rows (A, -A), so a ray
        # must have A d = 0.  At d = (1, 1 + 1e-9) the rows x0 - x1 >= 0 and
        # x1 - x0 >= 0 are off by 1e-9 relative, inside the 1e-7 tight test,
        # so either way the pair makes the equation x0 = x1.
        p = standard_to_general(
            StandardFormLp(
                np.array([-1.0, 0.0]),
                SparseMatrix.from_dense([[1.0, -1.0]]),
                np.zeros(1),
            )
        )
        d = np.array([1.0, 1.0 + 1e-9])
        assert not verify_certificate_exact(d, p, "dual").valid
        assert np.array_equal(repair_certificate(d, p, "dual"), [1.0, 1.0])
        # Far from tight the pair still binds: d = (1, 2) is repaired onto
        # the line x0 = x1 rather than left off it.
        fixed = repair_certificate(np.array([1.0, 2.0]), p, "dual")
        assert fixed is not None and fixed[0] == fixed[1]

    def test_two_dimensional_null_space_gives_small_integers(self):
        # Columns 0 and 2 are opposite, so A'y >= 0 holds with equality on
        # both and leaves a plane of candidates; a snap of y followed by a
        # projection onto that plane gives entries past 1e9.
        rng = np.random.default_rng([5, 29])
        p = demos.random_cell_instance("both_infeasible", rng)
        out = pdhg.run(p)
        rep = out.primal_certificate
        assert rep.exact is True
        assert np.max(np.abs(rep.vector)) <= 1e9
        assert verify_certificate_exact(rep.vector, p, "primal").valid

    @pytest.mark.parametrize("scale", [1.0, 0.3, 7.0 / 3.0, 1e-6, 123456.789])
    @pytest.mark.parametrize("p,side,vec", VALID)
    def test_valid_certificates_stay_valid(self, p, side, vec, scale):
        v = vec * scale
        assert verify_certificate_exact(v, p, side).valid
        fixed = repair_certificate(v, p, side)
        assert fixed is not None
        assert verify_certificate_exact(fixed, p, side).valid
        # The repair keeps the direction of a certificate that holds.
        assert np.allclose(fixed / np.max(np.abs(fixed)), vec / np.max(np.abs(vec)))

    def test_zero_vector_is_not_repaired(self):
        assert repair_certificate(np.zeros(1), demos.std_primal_infeasible(), "primal") is None

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError):
            repair_certificate(np.ones(1), demos.std_primal_infeasible(), "sideways")

    def test_problems_past_the_repair_size_are_refused(self):
        # 13 copies of the row x0 - x1 = 0: one row more than the repair
        # takes on, although the ray holds exactly.
        rows = exact.REPAIR_MAX_DIM + 1
        p = StandardFormLp(
            np.array([-1.0, 0.0]),
            SparseMatrix.from_dense([[1.0, -1.0]] * rows),
            np.zeros(rows),
        )
        ray = np.array([1.0, 1.0])
        assert verify_certificate_exact(ray, p, "dual").valid
        assert not exact.repair_fits(p)
        with pytest.raises(ValueError, match="too large"):
            repair_certificate(ray, p, "dual")

    def test_unrepaired_report_keeps_its_vector_and_says_if_it_holds(self, monkeypatch):
        monkeypatch.setattr(exact, "repair_certificate", lambda vec, p, side: None)
        p = demos.std_primal_infeasible()
        out = pdhg.run(p)
        rep = out.primal_certificate
        assert rep.exact == verify_certificate_exact(rep.vector, p, "primal").valid

    def test_integer_data(self):
        assert exact.integer_data(demos.example1(1.0, 2.0))
        assert exact.integer_data(demos.std_both_infeasible())
        p = demos.example1(1.0, 2.0)
        # Infinite bounds do not count.
        p = dataclasses.replace(p, l=np.array([-np.inf, 0.0, -3.0]))
        assert exact.integer_data(p)
        p = dataclasses.replace(p, u=np.array([np.inf, 0.5, np.inf]))
        assert not exact.integer_data(p)
        q = demos.std_primal_infeasible()
        q = dataclasses.replace(q, c=q.c * 0.1)
        assert not exact.integer_data(q)

    def test_non_integer_data_skips_the_fraction_loop(self, monkeypatch):
        # 6 x 9, boxed in [0, 1], non-integer float data: row 0 asks for
        # more than the box allows, so the problem is primal infeasible.
        rng = np.random.default_rng(5)
        a = rng.uniform(0.1, 1.3, (6, 9))
        b = 0.5 * a.sum(axis=1)
        b[0] = a[0].sum() + 0.5
        p = GeneralFormLp(
            rng.uniform(-1.0, 1.0, 9),
            SparseMatrix.from_dense(a),
            b,
            np.zeros(9),
            np.ones(9),
        )
        assert exact.repair_fits(p) and not exact.integer_data(p)

        def refuse(vec, p, side):
            raise AssertionError("the Fraction loop ran on non-integer data")

        monkeypatch.setattr(exact, "repair_certificate", refuse)
        out = pdhg.run(p)
        assert out.status is pdhg.SolveStatus.PRIMAL_INFEASIBLE
        rep = out.primal_certificate
        assert rep.exact == verify_certificate_exact(rep.vector, p, "primal").valid

    def test_dense_path_past_the_repair_size_is_not_repaired(self):
        # 10 x 15: stored dense, but more columns than the repair takes.
        p = demos.block_copies(demos.std_both_infeasible(), 5)
        assert p.m * p.n <= linalg.DENSE_LIMIT
        assert not exact.repair_fits(p)
        out = pdhg.run(p)
        assert len(_reports(out)) == 2
        assert all(rep.exact is None for rep in _reports(out))

    def test_sparse_path_is_not_repaired(self):
        p = demos.block_copies(demos.std_both_infeasible(), 41)
        assert p.m * p.n > linalg.DENSE_LIMIT
        out = pdhg.run(p)
        assert len(_reports(out)) == 2
        assert all(rep.exact is None for rep in _reports(out))
