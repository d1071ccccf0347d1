import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pdhglp import linalg
from pdhglp.linalg import (
    MNorm,
    SparseMatrix,
    StepSizes,
    opnorm_estimate,
    support_projection,
)

finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32)


def dense_matrices(max_m=5, max_n=5):
    return st.integers(1, max_m).flatmap(
        lambda m: st.integers(1, max_n).flatmap(
            lambda n: arrays(np.float64, (m, n), elements=finite)
        )
    )


class TestSparseMatrix:
    def test_triplet_duplicates_sum(self):
        a = SparseMatrix.from_triplets(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0])
        assert a.to_dense().tolist() == [[0.0, 5.0], [1.0, 0.0]]
        assert a.nnz == 2

    def test_index_bounds_checked(self):
        with pytest.raises(ValueError):
            SparseMatrix.from_triplets(2, 2, [2], [0], [1.0])
        with pytest.raises(ValueError):
            SparseMatrix.from_triplets(2, 2, [0], [-1], [1.0])

    def test_shape_validation_on_products(self):
        a = SparseMatrix.from_dense([[1.0, 2.0]])
        with pytest.raises(ValueError):
            a.matvec(np.ones(3))
        with pytest.raises(ValueError):
            a.rmatvec(np.ones(2))

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (40, 90), (300, 120)])
    def test_rmatvec_bitwise_equals_transpose_view(self, rng, shape):
        csr = sp.random(*shape, density=0.1, format="csr", random_state=rng)
        a = SparseMatrix(csr)
        for _ in range(3):
            y = rng.standard_normal(shape[0])
            assert np.array_equal(a.rmatvec(y), a.csr.T @ y)

    def test_transpose_built_once(self):
        a = SparseMatrix.from_dense([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        t = a.transposed_csr()
        assert a.transposed_csr() is t
        np.testing.assert_array_equal(t.toarray(), a.to_dense().T)

    @given(dense_matrices())
    def test_adjoint_identity(self, arr):
        """y'(Ax) == (A'y)'x for every x, y."""
        a = SparseMatrix.from_dense(arr)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(a.n_cols)
        y = rng.standard_normal(a.n_rows)
        lhs = float(y @ a.matvec(x))
        rhs = float(a.rmatvec(y) @ x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(dense_matrices())
    def test_dense_round_trip(self, arr):
        a = SparseMatrix.from_dense(arr)
        np.testing.assert_array_equal(a.to_dense(), arr)


class TestOperatorNorm:
    @given(dense_matrices(6, 6))
    def test_estimate_close_to_svd(self, arr):
        # Power iteration stops on successive change, so with a small
        # spectral gap it can sit a little below the true value; it must
        # never overestimate (beyond roundoff), and the shortfall must stay
        # far inside the 0.9^2 safety margin the step sizes rely on.
        a = SparseMatrix.from_dense(arr)
        true = float(np.linalg.svd(arr, compute_uv=False)[0]) if arr.size else 0.0
        est = opnorm_estimate(a)
        assert est.value <= true * (1.0 + 1e-9) + 1e-12
        assert est.value == pytest.approx(true, rel=5e-3, abs=1e-9)

    def test_invariant_subspace_start_is_escaped(self):
        # The all-ones start is a fixed direction of A'A here and
        # underestimates the norm; the second start must recover sqrt(2).
        a = SparseMatrix.from_dense([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        est = opnorm_estimate(a)
        assert est.value == pytest.approx(np.sqrt(2.0), rel=1e-5)

    def test_zero_matrix(self):
        a = SparseMatrix.from_triplets(2, 2, [], [], [])
        assert opnorm_estimate(a).value == 0.0

    def test_kept_per_matrix(self, monkeypatch):
        # The step sizes and every MNorm of one matrix share one power
        # iteration, at opnorm_estimate's default settings; another matrix
        # gets its own.
        calls = []

        def counted(a, *args):
            calls.append((a, args))
            return opnorm_estimate(a, *args)

        monkeypatch.setattr(linalg, "opnorm_estimate", counted)
        a = SparseMatrix.from_dense([[3.0, 1.0], [0.0, 2.0]])
        steps = StepSizes.for_matrix(a, 0.9)
        first = a.opnorm()
        MNorm(a, steps)
        MNorm(a, StepSizes(0.1, 0.2))
        assert calls == [(a, ())]
        assert a.opnorm() is first
        assert first == opnorm_estimate(a) == opnorm_estimate(a, 1e-6, 500)
        b = SparseMatrix(a.csr.copy())
        StepSizes.for_matrix(b, 0.9)
        MNorm(b, steps)
        assert len(calls) == 2 and calls[-1][0] is b


class TestStepSizes:
    def test_for_matrix_keeps_m_positive_definite(self):
        a = SparseMatrix.from_dense([[3.0, 1.0], [1.0, 2.0]])
        steps = StepSizes.for_matrix(a, factor=0.9)
        sigma = opnorm_estimate(a).value
        assert steps.eta * steps.tau * sigma * sigma < 1.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            StepSizes(0.0, 1.0)
        with pytest.raises(ValueError):
            StepSizes(1.0, -1.0)
        with pytest.raises(ValueError):
            StepSizes(np.nan, 1.0)
        a = SparseMatrix.from_dense([[1.0]])
        with pytest.raises(ValueError):
            StepSizes.for_matrix(a, factor=1.0)

    def test_zero_matrix_rejected(self):
        a = SparseMatrix.from_triplets(1, 1, [], [], [])
        with pytest.raises(ValueError):
            StepSizes.for_matrix(a)


class TestMNorm:
    def test_rejects_indefinite_steps(self):
        a = SparseMatrix.from_dense([[1.0]])
        with pytest.raises(ValueError):
            MNorm(a, StepSizes(1.0, 1.0))

    @given(dense_matrices(5, 5), st.integers(0, 2**31 - 1))
    def test_positive_on_nonzero(self, arr, seed):
        a = SparseMatrix.from_dense(arr)
        sigma = opnorm_estimate(a).value
        if sigma == 0.0:
            steps = StepSizes(1.0, 1.0)
        else:
            steps = StepSizes.for_matrix(a, factor=0.9)
        mn = MNorm(a, steps)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(a.n_cols)
        y = rng.standard_normal(a.n_rows)
        if np.all(x == 0.0) and np.all(y == 0.0):
            return
        val = mn(x, y)
        assert val > 0.0
        assert mn(np.zeros(a.n_cols), np.zeros(a.n_rows)) == 0.0

    def test_matches_explicit_quadratic_form(self):
        a = SparseMatrix.from_dense([[1.0, -1.0], [0.0, 2.0]])
        steps = StepSizes.for_matrix(a, factor=0.8)
        mn = MNorm(a, steps)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(2)
            y = rng.standard_normal(2)
            # z'Mz with M = [[I/eta, A'], [A, I/tau]], the general-form step's.
            m = np.block(
                [[np.eye(2) / steps.eta, a.to_dense().T],
                 [a.to_dense(), np.eye(2) / steps.tau]]
            )
            z = np.concatenate([x, y])
            explicit = z @ m @ z
            assert mn.sq(x, y) == pytest.approx(explicit, rel=1e-12, abs=1e-12)

    def test_call_is_root_of_sq(self):
        a = SparseMatrix.from_dense([[1.0]])
        steps = StepSizes(0.5, 0.5)
        assert MNorm(a, steps)(np.array([2.0]), np.array([0.0])) == pytest.approx(
            np.sqrt(8.0)
        )


class TestSupportProjection:
    @pytest.mark.parametrize("shape,rank", [((4, 7), 4), ((6, 5), 5), ((5, 8), 3)])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_against_pinv(self, shape, rank, sparse):
        rng = np.random.default_rng(sum(shape) + rank)
        k = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
        c = rng.standard_normal(shape[1])
        b = rng.standard_normal(shape[0])
        proj = support_projection(sp.csr_matrix(k) if sparse else k, c, b)
        pinv = np.linalg.pinv(k)
        np.testing.assert_allclose(proj.null_c, c - pinv @ (k @ c), atol=1e-10)
        np.testing.assert_allclose(proj.null_b, b - k @ (pinv @ b), atol=1e-10)
        np.testing.assert_allclose(proj.onto_rows(0.0 * c, b), pinv @ b, atol=1e-10)
        np.testing.assert_allclose(proj.onto_cols(0.0 * b, c), pinv.T @ c, atol=1e-10)
        np.testing.assert_allclose(k @ proj.null_c, 0.0, atol=1e-10)
        np.testing.assert_allclose(k.T @ proj.null_b, 0.0, atol=1e-10)

    @pytest.mark.parametrize("shape,rank", [((4, 7), 4), ((5, 8), 3)])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_moves_any_point_onto_the_affine_sets(self, shape, rank, sparse):
        # Consistent right-hand sides: the moved points meet them, and each
        # move is the least-norm one.
        rng = np.random.default_rng(sum(shape) * rank)
        k = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
        rhs = k @ rng.standard_normal(shape[1])
        c = k.T @ rng.standard_normal(shape[0])
        x, y = rng.standard_normal(shape[1]), rng.standard_normal(shape[0])
        proj = support_projection(sp.csr_matrix(k) if sparse else k, c, rhs)
        pinv = np.linalg.pinv(k)
        x_p, y_p = proj.onto_rows(x, rhs), proj.onto_cols(y, c)
        np.testing.assert_allclose(k @ x_p, rhs, atol=1e-10)
        np.testing.assert_allclose(k.T @ y_p, c, atol=1e-10)
        np.testing.assert_allclose(x_p, x + pinv @ (rhs - k @ x), atol=1e-10)
        np.testing.assert_allclose(y_p, y + pinv.T @ (c - k.T @ y), atol=1e-10)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 4), (2, 3)])
    def test_empty_and_zero_blocks(self, shape):
        k = np.zeros(shape)
        c, b = np.arange(shape[1]) + 1.0, np.arange(shape[0]) + 1.0
        proj = support_projection(k, c, b)
        np.testing.assert_array_equal(proj.null_c, c)
        np.testing.assert_array_equal(proj.null_b, b)
        np.testing.assert_array_equal(proj.onto_rows(c, b), c)
        np.testing.assert_array_equal(proj.onto_cols(b, c), b)
