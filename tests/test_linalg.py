import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pdhglp import demos, linalg
from pdhglp.linalg import (
    MNorm,
    SparseMatrix,
    StepSizes,
    Support,
    opnorm_estimate,
)

from helpers import block_copies

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
        assert a.csr.toarray().tolist() == [[0.0, 5.0], [1.0, 0.0]]
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
        np.testing.assert_array_equal(t.toarray(), a.csr.toarray().T)

    def test_dense_built_once_and_read_only(self, rng):
        csr = sp.random(100, 100, density=0.1, format="csr", random_state=rng)
        a = SparseMatrix(csr)
        d = a.dense
        assert a.dense is d
        np.testing.assert_array_equal(d, a.csr.toarray())
        with pytest.raises(ValueError):
            d[0, 0] = 1.0

    def test_dense_only_within_dense_limit(self):
        assert SparseMatrix.from_triplets(100, 100, [0], [0], [1.0]).dense is not None
        assert SparseMatrix.from_triplets(100, 101, [0], [0], [1.0]).dense is None

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
        np.testing.assert_array_equal(a.csr.toarray(), arr)


def _svd_norm(a: SparseMatrix) -> float:
    return float(np.linalg.svd(a.csr.toarray(), compute_uv=False)[0])


def _negated(a: SparseMatrix) -> SparseMatrix:
    return SparseMatrix(-a.csr)


def _past_dense_limit(block) -> SparseMatrix:
    """block repeated down the diagonal until the matrix has more than
    DENSE_LIMIT entries."""
    block = sp.csr_matrix(np.asarray(block, dtype=np.float64))
    m, n = block.shape
    copies = int(np.sqrt(linalg.DENSE_LIMIT / (m * n))) + 1
    return SparseMatrix(sp.block_diag([block] * copies, format="csr"))


def _golub_kahan_cases() -> dict[str, SparseMatrix]:
    """CSR matrices past DENSE_LIMIT, where opnorm_estimate runs Golub-Kahan."""
    rng = np.random.default_rng(7)
    holes = rng.standard_normal((150, 90)) * (rng.random((150, 90)) < 0.2)
    holes[::7] = 0.0  # zero rows
    holes[:, ::5] = 0.0  # zero columns
    cases = {
        "block_copies": block_copies(demos.example1(1, 2), 40).a,
        "block_copies_random": block_copies(
            demos.random_cell_instance("both_infeasible", np.random.default_rng(3)), 30
        ).a,
        # sqrt(3) is the top singular value of every block: a repeated top
        "repeated_top": _past_dense_limit([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]),
        "zero_rows_and_columns": SparseMatrix(sp.csr_matrix(holes)),
        # the all-ones vector lies in an invariant subspace missing the top
        "invariant_ones": _past_dense_limit([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]),
        "one_row": SparseMatrix(sp.csr_matrix(rng.standard_normal((1, 12000)))),
    }
    for a in cases.values():
        assert a.n_rows * a.n_cols > linalg.DENSE_LIMIT
    return cases


GK_CASES = _golub_kahan_cases()


class TestOperatorNorm:
    @given(dense_matrices(6, 6))
    def test_estimate_close_to_svd(self, arr):
        # Up to DENSE_LIMIT the Gram eigenvalue is exact to roundoff, and
        # -A gets the value of A to the bit.
        a = SparseMatrix.from_dense(arr)
        true = float(np.linalg.svd(arr, compute_uv=False)[0])
        est = opnorm_estimate(a)
        assert est.value == pytest.approx(true, rel=1e-12, abs=1e-300)
        assert est.iterations == 0 and est.converged
        assert opnorm_estimate(_negated(a)) == est

    @pytest.mark.parametrize("name", sorted(GK_CASES))
    def test_golub_kahan_matches_svd(self, name):
        # A lower bound within 1e-8 of the SVD norm at the default tol;
        # -A gets the value of A to the bit.
        a = GK_CASES[name]
        true = _svd_norm(a)
        est = opnorm_estimate(a)
        assert est.converged and 0 < est.iterations <= linalg._GK_BASIS
        assert est.value <= true * (1.0 + 1e-12)
        assert est.value == pytest.approx(true, rel=1e-8)
        assert opnorm_estimate(_negated(a)) == est

    def test_invariant_subspace_start_is_escaped(self):
        # The all-ones vector lies in an invariant subspace of A'A that
        # misses the top pair: power iteration from it finds 1.  Both paths
        # find sqrt(2).
        block = [[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]
        for a in (SparseMatrix.from_dense(block), GK_CASES["invariant_ones"]):
            assert opnorm_estimate(a).value == pytest.approx(np.sqrt(2.0), rel=1e-8)

    @pytest.mark.parametrize("n", [2, 200], ids=["dense", "golub_kahan"])
    def test_zero_matrix(self, n):
        # Nothing stored, and only zeros stored (the Frobenius fallback).
        empty = SparseMatrix.from_triplets(n, n, [], [], [])
        zeros = SparseMatrix.from_triplets(n, n, [0, 1], [1, 0], [0.0, 0.0])
        assert zeros.nnz == 2
        assert opnorm_estimate(empty) == linalg.OperatorNormEstimate(0.0, 0, True)
        assert opnorm_estimate(zeros) == linalg.OperatorNormEstimate(0.0, 0, False)
        for a in (empty, zeros):
            with pytest.raises(linalg.SolverError):
                StepSizes.for_matrix(a)

    def test_basis_bound_restarts(self, monkeypatch):
        # With room for 3 vectors a side the run restarts from its top Ritz
        # vector and still converges.  Its memory is that of the bound: the
        # vectors of 16 steps would take more, and max_iters vectors could
        # not be allocated at all.
        a = GK_CASES["zero_rows_and_columns"]
        monkeypatch.setattr(linalg, "_GK_BASIS", 3)
        tracemalloc.start()
        try:
            est = opnorm_estimate(a, max_iters=10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.converged and est.iterations > 16
        assert est.value == pytest.approx(_svd_norm(a), rel=1e-8)
        assert peak < 16 * 8 * (a.n_rows + a.n_cols)

    def test_step_budget(self):
        a = GK_CASES["zero_rows_and_columns"]
        est = opnorm_estimate(a, max_iters=2)
        assert est.iterations == 2 and not est.converged
        assert 0 < est.value <= _svd_norm(a)

    def test_kept_per_matrix(self, monkeypatch):
        # The step sizes and every MNorm of one matrix share one estimate,
        # at opnorm_estimate's default settings; another matrix gets its own.
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
                [[np.eye(2) / steps.eta, a.csr.toarray().T],
                 [a.csr.toarray(), np.eye(2) / steps.tau]]
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


def _whole_block(k, c, b, sparse):
    """The Support of every column and row of K, nothing held."""
    m, n = k.shape
    a = sp.csr_matrix(k) if sparse else k
    return Support(a, c, b, np.ones(n, dtype=bool), np.ones(m, dtype=bool), np.zeros(n))


class TestSupport:
    @pytest.mark.parametrize("shape,rank", [((4, 7), 4), ((6, 5), 5), ((5, 8), 3)])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_against_pinv(self, shape, rank, sparse):
        rng = np.random.default_rng(sum(shape) + rank)
        k = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
        c = rng.standard_normal(shape[1])
        b = rng.standard_normal(shape[0])
        sup = _whole_block(k, c, b, sparse)
        pinv = np.linalg.pinv(k)
        np.testing.assert_allclose(-sup.d, c - pinv @ (k @ c), atol=1e-10)
        np.testing.assert_allclose(sup.w, b - k @ (pinv @ b), atol=1e-10)
        x_p, y_p = sup.project(0.0 * c, 0.0 * b)
        np.testing.assert_allclose(x_p, pinv @ b, atol=1e-10)
        np.testing.assert_allclose(y_p, pinv.T @ c, atol=1e-10)
        np.testing.assert_allclose(k @ sup.d, 0.0, atol=1e-10)
        np.testing.assert_allclose(k.T @ sup.w, 0.0, atol=1e-10)

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
        sup = _whole_block(k, c, rhs, sparse)
        pinv = np.linalg.pinv(k)
        x_p, y_p = sup.project(x, y)
        np.testing.assert_allclose(k @ x_p, rhs, atol=1e-10)
        np.testing.assert_allclose(k.T @ y_p, c, atol=1e-10)
        np.testing.assert_allclose(x_p, x + pinv @ (rhs - k @ x), atol=1e-10)
        np.testing.assert_allclose(y_p, y + pinv.T @ (c - k.T @ y), atol=1e-10)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 4), (2, 3)])
    def test_empty_and_zero_blocks(self, shape):
        k = np.zeros(shape)
        c, b = np.arange(shape[1]) + 1.0, np.arange(shape[0]) + 1.0
        sup = _whole_block(k, c, b, sparse=False)
        np.testing.assert_array_equal(sup.d, -c)
        np.testing.assert_array_equal(sup.w, b)
        x_p, y_p = sup.project(c, b)
        np.testing.assert_array_equal(x_p, c)
        np.testing.assert_array_equal(y_p, b)

    def test_held_columns_and_rows_off_the_support(self):
        # Off the support x keeps the held values and y and both directions
        # are 0; the held columns move the right-hand side.
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 6))
        c, b, x = rng.standard_normal(6), rng.standard_normal(4), rng.standard_normal(6)
        cols = np.array([True, False, True, True, False, True])
        rows = np.array([True, True, False, True])
        sup = Support(a, c, b, cols, rows, x)
        np.testing.assert_array_equal(sup.rhs, b[rows] - a[rows] @ np.where(cols, 0.0, x))
        x_p, y_p = sup.project(rng.standard_normal(6), rng.standard_normal(4))
        np.testing.assert_array_equal(x_p[~cols], x[~cols])
        assert not y_p[~rows].any() and not sup.d[~cols].any() and not sup.w[~rows].any()
        np.testing.assert_allclose(a[rows][:, cols] @ x_p[cols], sup.rhs, atol=1e-10)

    def test_cap(self, monkeypatch):
        # Up to the cap the support is built; past it None, with no eigh.
        monkeypatch.setattr(linalg, "GRAM_MAX_ORDER", 3)
        args = (np.ones((4, 2)), np.zeros(2), np.zeros(4), np.ones(2, dtype=bool))
        rows = np.array([True, True, True, False])
        assert Support.within_cap(*args, rows, np.zeros(2)) is not None
        monkeypatch.setattr(np.linalg, "eigh", None)
        assert Support.within_cap(*args, np.ones(4, dtype=bool), np.zeros(2)) is None
