"""Sparse matrix kernels, step sizes, and the iteration norm.

Everything downstream (the solver, the certificate checks, the operator
experiments) measures distances in the norm induced by

    M = [[ (1/eta) I,  A^T ],
         [ A,          (1/tau) I ]]

where A is the matrix of the general-form problem the PDHG step iterates
(a standard-form problem's lowering has -A there).  M is positive definite
exactly when eta * tau * ||A||_2^2 < 1, which is why step sizes and the
operator norm estimate live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DENSE_LIMIT",
    "SparseMatrix",
    "StepSizes",
    "OperatorNormEstimate",
    "MNorm",
    "SolverError",
    "SupportProjection",
    "max0",
    "opnorm_estimate",
    "support_projection",
]

# Matrices with at most this many entries (m * n) are worked on dense: one
# BLAS call per product beats sparse bookkeeping at desk scale.
DENSE_LIMIT = 10_000


class SparseMatrix:
    """CSR matrix with canonical entry order and float64 data.

    Duplicate (row, col) pairs in the input are summed during construction;
    afterwards the stored layout is unique and sorted, so repeated products
    accumulate in a fixed order and runs are reproducible.  The stored
    entries are treated as immutable: the transpose and the operator norm
    estimate are built once, on first use, and kept.
    """

    __slots__ = ("csr", "_csr_t", "_opnorm")

    def __init__(self, csr: sp.csr_matrix):
        if not sp.isspmatrix_csr(csr):
            csr = sp.csr_matrix(csr)
        csr = csr.astype(np.float64, copy=False)
        csr.sum_duplicates()
        csr.sort_indices()
        self.csr = csr
        self._csr_t: sp.csr_matrix | None = None
        self._opnorm: OperatorNormEstimate | None = None

    @classmethod
    def from_triplets(
        cls,
        n_rows: int,
        n_cols: int,
        rows: Sequence[int],
        cols: Sequence[int],
        values: Sequence[float],
    ) -> "SparseMatrix":
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols, values must have equal length")
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("column index out of range")
        coo = sp.coo_matrix((values, (rows, cols)), shape=(n_rows, n_cols))
        return cls(coo.tocsr())

    @classmethod
    def from_dense(cls, arr: Iterable[Iterable[float]]) -> "SparseMatrix":
        return cls(sp.csr_matrix(np.asarray(arr, dtype=np.float64)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape

    @property
    def n_rows(self) -> int:
        return self.csr.shape[0]

    @property
    def n_cols(self) -> int:
        return self.csr.shape[1]

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a dense vector x."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ValueError(f"expected vector of length {self.n_cols}, got {x.shape}")
        return self.csr @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A^T @ y for a dense vector y."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.n_rows,):
            raise ValueError(f"expected vector of length {self.n_rows}, got {y.shape}")
        # csr.T @ y would build a CSC view on every call; the cached CSR of
        # A' sums each output entry in the same order, so the result is the
        # same to the bit.
        return self.transposed_csr() @ y

    def transposed_csr(self) -> sp.csr_matrix:
        """A' in CSR layout, built on the first call and kept."""
        if self._csr_t is None:
            self._csr_t = self.csr.T.tocsr()
        return self._csr_t

    def opnorm(self) -> "OperatorNormEstimate":
        """opnorm_estimate(self) at its default settings, run on the first
        call and kept, so the step sizes and every MNorm of one matrix share
        one power iteration."""
        if self._opnorm is None:
            self._opnorm = opnorm_estimate(self)
        return self._opnorm

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        coo = self.csr.tocoo()
        return coo.row.copy(), coo.col.copy(), coo.data.copy()

    def same_entries(self, other: "SparseMatrix") -> bool:
        """Exact structural and numerical equality of stored entries."""
        if self.shape != other.shape:
            return False
        a, b = self.csr, other.csr
        return (
            np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data)
        )

    def __repr__(self) -> str:
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


def max0(v: np.ndarray) -> float:
    """max(0, max(v)), and 0.0 for an empty v; NaN propagates.

    The value of np.max(np.maximum(v, 0.0), initial=0.0) from one ufunc
    reduction, without np.max's Python-level dispatch, which costs more than
    the reduction itself on the short vectors of small problems.
    """
    return float(np.maximum.reduce(v, initial=0.0))


class SolverError(ValueError):
    """The solver cannot proceed on input that passed validation, such as
    an all-zero matrix that admits no step sizes."""


@dataclass(frozen=True)
class OperatorNormEstimate:
    """Result of the power-iteration spectral norm estimate.

    value == 0.0 flags an all-zero matrix; step-size construction must
    reject that case rather than divide by it.
    """

    value: float
    iterations: int
    converged: bool


def opnorm_estimate(
    a: SparseMatrix, tol: float = 1e-6, max_iters: int = 500
) -> OperatorNormEstimate:
    """Estimate ||A||_2 by power iteration on A^T A.

    Deterministic: runs from the normalized all-ones vector and once more
    from a fixed seeded vector, returning the larger estimate.  The second
    start guards against the all-ones vector sitting inside an invariant
    subspace that misses the top singular pair, which would silently yield
    unsafe step sizes.  If both starts collapse to zero on a nonzero matrix,
    the Frobenius norm is returned as a safe upper bound, flagged as not
    converged.
    """
    n = a.n_cols
    if n == 0 or a.n_rows == 0 or a.nnz == 0:
        return OperatorNormEstimate(0.0, 0, True)

    def power(v: np.ndarray) -> OperatorNormEstimate:
        sigma = 0.0
        for it in range(1, max_iters + 1):
            w = a.rmatvec(a.matvec(v))
            norm_w = float(np.linalg.norm(w))
            if norm_w == 0.0:
                return OperatorNormEstimate(sigma, it, False)
            sigma_new = float(np.sqrt(max(v @ w, 0.0)))
            v = w / norm_w
            if abs(sigma_new - sigma) <= tol * max(sigma_new, 1e-300):
                return OperatorNormEstimate(sigma_new, it, True)
            sigma = sigma_new
        return OperatorNormEstimate(sigma, max_iters, False)

    first = power(np.ones(n) / np.sqrt(n))
    retry = np.random.default_rng(0xA11CE).standard_normal(n)
    second = power(retry / np.linalg.norm(retry))
    best = first if first.value >= second.value else second
    est = OperatorNormEstimate(
        best.value, first.iterations + second.iterations, best.converged
    )
    if est.value == 0.0:
        _, _, vals = a.triplets()
        return OperatorNormEstimate(float(np.linalg.norm(vals)), 0, False)
    return est


@dataclass(frozen=True)
class StepSizes:
    """Primal step eta and dual step tau."""

    eta: float
    tau: float

    def __post_init__(self):
        for name, v in (("eta", self.eta), ("tau", self.tau)):
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {v}")

    @classmethod
    def for_matrix(cls, a: SparseMatrix, factor: float = 0.9) -> "StepSizes":
        """eta = tau = factor / ||A||_2 with factor < 1 keeping M positive definite."""
        if not 0.0 < factor < 1.0:
            raise ValueError(f"step factor must be in (0, 1), got {factor}")
        est = a.opnorm()
        if est.value == 0.0:
            raise SolverError("cannot derive step sizes for an all-zero matrix")
        step = factor / est.value
        return cls(eta=step, tau=step)


class MNorm:
    """The norm ||z||_M^2 = (1/eta)||x||^2 + 2 y'Ax + (1/tau)||y||^2 of the
    general-form step on A (see the module docstring).

    Construction verifies eta * tau * ||A||_2^2 < 1, the
    positive-definiteness condition, and raises otherwise.
    """

    def __init__(self, a: SparseMatrix, steps: StepSizes):
        sigma = a.opnorm().value
        # The power-iteration value slightly underestimates the true norm, so
        # give the check a little slack on the open side only.
        if steps.eta * steps.tau * sigma * sigma >= 1.0:
            raise ValueError(
                "M is not positive definite: eta*tau*||A||^2 = "
                f"{steps.eta * steps.tau * sigma * sigma:.6g} >= 1"
            )
        self.a = a
        self.steps = steps

    def sq(self, x: np.ndarray, y: np.ndarray) -> float:
        q = (
            float(x @ x) / self.steps.eta
            + 2.0 * float(y @ self.a.matvec(x))
            + float(y @ y) / self.steps.tau
        )
        # Roundoff can leave a tiny negative residue for near-zero z.
        return max(q, 0.0)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.sqrt(self.sq(x, y)))

    def rows(self, x_rows: np.ndarray, y_rows: np.ndarray) -> np.ndarray:
        """The norm of every row (x_rows[i], y_rows[i]) of a block.

        One sparse product A X' for the whole block and row-wise dot
        products; the sums run in another order than __call__'s, so values
        agree with it to roundoff, not to the bit.
        """
        ax = (self.a.csr @ x_rows.T).T
        q = (
            np.einsum("ij,ij->i", x_rows, x_rows) / self.steps.eta
            + 2.0 * np.einsum("ij,ij->i", y_rows, ax)
            + np.einsum("ij,ij->i", y_rows, y_rows) / self.steps.tau
        )
        return np.sqrt(np.maximum(q, 0.0))


@dataclass(slots=True)
class SupportProjection:
    """One Gram decomposition G = K K' = U diag(lam) U' of a support block K,
    kept on G's numerical range, with the null-space projections of the
    block's costs c and right-hand side b (see support_projection).

    onto_rows and onto_cols move any given point onto the block's affine
    sets with products of K, K' and U only.
    """

    k: object  # the block K, dense or scipy-sparse
    u: np.ndarray
    lam: np.ndarray
    null_c: np.ndarray  # P_null(K) c
    null_b: np.ndarray  # P_null(K') b

    def _g_pinv(self, v: np.ndarray) -> np.ndarray:
        """G+ v."""
        return self.u @ ((self.u.T @ v) / self.lam)

    def onto_rows(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """x + K'G+ (rhs - K x): the point nearest x with K x = rhs (with
        K x the projection of rhs onto the range of K when rhs is not in
        it)."""
        return x + self.k.T @ self._g_pinv(rhs - self.k @ x)

    def onto_cols(self, y: np.ndarray, c: np.ndarray) -> np.ndarray:
        """y + G+ K (c - K'y): the point nearest y with K'y = c (up to the
        part of c off the range of K')."""
        return y + self._g_pinv(self.k @ (c - self.k.T @ y))


def support_projection(k, c: np.ndarray, b: np.ndarray) -> SupportProjection:
    """The projector of a dense or scipy-sparse block K, for the block's
    costs c and right-hand side b, from one eigendecomposition of G = K K'.

    Eigenvalues up to lambda_max * max(K.shape) * machine epsilon count as
    zero, so G+ is the pseudo-inverse on the numerical range of K.  Each
    vector takes at most one product with K or K'; a sparse K stays sparse
    and only G, of order K.shape[0], is made dense.
    """
    g = k @ k.T
    if sp.issparse(g):
        g = g.toarray()
    lam, u = np.linalg.eigh(g)
    cut = lam[-1] * max(k.shape) * np.finfo(np.float64).eps if lam.size else 0.0
    keep = lam > cut
    lam, u = lam[keep], u[:, keep]
    w = u @ ((u.T @ (k @ c)) / lam)
    return SupportProjection(
        k=k, u=u, lam=lam, null_c=c - k.T @ w, null_b=b - u @ (u.T @ b)
    )
