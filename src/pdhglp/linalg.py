"""Sparse matrix kernels, step sizes, the iteration norm, and the support
projector.

Everything downstream (the solver, the certificate checks, the analysis)
measures distances in the norm induced by

    M = [[ (1/eta) I,  A^T ],
         [ A,          (1/tau) I ]]

where A is the matrix of the general-form problem the PDHG step iterates
(a standard-form problem's lowering has -A there).  M is positive definite
exactly when eta * tau * ||A||_2^2 < 1, which is why step sizes and the
operator norm estimate live here too.

Support is the one place that decomposes a Gram matrix: pdhg.run polishes
with it, and identify.affine_phase reads the post-freeze spectrum off it.
The Gram matrix of a support is block-diagonal up to a permutation, so
Support finds the connected components of its nonzero pattern
(_components, with numpy alone) and decomposes it one component at a time,
with one batched eigh per component size.
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
    "GRAM_MAX_ORDER",
    "Support",
    "max0",
    "opnorm_estimate",
]

# Matrices with at most this many entries (m * n) are worked on dense: one
# BLAS call per product beats sparse bookkeeping at desk scale.
DENSE_LIMIT = 10_000


class SparseMatrix:
    """CSR matrix with canonical entry order and float64 data.

    Duplicate (row, col) pairs in the input are summed during construction;
    afterwards the stored layout is unique and sorted, so repeated products
    accumulate in a fixed order and runs are reproducible.  The stored
    entries are treated as immutable: A', dense A and the norm estimate are
    built once, on first use, and kept.
    """

    __slots__ = ("csr", "_csr_t", "_dense", "_opnorm")

    def __init__(self, csr: sp.csr_matrix):
        if not sp.isspmatrix_csr(csr):
            csr = sp.csr_matrix(csr)
        csr = csr.astype(np.float64, copy=False)
        csr.sum_duplicates()
        csr.sort_indices()
        self.csr = csr
        self._csr_t: sp.csr_matrix | None = None
        self._dense: np.ndarray | None = None
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
        one estimate."""
        if self._opnorm is None:
            self._opnorm = opnorm_estimate(self)
        return self._opnorm

    @property
    def dense(self) -> np.ndarray | None:
        """A as a read-only array, built on first use; None past DENSE_LIMIT."""
        if self._dense is None and self.n_rows * self.n_cols <= DENSE_LIMIT:
            self._dense = self.csr.toarray()
            self._dense.flags.writeable = False
        return self._dense

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        coo = self.csr.tocoo()
        return coo.row.copy(), coo.col.copy(), coo.data.copy()

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
    """The solver or the exact oracle cannot proceed on input that passed
    validation, such as an all-zero matrix that admits no step sizes or an
    elimination that outgrows the oracle's cap on rows."""


@dataclass(frozen=True)
class OperatorNormEstimate:
    """||A||_2 as opnorm_estimate computed it.

    iterations counts Golub-Kahan steps (0 on the dense path), and converged
    is False when the steps ran out or the Frobenius fallback answered.
    value == 0.0 flags an all-zero matrix; step-size construction must
    reject that case rather than divide by it.
    """

    value: float
    iterations: int
    converged: bool


# Golub-Kahan keeps at most this many vectors per side; a run that fills
# them restarts from its top Ritz vector.  The scaled 300 x 1200 benchmark
# matrices converged within 41 steps.
_GK_BASIS = 48


def opnorm_estimate(
    a: SparseMatrix, tol: float = 1e-9, max_iters: int = 500
) -> OperatorNormEstimate:
    """||A||_2, two ways split like every layer's storage (SparseMatrix.dense).

    Dense: the square root of the largest eigenvalue (eigvalsh) of the
    smaller Gram matrix of A.dense, A A' or A'A, exact to roundoff.  Not
    np.linalg.norm(A, 2): the SVD of A and of -A can differ in the last
    bit, and a standard-form problem's lowering iterates -A with the step
    sizes of A.  The Gram matrix of -A is that of A to the bit.  tol and
    max_iters are not read.

    CSR, past DENSE_LIMIT: Golub-Kahan bidiagonalization (_golub_kahan)
    from a fixed seeded start, at most max_iters steps, stopping when the
    top singular value of the bidiagonal, a lower bound of ||A||_2, moves by
    at most tol relative.  A step can move less than the distance left, so
    the value can sit below ||A||_2 by a little more than tol: tol = 1e-8
    left one of the 24 scaled sparse benchmark matrices 1.1e-8 below, and
    1e-9 left all of them within 8.1e-10 for 2 more steps each.  Negating A
    negates one basis and keeps the other and the bidiagonal, so -A gets
    the same value to the bit here too.

    If the value is 0 on a matrix with stored entries, the Frobenius norm of
    those entries is returned as a safe upper bound, flagged as not
    converged.
    """
    m, n = a.shape
    if m == 0 or n == 0 or a.nnz == 0:
        return OperatorNormEstimate(0.0, 0, True)
    d = a.dense
    if d is not None:
        gram = d @ d.T if m <= n else d.T @ d
        lam = float(np.linalg.eigvalsh(gram)[-1])
        est = OperatorNormEstimate(float(np.sqrt(max(lam, 0.0))), 0, True)
    else:
        start = np.random.default_rng(0xA11CE).standard_normal(n)
        est = _golub_kahan(a, start / np.linalg.norm(start), tol, max_iters)
    if est.value == 0.0:
        return OperatorNormEstimate(float(np.linalg.norm(a.csr.data)), 0, False)
    return est


def _orthogonalized(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """w less its projection on the orthonormal rows of basis, taken twice
    (classical Gram-Schmidt with one reorthogonalization)."""
    for _ in range(2):
        w = w - basis.T @ (basis @ w)
    return w


def _golub_kahan(
    a: SparseMatrix, v: np.ndarray, tol: float, max_iters: int
) -> OperatorNormEstimate:
    """The top singular value of A by Golub-Kahan bidiagonalization from
    the unit vector v, with full reorthogonalization.

    Step j makes u_j from A v_j and v_{j+1} from A'u_j, each orthogonalized
    against its side's basis, with alpha_j = ||u_j|| and beta_j = ||v_{j+1}||
    before normalization.  Then U'A V is the upper bidiagonal with alpha on
    the diagonal and beta above it, so its top singular value is a lower
    bound of ||A||_2 that never falls from one step to the next.  The run
    stops, converged, when that value moves by at most tol relative; when
    a side's basis spans its whole space (the value is then exact); or at a
    breakdown (alpha or beta 0), where the Krylov space of the start is
    invariant and the value is exact on it.  After _GK_BASIS steps it
    restarts from the top right Ritz vector, so no more than _GK_BASIS + 1
    vectors per side are held.  After max_iters steps it stops, not
    converged.
    """
    m, n = a.shape
    size = min(_GK_BASIS, m, n)
    vs, us = np.empty((size + 1, n)), np.empty((size, m))
    bidiag = np.zeros((size, size + 1))
    sigma, steps = 0.0, 0
    while True:
        vs[0] = v
        for j in range(size):
            steps += 1
            u = _orthogonalized(a.matvec(vs[j]), us[:j])
            alpha = float(np.linalg.norm(u))
            if alpha == 0.0:
                return OperatorNormEstimate(sigma, steps, True)
            us[j] = u / alpha
            w = _orthogonalized(a.rmatvec(us[j]), vs[: j + 1])
            beta = float(np.linalg.norm(w))
            bidiag[j, j], bidiag[j, j + 1] = alpha, beta
            top = float(np.linalg.svd(bidiag[: j + 1, : j + 2], compute_uv=False)[0])
            moved = top - sigma
            sigma = max(sigma, top)
            if beta == 0.0 or j + 1 == min(m, n) or moved <= tol * sigma:
                return OperatorNormEstimate(sigma, steps, True)
            if steps >= max_iters:
                return OperatorNormEstimate(sigma, steps, False)
            vs[j + 1] = w / beta
        _, _, vt = np.linalg.svd(bidiag)
        v = vt[0] @ vs
        v /= np.linalg.norm(v)


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
        # The check is on the estimate, which can sit below ||A||_2 by up to
        # opnorm_estimate's tol (relative) past DENSE_LIMIT; the step factor's
        # margin (StepSizes.for_matrix) is what covers that, not this check.
        sigma = a.opnorm().value
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


# Support decomposes a Gram matrix only up to this order (Support.within_cap).
# The cap bounds the dense G and U it holds, 8 MB each at order 1000, and
# the eigh of a G that is one component: on one Xeon core numpy's eigh took
# 5-9 ms at order 300, 0.25 s at 1000 and 1.7 s at 2000.
GRAM_MAX_ORDER = 1000

_EPS = float(np.finfo(np.float64).eps)


def _components(i: np.ndarray, j: np.ndarray, n: int) -> list[np.ndarray]:
    """The connected components of the undirected graph on n nodes with the
    edges (i, j), one (count, size) array of node indices per component
    size, ascending: each row is one component in ascending order, and
    components of one size come in the order of their least index.  One
    component gives [arange(n)[None]].
    """
    labels = np.arange(n)
    while True:
        # Both ends of each edge take the lesser label, then every node its
        # label's label; a label never leaves its component and only
        # decreases, so once every edge joins equal labels each component is
        # labelled by its least index.
        np.minimum.at(labels, i, labels[j])
        np.minimum.at(labels, j, labels[i])
        labels = labels[labels]
        if not labels.any():  # one component, or none
            return [np.arange(n)[None]] if n else []
        if not np.count_nonzero(labels[i] != labels[j]):
            break
    size = np.bincount(labels, minlength=n)  # at each component's least index
    order = np.lexsort((labels, size[labels]))
    per_size = np.bincount(size)
    groups, start = [], 0
    for s in (per_size[1:].nonzero()[0] + 1).tolist():
        stop = start + s * int(per_size[s])
        groups.append(order[start:stop].reshape(-1, s))
        start = stop
    return groups


def _dense_components(g: np.ndarray) -> list[np.ndarray]:
    """_components of the nonzero pattern of the dense square matrix g.  A
    row 0 with no zero joins node 0 to every node, so that one component is
    taken without building the edge list."""
    n = g.shape[0]
    if n and g[0].all():
        return [np.arange(n)[None]]
    return _components(*g.nonzero(), n)


class Support:
    """The support of min c'x : A x >= b (= b on equality rows) on the
    columns cols and rows rows (boolean masks), the other columns held at
    x (x_fixed).  a, and so the block K = A_RF, is dense or scipy-sparse.

    G = K K' = U diag(lam) U', with lam ascending, kept on its numerical
    range (eigenvalues up to lam_max * max(K.shape) * machine epsilon are
    cut), gives the displacement's direction, 0 off the support: -P_null(K)
    c_F as d (dual side) and P_null(K') rhs as w (primal), rhs = b_R - A_RB
    x_B.  G is block-diagonal up to a permutation, one block per connected
    component of its nonzero pattern (a planted 300-row support has 75
    blocks of 4), so it is decomposed one component at a time, with one
    batched eigh per component size, and each block's eigenvectors fill
    their rows of U.  A G that is one component gets the bits of one eigh
    of the whole.
    """

    def __init__(self, a, c: np.ndarray, b: np.ndarray, cols, rows, x: np.ndarray):
        a_r = a[rows]
        self.cols, self.rows = cols, rows
        self.x_fixed = np.where(cols, 0.0, x)
        self.rhs = b[rows] - a_r @ self.x_fixed
        self.k = k = a_r[:, cols]
        self.c_f = c[cols]
        g = k @ k.T
        n = g.shape[0]
        if sp.issparse(g):
            g = g.tocsr()
            i, j = np.repeat(np.arange(n), g.indptr[1:] - g.indptr[:-1]), g.indices
            groups = _components(i, j, n)
            g = g.toarray()
        else:
            groups = _dense_components(g)
        lam, u, slots = np.empty(n), np.zeros((n, n)), np.arange(n)
        start = 0
        for blocks in groups:
            # Block t of size s puts its eigenpairs in slots start + t*s, ...
            stop = start + blocks.size
            lam_b, u_b = np.linalg.eigh(g[blocks[:, :, None], blocks[:, None, :]])
            lam[start:stop] = lam_b.reshape(-1)
            u[blocks[:, :, None], slots[start:stop].reshape(len(blocks), 1, -1)] = u_b
            start = stop
        order = np.argsort(lam, kind="stable")
        cut = lam[order[-1]] * max(k.shape) * _EPS if n else 0.0
        keep = order[lam[order] > cut]
        self.lam, self.u = lam[keep], u[:, keep]
        self.d = np.zeros(cols.size)
        self.d[cols] = -(self.c_f - k.T @ self._g_pinv(k @ self.c_f))
        self.w = np.zeros(rows.size)
        self.w[rows] = self.rhs - self.u @ (self.u.T @ self.rhs)

    @classmethod
    def within_cap(cls, a, c, b, cols, rows, x) -> "Support | None":
        """Support(a, c, b, cols, rows, x), or None, with nothing computed,
        when the support has more than GRAM_MAX_ORDER rows."""
        if np.count_nonzero(rows) > GRAM_MAX_ORDER:
            return None
        return cls(a, c, b, cols, rows, x)

    def _g_pinv(self, v: np.ndarray) -> np.ndarray:
        """G+ v."""
        return self.u @ ((self.u.T @ v) / self.lam)

    def project(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) moved to the nearest point of {K x_F = rhs} and of
        {K'y_R = c_F}, up to the parts off the ranges, with products of K,
        K' and U only; off the support x is x_fixed and y is 0."""
        k, cols, rows = self.k, self.cols, self.rows
        x_p = self.x_fixed.copy()
        x_p[cols] = x[cols] + k.T @ self._g_pinv(self.rhs - k @ x[cols])
        y_p = np.zeros(rows.size)
        y_p[rows] = y[rows] + self._g_pinv(k @ (self.c_f - k.T @ y[rows]))
        return x_p, y_p
