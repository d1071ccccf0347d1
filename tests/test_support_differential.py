"""linalg.Support held to a frozen copy of the three pieces it replaced: the
block projector (support_projection), the support that embeds its parts
(_Support) and the builder that read the support off an active pattern
(_support_point), which made one eigh of the whole Gram matrix G = K K'.
lam, rhs, x_fixed, d, w and both parts of project must agree to the bit
wherever G's nonzero pattern is one connected component, on dense and CSR
matrices, random masks, empty supports and rank-deficient blocks.  Support
decomposes a G of several components one component at a time, so there
they agree within SPLIT_TOL (relative to the largest entry of the frozen
copy's value, and at least absolute)."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from pdhglp.linalg import Support


class ReferenceProjection:
    def __init__(self, k, u, lam, null_c, null_b):
        self.k, self.u, self.lam, self.null_c, self.null_b = k, u, lam, null_c, null_b

    def _g_pinv(self, v):
        return self.u @ ((self.u.T @ v) / self.lam)

    def onto_rows(self, x, rhs):
        return x + self.k.T @ self._g_pinv(rhs - self.k @ x)

    def onto_cols(self, y, c):
        return y + self._g_pinv(self.k @ (c - self.k.T @ y))


def reference_projection(k, c, b):
    g = k @ k.T
    if sp.issparse(g):
        g = g.toarray()
    lam, u = np.linalg.eigh(g)
    cut = lam[-1] * max(k.shape) * np.finfo(np.float64).eps if lam.size else 0.0
    keep = lam > cut
    lam, u = lam[keep], u[:, keep]
    w = u @ ((u.T @ (k @ c)) / lam)
    return ReferenceProjection(k, u, lam, c - k.T @ w, b - u @ (u.T @ b))


class ReferenceSupport:
    def __init__(self, ps, proj, cols, rows, rhs, x_fixed):
        self.ps, self.proj = ps, proj
        self.cols, self.rows, self.rhs, self.x_fixed = cols, rows, rhs, x_fixed
        self.d = np.zeros(ps.n)
        self.d[cols] = -proj.null_c
        self.w = np.zeros(ps.m)
        self.w[rows] = proj.null_b

    def project(self, x, y):
        ps, proj, cols, rows = self.ps, self.proj, self.cols, self.rows
        x_p = self.x_fixed.copy()
        x_p[cols] = proj.onto_rows(x[cols], self.rhs)
        y_p = np.zeros(ps.m)
        y_p[rows] = proj.onto_cols(y[rows], ps.c[cols])
        return x_p, y_p


def reference_support(ps, a, x, pattern):
    cols = pattern[: ps.n] == 0
    rows = pattern[ps.n :] == 0
    a_r = a[rows]
    x_fixed = np.where(cols, 0.0, x)
    rhs = ps.b[rows] - a_r @ x_fixed
    proj = reference_projection(a_r[:, cols], ps.c[cols], rhs)
    return ReferenceSupport(ps, proj, cols, rows, rhs, x_fixed)


SPLIT_TOL = 1e-11


def _same(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _close(got, want):
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert float(np.max(np.abs(got - want), initial=0.0)) <= SPLIT_TOL * scale


def _components(k):
    """The number of connected components of the nonzero pattern of the
    dense K's Gram matrix K K'."""
    g = k @ k.T
    return connected_components(sp.csr_matrix(g != 0), directed=False)[0] if g.size else 0


def _matrix(rng, m, n, rank, density):
    """An m x n matrix of at most the given rank, with entries zeroed at
    random: dense blocks of low rank and sparse blocks with empty rows."""
    a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    return np.where(rng.random((m, n)) < density, a, 0.0)


CASES = [
    # (m, n, rank, density, share of columns, share of rows)
    (6, 9, 6, 1.0, 0.6, 0.7),
    (8, 5, 2, 1.0, 0.8, 1.0),  # rank-deficient
    (12, 20, 12, 0.3, 0.5, 0.6),
    (10, 10, 3, 1.0, 1.0, 1.0),  # rank-deficient, every column and row
    (7, 11, 7, 1.0, 0.0, 0.6),  # no columns
    (7, 11, 7, 1.0, 0.6, 0.0),  # no rows
    (5, 6, 1, 0.0, 0.5, 0.5),  # all-zero block
]


def _draw(case, seed):
    """The rng after the draws, the dense matrix, c, b, x and both masks."""
    m, n, rank, density, col_share, row_share = CASES[case]
    rng = np.random.default_rng([case, seed])
    dense = _matrix(rng, m, n, rank, density)
    c, b, x = rng.standard_normal(n), rng.standard_normal(m), rng.standard_normal(n)
    cols = rng.random(n) < col_share
    rows = rng.random(m) < row_share
    return rng, dense, c, b, x, cols, rows


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("case", range(len(CASES)))
@pytest.mark.parametrize("seed", range(3))
def test_matches_the_frozen_pieces(case, sparse, seed):
    rng, dense, c, b, x, cols, rows = _draw(case, seed)
    (m, n), a = dense.shape, sp.csr_matrix(dense) if sparse else dense
    # The pattern codes 1 or 2 off the support, as active_pattern does.
    pattern = np.concatenate([np.where(cols, 0, rng.integers(1, 3, n)), (~rows) * 1])
    pattern = pattern.astype(np.int8)
    want = reference_support(SimpleNamespace(n=n, m=m, b=b, c=c), a, x, pattern)
    got = Support(a, c, b, cols, rows, x)
    agree = _same if _components(dense[rows][:, cols]) <= 1 else _close

    agree(got.lam, want.proj.lam)
    _same(got.rhs, want.rhs)
    _same(got.x_fixed, want.x_fixed)
    agree(got.d, want.d)
    agree(got.w, want.w)
    x_0, y_0 = rng.standard_normal(n), rng.standard_normal(m)
    for g, w in zip(got.project(x_0, y_0), want.project(x_0, y_0)):
        agree(g, w)


def test_the_split_cases():
    # The tolerance above is taken only where G splits: the density-0.3
    # case at seeds 0 and 2 (the eigenvalues, d, w and the projection then
    # move in the last bits), and no dense full-rank case.
    def split(case, seed):
        _, dense, _, _, _, cols, rows = _draw(case, seed)
        return _components(dense[rows][:, cols]) > 1

    assert [split(2, seed) for seed in range(3)] == [True, False, True]
    assert not any(split(0, seed) for seed in range(3))
