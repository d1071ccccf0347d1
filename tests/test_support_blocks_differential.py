"""linalg.Support decomposes G = K K' one connected component of its
nonzero pattern at a time.  Here it is held to one eigh of the whole G, on
supports whose K is block-diagonal up to a permutation of its rows and
columns: blocks of mixed sizes, zero rows, rank-deficient blocks and a
block whose eigenvalues all lie below the cut, dense and CSR.

lam, U U', G+ v, d, w and both parts of project agree within TOL times the
condition number lam_max / lam_min of the kept spectrum, relative to the
largest entry of the whole-matrix value (and at least absolute): one eigh
of the whole G gets a small eigenvalue to about machine epsilon times
lam_max, and G+ carries that error, so the two differ by about epsilon
times the condition number (at most 1.6e-16 of it here).  Where G is one
component they agree to the bit.  The component search is held to scipy's
connected_components on graphs given as edge lists."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from pdhglp import linalg
from pdhglp.linalg import Support

TOL = 1e-14


class WholeEigh:
    """Support's pieces from one eigh of the whole G, in Support's order of
    operations, so that one component gives the same bits."""

    def __init__(self, k, c_f, rhs):
        g = k @ k.T
        if sp.issparse(g):
            g = g.toarray()
        lam, u = np.linalg.eigh(g)
        cut = lam[-1] * max(k.shape) * np.finfo(np.float64).eps if lam.size else 0.0
        keep = lam > cut
        self.k, self.c_f, self.rhs = k, c_f, rhs
        self.lam, self.u = lam[keep], u[:, keep]
        self.d = -(c_f - k.T @ self.g_pinv(k @ c_f))
        self.w = rhs - self.u @ (self.u.T @ rhs)

    def g_pinv(self, v):
        return self.u @ ((self.u.T @ v) / self.lam)

    def project(self, x, y):
        k = self.k
        return (
            x + k.T @ self.g_pinv(self.rhs - k @ x),
            y + self.g_pinv(k @ (self.c_f - k.T @ y)),
        )


def _same(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _close(cond):
    def close(got, want):
        assert got.shape == want.shape
        scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
        assert float(np.max(np.abs(got - want), initial=0.0)) <= TOL * cond * scale

    return close


# A block is (rows, columns, rank, scale); rank 0 makes zero rows.
BLOCKS = {
    "mixed": [(3, 5, 3, 1.0), (4, 6, 2, 1.0), (3, 4, 3, 2.0), (2, 2, 1, 0.5),
              (4, 6, 4, 1.0), (3, 5, 3, 1.0), (1, 3, 1, 1.0)],
    "zero rows": [(4, 6, 4, 1.0), (3, 0, 0, 0.0), (2, 5, 2, 1.0)],
    "rank-deficient": [(5, 4, 2, 1.0), (5, 4, 1, 3.0), (6, 9, 3, 1.0)],
    "below the cut": [(4, 6, 4, 1.0), (3, 4, 3, 1e-12), (2, 3, 2, 1.0)],
    "singletons": [(1, 1, 1, 1.0 + i) for i in range(6)],
    "all zero": [(4, 0, 0, 0.0)],
    "one block": [(7, 10, 7, 1.0)],
    "one rank-deficient block": [(8, 5, 2, 1.0)],
}
ONE_COMPONENT = ("one block", "one rank-deficient block")


def _support(rng, blocks, sparse):
    """A matrix whose block on the masked rows and columns is K, the given
    blocks on its diagonal with rows and columns shuffled, the rest of it
    random; with c, b, x and the masks."""
    parts = [
        scale * rng.standard_normal((r, rank)) @ rng.standard_normal((rank, n))
        for r, n, rank, scale in blocks
    ]
    k = sp.block_diag([p if p.size else sp.csr_matrix(p.shape) for p in parts]).toarray()
    k = k[rng.permutation(k.shape[0])][:, rng.permutation(k.shape[1])]
    (mk, nk), (m, n) = k.shape, (k.shape[0] + 3, k.shape[1] + 4)
    rows = np.zeros(m, bool)
    rows[rng.choice(m, mk, replace=False)] = True
    cols = np.zeros(n, bool)
    cols[rng.choice(n, nk, replace=False)] = True
    a = rng.standard_normal((m, n))
    a[np.ix_(rows, cols)] = k
    c, b, x = rng.standard_normal(n), rng.standard_normal(m), rng.standard_normal(n)
    return (sp.csr_matrix(a) if sparse else a), c, b, cols, rows, x


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("name", list(BLOCKS))
@pytest.mark.parametrize("seed", range(3))
def test_matches_one_eigh_of_the_whole_gram_matrix(name, sparse, seed):
    rng = np.random.default_rng([seed, len(name)])
    a, c, b, cols, rows, x = _support(rng, BLOCKS[name], sparse)
    got = Support(a, c, b, cols, rows, x)
    want = WholeEigh(got.k, got.c_f, got.rhs)
    cond = want.lam[-1] / want.lam[0] if want.lam.size else 1.0
    agree = _same if name in ONE_COMPONENT else _close(cond)

    assert got.lam.size == want.lam.size
    assert np.all(np.diff(got.lam) >= 0.0)
    agree(got.lam, want.lam)
    agree(got.u @ got.u.T, want.u @ want.u.T)
    v = rng.standard_normal(rows.sum())
    agree(got._g_pinv(v), want.g_pinv(v))
    agree(got.d[cols], want.d)
    agree(got.w[rows], want.w)
    x_0, y_0 = rng.standard_normal(cols.size), rng.standard_normal(rows.size)
    x_p, y_p = got.project(x_0, y_0)
    x_w, y_w = want.project(x_0[cols], y_0[rows])
    agree(x_p[cols], x_w)
    agree(y_p[rows], y_w)


def test_the_cut_drops_the_small_block_and_the_null_space():
    # 4 + 3 + 2 rows of full rank, the middle block 1e-12 the scale of the
    # others: its eigenvalues (about 1e-24) fall below the cut.
    rng = np.random.default_rng(7)
    sup = Support(*_support(rng, BLOCKS["below the cut"], sparse=False))
    assert sup.lam.size == 6
    sup = Support(*_support(rng, BLOCKS["rank-deficient"], sparse=True))
    assert sup.lam.size == 2 + 1 + 3


def _labels(groups, n):
    labels = np.full(n, -1)
    for rows in groups:
        assert rows.ndim == 2 and np.all(np.diff(rows, axis=1) > 0)
        labels[rows] = rows[:, :1]
    return labels


@pytest.mark.parametrize("seed", range(12))
def test_components_match_scipy(seed):
    # Sparse random graphs, each edge given once in one direction only.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    edges = rng.integers(0, n, (2, int(rng.integers(0, 2 * n))))
    groups = linalg._components(edges[0], edges[1], n)
    count, want = connected_components(
        sp.csr_matrix((np.ones(edges.shape[1]), edges), shape=(n, n)), directed=False
    )
    sizes = [rows.shape[1] for rows in groups]
    assert sizes == sorted(set(sizes)) and sum(len(rows) for rows in groups) == count
    assert sum(rows.size for rows in groups) == n
    labels = _labels(groups, n)
    # The same partition: labels and scipy's labels map one to one.
    assert len(set(zip(labels.tolist(), want.tolist()))) == count


@pytest.mark.parametrize("seed", range(16))
def test_dense_shortcut_gives_the_groups_of_components(seed):
    # Symmetric patterns of any density; at odd seeds row 0 has no zero,
    # which the shortcut reads as one component without the edge list.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    g = rng.standard_normal((n, n)) * (rng.random((n, n)) < rng.random())
    g = g + g.T
    if seed % 2:
        g[0, :] = g[:, 0] = rng.uniform(1.0, 2.0, n)
    want = linalg._components(*g.nonzero(), n)
    got = linalg._dense_components(g)
    assert len(got) == len(want)
    for rows, want_rows in zip(got, want):
        np.testing.assert_array_equal(rows, want_rows)


def test_components_of_one_and_of_none():
    i, j = np.nonzero(np.ones((4, 4)))
    (rows,) = linalg._components(i, j, 4)
    np.testing.assert_array_equal(rows, [[0, 1, 2, 3]])
    assert linalg._components(np.array([], int), np.array([], int), 0) == []
    groups = linalg._components(np.array([2, 0]), np.array([3, 4]), 5)
    np.testing.assert_array_equal(groups[0], [[1]])
    np.testing.assert_array_equal(groups[1], [[0, 4], [2, 3]])
