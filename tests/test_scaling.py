"""run() iterates every problem on D_r A D_c (Ruiz, then Pock-Chambolle)
and tests certificates on the problem as given; these tests
hold the scaled path to the verdicts and certificates of the original data,
and the maps between the two coordinates to the identities they rely on."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from pdhglp import demos, exact, linalg, pdhg
from pdhglp import certificates as certs
from pdhglp.linalg import SparseMatrix
from pdhglp.model import (
    GeneralFormLp,
    StandardFormLp,
    general_form,
    standard_to_general,
    to_standard_form,
)
from pdhglp.pdhg import PdhgConfig, PdhgState, SolveStatus, kkt_residual, run
from pdhglp.scaling import (
    RUIZ_PASSES,
    DiagonalScaling,
    _dense_factors,
    _sparse_factors,
    ruiz_pock_chambolle,
)

from helpers import block_copies

FAST = PdhgConfig(max_iters=200_000, eps=1e-8, kkt_tol=1e-8)

CELL_OF = {
    SolveStatus.OPTIMAL: "both_feasible",
    SolveStatus.PRIMAL_INFEASIBLE: "primal_infeasible",
    SolveStatus.DUAL_INFEASIBLE: "dual_infeasible",
    SolveStatus.BOTH_INFEASIBLE: "both_infeasible",
}


def _copies(p):
    """Fewest block copies of p that take run past linalg.DENSE_LIMIT."""
    k = 1
    while (k * p.m) * (k * p.n) <= linalg.DENSE_LIMIT:
        k += 1
    return k


def _small_demos():
    out = [
        (f"ex1({a:g},{b:g})", demos.example1(a, b))
        for a, b in ((0.0, 1.0), (1.0, 2.0), (0.0, 2.0), (1.0, 1.0))
    ]
    out += [(n, demos.DEMO_BUILDERS[n]()) for n in sorted(demos.DEMO_BUILDERS)]
    # Equality rows: a mixed general problem, and a lowering (all rows).
    ex1 = demos.example1(0.0, 1.0)
    out.append(("ex1(0,1) eq", dataclasses.replace(ex1, eq=np.array([True, False, False]))))
    out.append(("std-dual-infeasible lowered", demos.std_dual_infeasible().general))
    return [(n, p) for n, p in out if n != "ex1"]


SMALL = _small_demos()


def _fresh_check(p, rep, eps):
    """The test of rep's side on rep.vector alone: no carried products or
    reduced costs, so everything is computed from p."""
    zx, zy = np.zeros(p.n), np.zeros(p.m)
    primal = rep.side == "primal"
    x, y = (zx, rep.vector) if primal else (rep.vector, zy)
    cand = certs.CertificateCandidate(rep.kind, rep.k, x, y)
    if primal:
        return certs.check_primal_infeasibility(cand, p, eps)
    return certs.check_dual_infeasibility(cand, p, eps)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name,p", SMALL, ids=[n for n, _ in SMALL])
def test_block_copies_keep_the_cell_and_certificates_hold(name, p, seed):
    big = block_copies(p, _copies(p), seed=seed)
    if isinstance(p, GeneralFormLp):
        assert np.array_equal(big.eq, np.tile(p.eq, _copies(p)))
    out = run(big, FAST)
    assert CELL_OF[out.status] == exact.classify_lp(p).cell
    sides = {
        SolveStatus.OPTIMAL: set(),
        SolveStatus.PRIMAL_INFEASIBLE: {"primal"},
        SolveStatus.DUAL_INFEASIBLE: {"dual"},
        SolveStatus.BOTH_INFEASIBLE: {"primal", "dual"},
    }[out.status]
    reports = [r for r in (out.primal_certificate, out.dual_certificate) if r]
    assert {r.side for r in reports} == sides
    for rep in reports:
        assert rep.vector.shape == ((big.m,) if rep.side == "primal" else (big.n,))
        fresh = _fresh_check(big, rep, FAST.eps)
        assert fresh.passed, (rep.side, fresh.reasons, fresh.scaled_error)
    # The outcome's iterates and residuals are those of big itself.
    r = pdhg.recover_r(big, out.y) if isinstance(big, GeneralFormLp) else None
    fresh_kkt = kkt_residual(big, out.x, out.y, r)
    assert fresh_kkt.max == pytest.approx(out.kkt.max, rel=1e-6, abs=1e-15)
    if out.status is SolveStatus.OPTIMAL:
        assert fresh_kkt.max <= FAST.kkt_tol


@pytest.mark.parametrize(
    "p", [demos.std_feasible(), demos.example1(0.0, 1.0)], ids=["std", "ex1"]
)
def test_warm_start_accepted_on_the_scaled_path(p):
    big = block_copies(p, _copies(p))
    ref = run(big, FAST)
    assert ref.status is SolveStatus.OPTIMAL
    out = run(big, FAST, x0=ref.x, y0=ref.y)
    assert out.status is SolveStatus.OPTIMAL
    assert out.iterations <= ref.iterations


ZERO_ROW_AND_COLUMN = SparseMatrix.from_dense(
    [[4.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 0.0], [2.0, 0.0, 9.0, 0.0]]
)


def _desk_matrices():
    """A of every desk instance of the benchmark: the demos and five
    random_cell_instance draws per cell, each in both forms."""
    base = [p for _, p in SMALL]
    for c, cell in enumerate(demos.CELLS):
        rng = np.random.default_rng([0, c])
        base += [demos.random_cell_instance(cell, rng) for _ in range(5)]
    both = []
    for p in base:
        other = (
            to_standard_form(p)[0]
            if isinstance(p, GeneralFormLp)
            else standard_to_general(p)
        )
        both += [p.a, other.a]
    return both


@pytest.mark.parametrize("a", _desk_matrices() + [ZERO_ROW_AND_COLUMN])
def test_dense_and_sparse_factors_agree(a):
    # Every scaled entry is the same product in both storages; only the
    # order of the 1-norm sums may differ.
    assert a.n_rows * a.n_cols <= linalg.DENSE_LIMIT
    dense = _dense_factors(a)
    for got, want in zip(ruiz_pock_chambolle(a), dense):
        assert np.array_equal(got, want)
    for got, want in zip(dense, _sparse_factors(a)):
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# A frozen copy of the factors as they were first built, on scipy's row and
# column reductions of a rebuilt scaled matrix per pass.  The reductions of
# the CSR arrays (and the dense ufunc reductions) must give the same bits.


def _reference_scaled_csr(csr, row, col):
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    data = csr.data * row[rows] * col[csr.indices]
    indices, indptr = csr.indices.copy(), csr.indptr.copy()
    return sp.csr_matrix((data, indices, indptr), shape=csr.shape)


def _reference_factors(mag, scaled):
    def inverse_sqrt(norms):
        return 1.0 / np.sqrt(np.where(norms > 0.0, norms, 1.0))

    def flat(v):
        return np.asarray(v.toarray() if sp.issparse(v) else v).ravel()

    row = np.ones(mag.shape[0])
    col = np.ones(mag.shape[1])
    for _ in range(RUIZ_PASSES):
        cur = scaled(mag, row, col)
        row *= inverse_sqrt(flat(cur.max(axis=1)))
        col *= inverse_sqrt(flat(cur.max(axis=0)))
    cur = scaled(mag, row, col)
    row *= inverse_sqrt(flat(cur.sum(axis=1)))
    col *= inverse_sqrt(flat(cur.sum(axis=0)))
    return row, col


def reference_sparse_factors(a):
    return _reference_factors(abs(a.csr), _reference_scaled_csr)


def reference_dense_factors(a):
    return _reference_factors(
        np.abs(a.csr.toarray()), lambda mag, row, col: mag * row[:, None] * col
    )


def _assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype == np.float64
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("a", _desk_matrices() + [ZERO_ROW_AND_COLUMN])
def test_dense_factors_match_the_reference(a):
    _assert_same_bits(_dense_factors(a), reference_dense_factors(a))


@pytest.mark.parametrize("form", ["standard", "general"])
@pytest.mark.parametrize("cell", demos.CELLS)
def test_sparse_factors_match_the_reference_on_planted(perfbench, cell, form):
    planted = perfbench("planted")
    p = planted.planted_instance(
        cell, form, 300, 1200, 8, np.random.default_rng(0), name=cell
    )
    a = SparseMatrix.from_triplets(p.m, p.n, p.rows, p.cols, p.vals.astype(float))
    assert a.n_rows * a.n_cols > linalg.DENSE_LIMIT
    _assert_same_bits(ruiz_pock_chambolle(a), reference_sparse_factors(a))


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 40),
    n=st.integers(1, 40),
    density=st.sampled_from([0.02, 0.2, 0.6, 1.0]),
)
def test_sparse_factors_match_the_reference(seed, m, n, density):
    # Entries over forty decades, explicit zeros, and emptied rows and
    # columns, which keep factor 1.
    rng = np.random.default_rng(seed)
    mask = rng.random((m, n)) < density
    mask[rng.random(m) < 0.2, :] = False
    mask[:, rng.random(n) < 0.2] = False
    rows, cols = np.nonzero(mask)
    vals = rng.standard_normal(rows.size) * np.exp(rng.uniform(-46, 46, rows.size))
    vals[rng.random(rows.size) < 0.05] = 0.0
    a = SparseMatrix.from_triplets(m, n, rows, cols, vals)
    _assert_same_bits(_sparse_factors(a), reference_sparse_factors(a))


def test_sparse_factors_of_a_matrix_with_no_entries():
    a = SparseMatrix.from_triplets(4, 9, [], [], [])
    _assert_same_bits(_sparse_factors(a), (np.ones(4), np.ones(9)))
    _assert_same_bits(_sparse_factors(a), reference_sparse_factors(a))


def test_zero_rows_and_columns_keep_factor_one():
    row, col = ruiz_pock_chambolle(ZERO_ROW_AND_COLUMN)
    assert row[1] == 1.0 and col[1] == 1.0
    assert np.all(row > 0.0) and np.all(np.isfinite(row))
    assert np.all(col > 0.0) and np.all(np.isfinite(col))


def test_factors_are_exact_not_powers_of_two():
    # Every inf-norm is 1, so the Ruiz passes keep factor 1 and the
    # Pock-Chambolle pass divides by the square roots of the 1-norms.
    a = SparseMatrix.from_dense([[1.0, -1.0, 1.0], [1.0, 0.0, 0.0]])
    row, col = ruiz_pock_chambolle(a)
    assert np.array_equal(row, 1.0 / np.sqrt([3.0, 1.0]))
    assert np.array_equal(col, 1.0 / np.sqrt([2.0, 1.0, 1.0]))


def test_ruiz_equilibrates_the_inf_norms():
    rng = np.random.default_rng(5)
    dense = rng.integers(-9, 10, size=(12, 20)) * np.exp(rng.uniform(-6, 6, 20))
    dense *= np.exp(rng.uniform(-6, 6, 12))[:, None]
    a = SparseMatrix.from_dense(dense)
    ps = DiagonalScaling(*ruiz_pock_chambolle(a)).problem(
        general_form(StandardFormLp(np.zeros(20), a, np.zeros(12)))
    )
    scaled = np.abs(ps.a.csr.toarray())
    # Row and column inf-norms start spread over about ten decades.
    for norms in (scaled.max(axis=1), scaled.max(axis=0)):
        assert norms.max() / norms.min() < 10.0


def _random_problem(seed, m, n, general):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.5)
    a = SparseMatrix.from_dense(dense)
    c = rng.standard_normal(n)
    b = rng.standard_normal(m)
    if not general:
        return StandardFormLp(c, a, b)
    lo = rng.standard_normal(n)
    l = np.where(rng.random(n) < 0.3, -np.inf, lo)
    u = np.where(rng.random(n) < 0.3, np.inf, lo + rng.random(n))
    return GeneralFormLp(c, a, b, l, u)


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 7),
    n=st.integers(1, 7),
    general=st.booleans(),
    data=st.data(),
)
def test_pull_back_round_trip(seed, m, n, general, data):
    # The solver scales the general form; a standard-form p as its lowering.
    p = general_form(_random_problem(seed, m, n, general))
    factor = st.floats(1e-3, 1e3)
    scaling = DiagonalScaling(
        np.array(data.draw(st.lists(factor, min_size=m, max_size=m))),
        np.array(data.draw(st.lists(factor, min_size=n, max_size=n))),
    )
    entry = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(1e-6, 1e6),
        st.floats(-1e6, -1e-6),
    )
    x = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(entry, min_size=m, max_size=m)))
    ps = scaling.problem(p)
    xs, ys = scaling.to_scaled(x, y)
    back = scaling.unscale_state(PdhgState.initial(n, m, xs, ys))

    # Signs, zeros included, survive the round trip to the bit.
    for orig, got in ((x, back.x), (y, back.y)):
        assert np.array_equal(np.signbit(got), np.signbit(orig))
        assert np.array_equal(got == 0.0, orig == 0.0)

    # b'y = b~'y~ and c'x = c~'x~ up to rounding.
    assert float(ps.b @ ys) == pytest.approx(
        float(p.b @ y), rel=0, abs=1e-12 * float(np.abs(p.b) @ np.abs(y)) + 1e-300
    )
    assert float(ps.c @ xs) == pytest.approx(
        float(p.c @ x), rel=0, abs=1e-12 * float(np.abs(p.c) @ np.abs(x)) + 1e-300
    )

    if general:
        # Infinite bounds stay infinite, and projecting onto the scaled box
        # then pulling back is projecting onto the original box.
        for orig, got in ((p.l, ps.l), (p.u, ps.u)):
            inf = np.isinf(orig)
            assert np.array_equal(np.isinf(got), inf)
            assert np.array_equal(got[inf], orig[inf])
        proj = scaling.unscale_state(
            PdhgState.initial(n, m, np.clip(xs, ps.l, ps.u), ys)
        ).x
        want = np.clip(x, p.l, p.u)
        assert np.allclose(proj, want, rtol=1e-15, atol=0.0)
