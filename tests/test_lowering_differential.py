"""The standard form solved as its lowering, against frozen copies of the
standard-form formulas the solver and the analysis toolkit used before.

make_operator, the shifted twin, MNorm, kkt_residual, the two certificate
tests and run take a standard-form problem p as its lowering p.general
(-A x = -b on equality rows, 0 <= x), where y keeps the standard
iteration's sign.  The copies (ReferenceStep, reference_mnorm_sq and
reference_mnorm_rows, reference_kkt, reference_primal_test,
reference_dual_test) are kept here, and only here, so that the lowering
can be held to them: the same step sizes, scaling factors, trajectories,
norms, KKT parts and certificate figures, to the bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from pdhglp import certificates as certs
from pdhglp import demos, linalg
from pdhglp.identify import IndexPartition, ShiftedOperator
from pdhglp.linalg import StepSizes, max0
from pdhglp.pdhg import PdhgConfig, kkt_residual, make_operator, run
from pdhglp.scaling import ruiz_pock_chambolle

# ---------------------------------------------------------------------------
# The reference: the standard-form branches of kkt_residual and of the two
# certificate tests.


def reference_kkt(p, x, y):
    ax, aty = p.a.matvec(x), p.a.rmatvec(y)
    primal = max(max0(np.abs(ax - p.b)), max0(-x))
    dual = max0(-aty - p.c)
    pobj, dobj = float(p.c @ x), -float(p.b @ y)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    b_scale, c_scale = 1.0 + max0(np.abs(p.b)), 1.0 + max0(np.abs(p.c))
    return primal / b_scale, dual / c_scale, gap


def _figures(obj, residual):
    """(objective_term, scaled_error) of a test."""
    return obj, (residual / obj if obj > 0.0 else None)


def reference_primal_test(p, y):
    return _figures(-float(p.b @ y), max0(-p.a.rmatvec(y)))


def reference_dual_test(p, d):
    return _figures(-float(p.c @ d), max(max0(np.abs(p.a.matvec(d))), max0(-d)))


class ReferenceStep:
    """The standard-form step on p's own A, with coupling +1:

        x+ = clip(x + K1 [y; 1], lo, hi),  K1 = [-eta A' | x_offset]
        y+ = y + K2 [2 x+ - x; 1],         K2 = [tau A | y_offset]

    with x_offset = -eta c, y_offset = -tau b, lo = 0 and no hi for the
    plain step.  The shifted twin of displacement v and partition
    (b, n1, n2) has x_offset = -eta c - v_x, y_offset = -tau b - v_y,
    lo = -inf on b and -v_x elsewhere, and hi = -v_x on n2 and inf
    elsewhere.  Blocks in A's storage: dense up to linalg.DENSE_LIMIT
    entries, CSR above it."""

    def __init__(self, p, steps, v=None, partition=None):
        self.n, self.m = n, m = p.n, p.m
        x_offset, y_offset = -steps.eta * p.c, -steps.tau * p.b
        self.lo, self.hi = np.zeros(n), None
        if partition is not None:
            v_x, v_y = v[:n], v[n:]
            x_offset, y_offset = x_offset - v_x, y_offset - v_y
            mask_b, _, mask_n2 = partition.masks(n)
            self.lo = np.where(mask_b, -np.inf, -v_x)
            self.hi = np.where(mask_n2, -v_x, np.inf)
        if m * n <= linalg.DENSE_LIMIT:
            a = p.a.to_dense()
            a_t = np.ascontiguousarray(a.T)
            self.k1 = np.hstack([-steps.eta * a_t, x_offset[:, None]])
            self.k2 = np.hstack([steps.tau * a, y_offset[:, None]])
        else:
            a, a_t = p.a.csr, p.a.transposed_csr()
            col1, col2 = (sp.csr_matrix(w[:, None]) for w in (x_offset, y_offset))
            self.k1 = sp.hstack([-steps.eta * a_t, col1], format="csr")
            self.k2 = sp.hstack([steps.tau * a, col2], format="csr")

    def trajectory(self, z0, k):
        n = self.n
        points = np.empty((k + 1, n + self.m))
        points[0] = z0
        x, y = z0[:n].copy(), z0[n:].copy()
        for j in range(1, k + 1):
            x1 = np.maximum(x + self.k1.dot(np.append(y, 1.0)), self.lo)
            if self.hi is not None:
                x1 = np.minimum(x1, self.hi)
            y = y + self.k2.dot(np.append(2.0 * x1 - x, 1.0))
            x = x1
            points[j, :n], points[j, n:] = x, y
        return points


def reference_mnorm_sq(p, steps, x, y):
    """||(x, y)||_M^2 with the +1 coupling on p's own A."""
    q = (
        float(x @ x) / steps.eta
        - 2.0 * float(y @ p.a.matvec(x))
        + float(y @ y) / steps.tau
    )
    return max(q, 0.0)


def reference_mnorm_rows(p, steps, x_rows, y_rows):
    ax = (p.a.csr @ x_rows.T).T
    q = (
        np.einsum("ij,ij->i", x_rows, x_rows) / steps.eta
        - 2.0 * np.einsum("ij,ij->i", y_rows, ax)
        + np.einsum("ij,ij->i", y_rows, y_rows) / steps.tau
    )
    return np.sqrt(np.maximum(q, 0.0))


# ---------------------------------------------------------------------------


def _problems():
    probs = [demos.DEMO_BUILDERS[name]() for name in sorted(demos.DEMO_BUILDERS) if name != "ex1"]
    for cell in demos.CELLS:
        probs += [demos.random_cell_instance(cell, np.random.default_rng([s, 29])) for s in range(3)]
    big = demos.block_copies(demos.std_both_infeasible(), 41, seed=3)
    assert big.m * big.n > linalg.DENSE_LIMIT  # the operator's blocks are CSR
    return probs + [big]


PROBLEMS = _problems()
IDS = [f"{i}-{p.name}" for i, p in enumerate(PROBLEMS)]


@pytest.mark.parametrize("p", PROBLEMS, ids=IDS)
def test_lowered_step_is_the_standard_step_to_the_bit(p):
    steps = StepSizes.for_matrix(p.a)
    assert StepSizes.for_matrix(p.general.a) == steps
    for got, want in zip(ruiz_pock_chambolle(p.general.a), ruiz_pock_chambolle(p.a)):
        assert got.tobytes() == want.tobytes()
    z0 = np.random.default_rng(p.m * p.n).standard_normal(p.n + p.m)
    got = make_operator(p, steps).trajectory(z0, 2000)
    want = ReferenceStep(p, steps).trajectory(z0, 2000)
    assert got.tobytes() == want.tobytes()


TWIN_PROBLEMS = {
    "dense": demos.std_both_infeasible(),
    "dense-random": demos.random_cell_instance("both_infeasible", np.random.default_rng([7, 29])),
    "csr": PROBLEMS[-1],
}


@pytest.mark.parametrize("how", ["random", "all_b", "all_n2"])
@pytest.mark.parametrize("storage", sorted(TWIN_PROBLEMS))
def test_shifted_twin_is_the_standard_twin_to_the_bit(storage, how):
    p = TWIN_PROBLEMS[storage]
    rng = np.random.default_rng([p.n, len(how)])
    n = p.n
    # Roles 0, 1, 2 for b, n1, n2.
    roles = rng.integers(0, 3, n) if how == "random" else np.full(n, 0 if how == "all_b" else 2)
    idx = np.arange(n)
    part = IndexPartition(*(tuple(idx[roles == r].tolist()) for r in range(3)), tol=0.0)
    v = rng.standard_normal(n + p.m) * (rng.random(n + p.m) < 0.7)
    steps = StepSizes.for_matrix(p.general.a)
    twin = ShiftedOperator(p, steps, v[:n], v[n:], part)
    assert isinstance(twin.k1, np.ndarray) == (storage != "csr")
    z0 = np.random.default_rng(p.m).standard_normal(n + p.m)
    got = twin.trajectory(z0, 1000)
    want = ReferenceStep(p, steps, v, part).trajectory(z0, 1000)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", PROBLEMS, ids=IDS)
def test_mnorm_of_the_lowering_is_the_standard_norm_to_the_bit(p):
    steps = StepSizes.for_matrix(p.general.a)
    mn = make_operator(p, steps).m_norm()
    rng = np.random.default_rng(p.n + 3 * p.m)
    xs, ys = rng.standard_normal((8, p.n)), rng.standard_normal((8, p.m))
    xs[0], ys[0] = 0.0, 0.0
    for x, y in zip(xs, ys):
        assert mn.sq(x, y) == reference_mnorm_sq(p, steps, x, y)
    got = mn.rows(xs, ys)
    assert got.tobytes() == reference_mnorm_rows(p, steps, xs, ys).tobytes()


@pytest.mark.parametrize("p", PROBLEMS, ids=IDS)
def test_kkt_and_certificate_figures_are_the_standard_formulas(p):
    out = run(p, PdhgConfig(max_iters=2000))
    rng = np.random.default_rng(p.m + p.n)
    points = [(out.x, out.y), (out.state.x, out.state.y), (np.zeros(p.n), np.zeros(p.m))]
    points += [(rng.standard_normal(p.n), rng.standard_normal(p.m)) for _ in range(5)]
    for rep in (out.primal_certificate, out.dual_certificate):
        if rep is not None:
            vec = rep.vector
            points.append((vec, np.zeros(p.m)) if rep.side == "dual" else (np.zeros(p.n), vec))
    for x, y in points:
        kkt = kkt_residual(p, x, y)
        assert (kkt.primal, kkt.dual, kkt.gap) == reference_kkt(p, x, y)
        cand = certs.CertificateCandidate(certs.CandidateKind.DIFFERENCE, 1, x, y)
        if y.any():
            rep = certs.check_primal_infeasibility(cand, p, 1e-8)
            assert (rep.objective_term, rep.scaled_error) == reference_primal_test(p, y)
        if x.any():
            rep = certs.check_dual_infeasibility(cand, p, 1e-8)
            assert (rep.objective_term, rep.scaled_error) == reference_dual_test(p, x)
