"""The fused step of a small problem against the unfused step formula.

GeneralFormOperator fuses the identity, the offsets and 2 x_j - x_{j-1}
into two dense blocks when they fit in linalg.DENSE_LIMIT entries (storage
"fused").  That sums the same terms in another order, so its trajectories
are held here to a frozen copy of the unfused step, UnfusedStep, within
1e-12 relative over 4000 steps: on the desk demos in both forms and on a
shifted twin.
"""

import numpy as np
import pytest

from pdhglp import demos
from pdhglp.identify import ShiftedOperator, partition_indices
from pdhglp.linalg import StepSizes
from pdhglp.model import standard_to_general, to_standard_form
from pdhglp.pdhg import GeneralFormOperator, make_operator

STEPS = 4000
RTOL = 1e-12


class UnfusedStep:
    """The general-form step on op's problem, shift and step sizes:

        x+ = clip(x + K1 [y; 1], l, u),           K1 = [eta A' | -eta c - v_x]
        y+ = max(y + K2 [2 x+ - x; 1], row_floor), K2 = [-tau A | tau b - v_y]
    """

    def __init__(self, op):
        p, steps, n = op.p, op.steps, op.n
        a = p.a.csr.toarray()
        self.n, self.p = n, p
        x_offset = -steps.eta * p.c - op.shift[:n]
        y_offset = steps.tau * p.b - op.shift[n:]
        self.k1 = np.hstack([steps.eta * a.T, x_offset[:, None]])
        self.k2 = np.hstack([-steps.tau * a, y_offset[:, None]])

    def trajectory(self, z0, k):
        n, p = self.n, self.p
        points = np.empty((k + 1, len(z0)))
        points[0] = z0
        x, y = z0[:n].copy(), z0[n:].copy()
        for j in range(1, k + 1):
            x1 = np.minimum(np.maximum(x + self.k1.dot(np.append(y, 1.0)), p.l), p.u)
            y = np.maximum(y + self.k2.dot(np.append(2.0 * x1 - x, 1.0)), p.row_floor)
            x = x1
            points[j, :n], points[j, n:] = x, y
        return points


def _desk():
    """The desk demos in both forms, as general-form problems."""
    probs = {}
    for alpha, beta in ((0, 1), (1, 2), (0, 2), (1, 1)):
        p = demos.example1(alpha, beta)
        probs[f"ex1_{alpha}_{beta}"] = p
        probs[f"ex1_{alpha}_{beta}_std"] = to_standard_form(p)[0].general
    for name in sorted(demos.DEMO_BUILDERS):
        if name != "ex1":
            p = demos.DEMO_BUILDERS[name]()
            probs[name] = p.general
            probs[name + "_gen"] = standard_to_general(p)
    return probs


DESK = _desk()


def _assert_close(op):
    assert op.storage == "fused"
    z0 = np.random.default_rng(op.n * op.m).standard_normal(op.n + op.m)
    got = op.trajectory(z0, STEPS)
    want = UnfusedStep(op).trajectory(z0, STEPS)
    scale = np.maximum(np.abs(want).max(axis=1), 1.0)
    assert (np.abs(got - want).max(axis=1) <= RTOL * scale).all()


@pytest.mark.parametrize("name", sorted(DESK))
def test_fused_trajectory_is_the_unfused_one(name):
    p = DESK[name]
    _assert_close(GeneralFormOperator(p, StepSizes.for_matrix(p.a)))


def test_fused_shifted_twin_is_the_unfused_one():
    p = demos.std_both_infeasible()
    steps = StepSizes.for_matrix(p.general.a)
    op = make_operator(p, steps)
    tail = op.trajectory(np.zeros(p.n + p.m), 1000)[-2:]
    v = tail[1] - tail[0]
    assert np.abs(v).max() > 0.0  # the twin is shifted
    _assert_close(ShiftedOperator(op, v, partition_indices(p.a, v[: p.n], v[p.n :])))
