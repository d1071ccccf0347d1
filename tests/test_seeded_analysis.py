"""pdhglp analyze confirms the ray it already knows, and reuses its trajectory.

Two changes to the analysis are guarded here:

- refine_ray starts from affine_phase's v_pred at the last trajectory row
  instead of the trajectory's tail mean.  On the analyze corpus every ray
  converges, in 19 rounds in all at seed 3 (32 from the tail mean, with 4
  rays unconverged).
- shift_identity_residual compares the twin with recorded rows of the
  original iteration instead of stepping the original again.  A frozen copy
  of the earlier implementation (reference_shift_identity_residual, kept
  here and only here) re-steps the original from the first recorded row;
  on the rows of a trajectory the two return the same value, to the bit.
"""

import json

import numpy as np
import pytest

from pdhglp import cli, demos
from pdhglp.identify import (
    ShiftedOperator,
    active_set,
    affine_phase,
    refine_ray,
    shift_identity_residual,
)
from pdhglp.instance_io import load_problem
from pdhglp.linalg import StepSizes
from pdhglp.model import GeneralFormLp, to_standard_form
from pdhglp.pdhg import make_operator

_SHIFT_BLOCK = 200


def reference_shift_identity_residual(op, v, partition, z_from, k_max=1000):
    """The earlier shift_identity_residual: both the original and the twin
    are stepped from z_from, k_max steps in blocks."""
    shifted = ShiftedOperator(op, v, partition)
    mn = op.m_norm()
    n = op.n
    z, zs = z_from, z_from
    worst = 0.0
    for start in range(1, k_max + 1, _SHIFT_BLOCK):
        rows = min(_SHIFT_BLOCK, k_max + 1 - start)
        orig = op.trajectory(z, rows)
        twin = shifted.trajectory(zs, rows)
        z, zs = orig[-1], twin[-1]
        ks = np.arange(start, start + rows, dtype=np.float64)[:, None]
        gaps = twin[1:] - (orig[1:] - ks * v)
        block = mn.rows(gaps[:, :n], gaps[:, n:])
        worst = max(worst, float(np.fmax.reduce(block)))
    return worst


@pytest.fixture
def analyze_items(perfbench, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    perfbench("planted")
    items = perfbench("corpus").setup_analyze(3)
    assert len(items) == 15
    return items


def _as_analyzed(path):
    """The operator pdhglp analyze works with."""
    p = load_problem(path)
    if isinstance(p, GeneralFormLp):
        p = to_standard_form(p)[0]
    return make_operator(p, StepSizes.for_matrix(p.general.a))


def _rounds(op, points, v=None):
    sol = refine_ray(op, points, v)
    return sol.converged, sol.rounds


# ---------------------------------------------------------------------------
# The seed


def test_analyze_corpus_rays_all_converge(analyze_items, capsys):
    rounds = 0
    for item in analyze_items:
        assert cli.main(["analyze", item.path]) == cli.EXIT_OK, item.name
        ray = json.loads(capsys.readouterr().out)["ray"]
        assert ray["converged"] is True, item.name
        rounds += ray["rounds"]
    assert rounds <= 19


@pytest.mark.parametrize("name", ["ex1_1_1_std", "ex1_1_1"])
def test_seeded_ex1_1_1_converges(analyze_items, name):
    # ex1(1, 1) as a standard-form file, and as a general-form file that
    # analyze lowers to the standard form; unseeded, neither converged.
    (item,) = [it for it in analyze_items if it.name == name]
    op = _as_analyzed(item.path)
    points = op.trajectory(np.zeros(op.n + op.m), 4000)
    support = sorted(set(range(op.n)) - active_set(points[-1][: op.n]))
    phase = affine_phase(op, support)
    seeded = _rounds(op, points, phase.v_pred)
    unseeded = _rounds(op, points)
    assert seeded[0] is True
    assert seeded[1] <= unseeded[1]


# ---------------------------------------------------------------------------
# The recorded rows


def test_analyze_window_matches_restepping(analyze_items, monkeypatch, capsys):
    # Every window analyze hands the shift identity gives, to the bit, what
    # re-stepping the original from the window's first row gave.
    calls = []

    def recorded(op, v, partition, orig):
        got = shift_identity_residual(op, v, partition, orig)
        calls.append((op, v, partition, orig, got))
        return got

    monkeypatch.setattr(cli, "shift_identity_residual", recorded)
    for item in analyze_items:
        assert cli.main(["analyze", item.path]) == cli.EXIT_OK, item.name
    capsys.readouterr()
    assert len(calls) == len(analyze_items)
    for op, v, partition, orig, got in calls:
        assert orig.shape[0] == 1001
        want = reference_shift_identity_residual(op, v, partition, orig[0], k_max=1000)
        assert got == want


@pytest.fixture(scope="module")
def demo_rays():
    """Trajectories of a standard-form demo and a lowered general-form one,
    with their rays refined unseeded and seeded."""
    out = []
    for p in (demos.std_both_infeasible(), to_standard_form(demos.example1(1, 2))[0]):
        op = make_operator(p, StepSizes.for_matrix(p.general.a))
        points = op.trajectory(np.zeros(p.n + p.m), 1500)
        support = sorted(set(range(p.n)) - active_set(points[-1][: p.n]))
        v_pred = affine_phase(op, support).v_pred
        for v in (None, v_pred):
            out.append((op, points, refine_ray(op, points, v)))
    return out


@pytest.mark.parametrize("k", [0, 1, 7, 200, 437, 1000])
def test_recorded_rows_match_restepping(demo_rays, k):
    # points[K-k:] against the reference from points[K-k].
    for op, points, sol in demo_rays:
        big_k = points.shape[0] - 1
        got = shift_identity_residual(op, sol.v, sol.partition, points[big_k - k :])
        want = reference_shift_identity_residual(
            op, sol.v, sol.partition, points[big_k - k], k_max=k
        )
        assert got == want
