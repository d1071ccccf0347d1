"""identify.affine_phase against a frozen copy of the earlier implementation,
which assembled the dense (n+m) x (n+m) model of the frozen-support step.

The copy (reference_affine_phase) is kept here, and only here, so that the
phase read off the support's Gram eigh can be compared with the dense
model: the same spectrum, rates, displacement and anchor on the analyze
corpus at the support pdhglp analyze uses, and on random supports of its
planted items, including the empty one and ones with fewer columns than
rows (a singular Gram matrix).  The dense model's own invariants are
checked here too.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from pdhglp import cli, demos
from pdhglp.identify import affine_phase, refine_ray
from pdhglp.instance_io import load_problem
from pdhglp.linalg import StepSizes
from pdhglp.pdhg import make_operator

# ---------------------------------------------------------------------------
# The reference: the dense affine model z -> q z - p_vec on the support.


def reference_affine_phase(p, steps, support):
    n, m = p.n, p.m
    eta, tau = steps.eta, steps.tau
    support = tuple(sorted(int(i) for i in support))
    ad = p.a.to_dense()
    mask = np.zeros(n, dtype=bool)
    mask[list(support)] = True
    ad[:, ~mask] = 0.0

    q = np.zeros((n + m, n + m))
    q[:n, :n] = np.eye(n)
    q[:n, n:] = -eta * ad.T
    q[n:, :n] = tau * ad
    q[n:, n:] = np.eye(m) - 2.0 * tau * eta * (ad @ ad.T)
    dc = np.where(mask, p.c, 0.0)
    p_vec = np.concatenate([eta * dc, 2.0 * tau * eta * (ad @ dc) + tau * p.b])

    u, s, vt = np.linalg.svd(ad)
    cut = s.max() * max(m, n) * np.finfo(np.float64).eps if s.size else 0.0
    pos = s > cut
    sigma = s[pos]
    v_cols = vt[: s.size].T[:, pos]
    u_cols = u[:, : s.size][:, pos]
    q_inf = np.zeros((n + m, n + m))
    q_inf[:n, :n] = np.eye(n) - v_cols @ v_cols.T
    q_inf[n:, n:] = np.eye(m) - u_cols @ u_cols.T

    mu = None
    lower_rate = None
    if sigma.size:
        mu = float(np.sqrt(1.0 - eta * tau * float(np.min(sigma)) ** 2))
        lows = []
        for sg in sigma:
            block = np.array(
                [[1.0, -eta * sg], [tau * sg, 1.0 - 2.0 * tau * eta * sg * sg]]
            )
            lows.append(float(np.linalg.svd(block, compute_uv=False)[-1]))
        lower_rate = min(lows)

    v_pred = -(q_inf @ p_vec)
    rhs = (np.eye(n + m) - q_inf) @ p_vec
    z_star_pred = np.linalg.lstsq(q - np.eye(n + m), rhs, rcond=None)[0]
    projector_error = float(np.max(np.abs(q_inf @ (q - np.eye(n + m)))))
    contraction_radius = float(np.max(np.abs(np.linalg.eigvals(q - q_inf))))
    return SimpleNamespace(
        support=support,
        q=q,
        p_vec=p_vec,
        q_inf=q_inf,
        sigma=sigma,
        mu=mu,
        lower_rate=lower_rate,
        v_pred=v_pred,
        z_star_pred=z_star_pred,
        projector_error=projector_error,
        contraction_radius=contraction_radius,
    )


# ---------------------------------------------------------------------------


def _assert_matches_reference(p, steps, support, label):
    phase = affine_phase(p, steps, support)
    ref = reference_affine_phase(p, steps, support)
    assert phase.support == ref.support, label
    assert phase.sigma.size == ref.sigma.size, label
    np.testing.assert_allclose(
        phase.sigma, ref.sigma, rtol=1e-9, atol=0.0, err_msg=label
    )
    if ref.mu is None:
        assert phase.mu is None and phase.lower_rate is None, label
    else:
        assert abs(phase.mu - ref.mu) <= 1e-12, label
        assert abs(phase.lower_rate - ref.lower_rate) <= 1e-12, label
        assert abs(ref.contraction_radius - phase.mu) <= 1e-12, label
    np.testing.assert_allclose(
        phase.v_pred, ref.v_pred, rtol=0.0, atol=1e-10, err_msg=label
    )
    z_scale = 1.0 + float(np.max(np.abs(ref.z_star_pred)))
    z_gap = float(np.max(np.abs(phase.z_star_pred - ref.z_star_pred)))
    assert z_gap <= 1e-9 * z_scale, (label, z_gap)
    # The dense assembly's invariants: q_inf (q - I) = 0, rho(q - q_inf) < 1,
    # and q_inf is a projector.
    assert ref.projector_error <= 1e-10, label
    assert ref.contraction_radius < 1.0, label
    np.testing.assert_allclose(
        ref.q_inf @ ref.q_inf, ref.q_inf, atol=1e-12, err_msg=label
    )


def _analyze_items(perfbench, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    perfbench("planted")
    items = perfbench("corpus").setup_analyze(3)
    assert len(items) == 15
    return items


def test_analyze_corpus_matches_the_dense_model(
    tmp_path, monkeypatch, perfbench, capsys
):
    # Record every (problem, steps, support) pdhglp analyze hands the phase.
    items = _analyze_items(perfbench, tmp_path, monkeypatch)
    calls = []

    def recorded(p, steps, support):
        calls.append((p, steps, support))
        return affine_phase(p, steps, support)

    monkeypatch.setattr(cli, "affine_phase", recorded)
    for item in items:
        assert cli.main(["analyze", item.path]) == cli.EXIT_OK, item.name
    capsys.readouterr()
    assert len(calls) == len(items)
    for item, (p, steps, support) in zip(items, calls):
        _assert_matches_reference(p, steps, support, item.name)


def test_random_supports_of_planted_items(tmp_path, monkeypatch, perfbench):
    items = _analyze_items(perfbench, tmp_path, monkeypatch)
    planted = [it for it in items if it.name.startswith("planted_")]
    assert len(planted) == 3
    rng = np.random.default_rng(13)
    for item in planted:
        p = load_problem(item.path)
        base = StepSizes.for_matrix(p.a)
        # Unequal steps with the same product tell eta from tau.
        lopsided = StepSizes(eta=2.0 * base.eta, tau=0.5 * base.tau)
        # Sizes below m = 40 give a singular Gram matrix.
        for size in (0, 1, 7, 39, 40, 41, 75, p.n):
            support = rng.choice(p.n, size=size, replace=False)
            for steps in (base, lopsided):
                label = f"{item.name} |S|={size} eta={steps.eta:.3g}"
                _assert_matches_reference(p, steps, support, label)


@pytest.fixture(scope="module")
def refined_both():
    p = demos.std_both_infeasible()
    steps = StepSizes.for_matrix(p.a)
    pts = make_operator(p, steps).trajectory(np.zeros(p.n + p.m), 2000)
    return p, steps, refine_ray(p, steps, pts)


def test_assembly_invariants(refined_both):
    p, steps, sol = refined_both
    _assert_matches_reference(p, steps, sol.partition.b, "std-both")


def test_predicted_anchor_rides_the_ray(refined_both):
    # One step of the dense model from the predicted anchor moves it by the
    # predicted displacement.
    p, steps, sol = refined_both
    phase = affine_phase(p, steps, sol.partition.b)
    ref = reference_affine_phase(p, steps, sol.partition.b)
    step_out = ref.q @ phase.z_star_pred - ref.p_vec
    np.testing.assert_allclose(step_out, phase.z_star_pred + phase.v_pred, atol=1e-9)
