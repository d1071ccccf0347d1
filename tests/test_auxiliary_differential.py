"""identify.build_auxiliary against a frozen copy of the formulas it had
when the auxiliary problem was a class of its own (AuxiliaryLp, with
as_general_form, constraint_residual and bound_violation).

The copy (reference_auxiliary) is kept here, and only here: on the desk
demos, at the ray pdhglp analyze refines, at zero and at the exact
displacement of the both-infeasible demo, build_auxiliary returns the same
GeneralFormLp to the bit: c + v_x/eta on b, -(b + v_y/tau), and the bounds
(-inf, inf) on b, (0, inf) on n1 and (0, 0) on n2.  The refined anchor
meets that problem's rows and bounds within the tolerance the class's own
residuals were held to.
"""

import dataclasses

import numpy as np
import pytest

from pdhglp import demos
from pdhglp.exact import classify_lp
from pdhglp.identify import (
    active_set,
    affine_phase,
    build_auxiliary,
    partition_indices,
    refine_ray,
)
from pdhglp.linalg import StepSizes, max0
from pdhglp.model import to_standard_form, validate
from pdhglp.pdhg import make_operator

# ---------------------------------------------------------------------------
# The reference: build_auxiliary(p, v, steps, partition).as_general_form()


def reference_auxiliary(p, v, steps, partition=None):
    v = np.asarray(v, dtype=np.float64)
    n = p.n
    if partition is None:
        partition = partition_indices(p.a, v[:n], v[n:])
    c_aux = p.c.copy()
    mb, _, _ = partition.masks(n)
    c_aux[mb] += v[:n][mb] / steps.eta
    b_aux = p.b + v[n:] / steps.tau
    mb, _, m2 = partition.masks(n)
    return dataclasses.replace(
        p.general,
        c=c_aux,
        b=-b_aux,
        l=np.where(mb, -np.inf, 0.0),
        u=np.where(m2, 0.0, np.inf),
        name=f"aux({p.name})",
        objective_offset=0.0,
    )


# ---------------------------------------------------------------------------

DESK = {
    name: builder()
    for name, builder in sorted(demos.DEMO_BUILDERS.items())
    if name != "ex1"
} | {
    f"ex1({alpha},{beta})": to_standard_form(demos.example1(alpha, beta))[0]
    for alpha, beta in ((0, 1), (1, 2), (0, 2), (1, 1))
}


@pytest.fixture(scope="module")
def refined_desk():
    """(p, op, ray) per desk demo, refined as pdhglp analyze refines it:
    steps from the lowering's matrix, from the affine phase's v_pred at the
    last row's support of a 2000-step trajectory."""
    out = {}
    for name, p in DESK.items():
        op = make_operator(p, StepSizes.for_matrix(p.general.a))
        points = op.trajectory(np.zeros(p.n + p.m), 2000)
        support = sorted(set(range(p.n)) - active_set(points[-1][: p.n]))
        phase = affine_phase(op, support)
        out[name] = (p, op, refine_ray(op, points, phase.v_pred))
    return out


def _assert_same_problem(got, want):
    assert got.a is want.a
    for name in ("c", "b", "l", "u", "eq"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.name, got.objective_offset) == (want.name, want.objective_offset)


@pytest.mark.parametrize("name", sorted(DESK))
def test_build_auxiliary_matches_the_frozen_formulas(refined_desk, name):
    p, op, ray = refined_desk[name]
    displacements = {
        "ray": ray.v,
        "zero": np.zeros(p.n + p.m),
        "random": np.random.default_rng(len(name)).standard_normal(p.n + p.m),
    }
    for v in displacements.values():
        for partition in (None, ray.partition):
            got = build_auxiliary(op, v, partition)
            _assert_same_problem(got, reference_auxiliary(p, v, op.steps, partition))
            assert got.eq.all() and got.a is p.general.a
            assert validate(got) == []
    # Zero displacement reproduces the lowering: every variable in n1.
    zero = build_auxiliary(op, displacements["zero"])
    lowering = dataclasses.replace(p.general, name=f"aux({p.name})", objective_offset=0.0)
    _assert_same_problem(zero, lowering)


@pytest.mark.parametrize("name", sorted(DESK))
def test_refined_anchor_solves_the_auxiliary_problem(refined_desk, name):
    p, op, ray = refined_desk[name]
    aux = build_auxiliary(op, ray.v, ray.partition)
    x_star = ray.z_star[: p.n]
    assert aux.row_violation(aux.a.matvec(x_star) - aux.b) <= 1e-10
    assert max(max0(aux.l - x_star), max0(x_star - aux.u)) <= 1e-10


def test_ideal_displacement_gives_solvable_auxiliary():
    # With the exactly-representable displacement (the refined one is
    # within 1e-9 of it) the bumps divide out exactly and the exact oracle
    # confirms the auxiliary problem is solvable.  The float-refined v
    # misses by ~1e-13, which the equality rows turn into exact-arithmetic
    # infeasibility, so the oracle check only makes sense on the ideal
    # vector.
    p = demos.std_both_infeasible()
    op = make_operator(p, StepSizes.for_matrix(p.a))
    sol = refine_ray(op, op.trajectory(np.zeros(p.n + p.m), 2000))
    s = op.steps.eta
    v_exact = np.array([s / 2.0, s / 2.0, 0.0, 0.0, s])
    np.testing.assert_allclose(sol.v, v_exact, atol=1e-9)
    g = build_auxiliary(op, v_exact, sol.partition)
    _assert_same_problem(g, reference_auxiliary(p, v_exact, op.steps, sol.partition))
    # b variables freed, n2 fixed at zero
    assert np.all(np.isneginf(g.l[[0, 1]]))
    assert g.l[2] == 0.0 and g.u[2] == 0.0
    assert classify_lp(g).cell == "both_feasible"
