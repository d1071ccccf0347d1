"""Tests of the benchmark's own parts: python3 -m pytest -q perfbench"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from pdhglp import certificates, exact  # noqa: E402
from pdhglp.certificates import CandidateKind, CertificateCandidate  # noqa: E402
from pdhglp.instance_io import load_problem  # noqa: E402
from pdhglp.model import GeneralFormLp  # noqa: E402

import corpus  # noqa: E402
from check import recheck_planted  # noqa: E402
from planted import CELLS, FORMS, certificate_errors, planted_instance  # noqa: E402
from tracing import self_times  # noqa: E402

CASES = [(cell, form) for form in FORMS for cell in CELLS]


@pytest.mark.parametrize("cell,form", CASES)
def test_planted_certificates_hold_exactly_at_benchmark_size(cell, form):
    m, n, per_col = corpus.SPARSE_SHAPE
    p = planted_instance(cell, form, m, n, per_col, np.random.default_rng(7))
    assert certificate_errors(p) == []
    assert np.all(np.bincount(p.rows, minlength=m) > 0), "empty row"
    assert (p.y_star is not None) == (cell in ("primal_infeasible", "both_infeasible"))
    assert (p.x_ray is not None) == (cell in ("dual_infeasible", "both_infeasible"))
    # Entries lie in [-3, 3] \ {0}; a basic column has 4 of them, the others
    # per_col = 8, so column norms lie in [2, 3 sqrt(8)]: a factor of 4.25.
    norms = np.sqrt(np.bincount(p.cols, weights=p.vals.astype(float) ** 2, minlength=n))
    assert norms.max() / norms.min() <= 3 * np.sqrt(per_col) / 2


@pytest.mark.parametrize("cell,form", CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planted_cell_matches_the_exact_oracle(cell, form, seed):
    p = planted_instance(cell, form, 8, 11, 2, np.random.default_rng(seed))
    assert certificate_errors(p) == []
    assert exact.classify_lp(corpus.planted_to_lp(p)).cell == cell


@pytest.mark.parametrize("cell,form", CASES)
def test_written_instance_round_trip_and_recheck(cell, form, tmp_path):
    p = planted_instance(cell, form, 40, 120, 3, np.random.default_rng(3), name="t")
    item = corpus._planted_item(p, str(tmp_path))
    assert item.path.endswith(".mps" if form == "general" else ".json")
    lp = load_problem(item.path)
    # Each instance loads in its own form, with the planted rows and columns.
    assert (lp.a.shape, lp.a.nnz) == ((p.m, p.n), p.nnz)
    assert isinstance(lp, GeneralFormLp) == (form == "general")
    y = None if p.y_star is None else p.y_star.astype(float)
    x = None if p.x_ray is None else p.x_ray.astype(float)
    # The solver's own tests accept the planted certificates on the loaded
    # problem, and the re-check accepts them on the integer data.
    if y is not None:
        cand = CertificateCandidate(CandidateKind.DIFFERENCE, 1, np.zeros(lp.n), y)
        if form == "general":
            assert certificates.check_primal_infeasibility(cand, lp, 1e-12).passed
        else:
            assert certificates.check_standard_farkas(cand, lp, 1e-12)[0].passed
        assert recheck_planted(p, "primal", y, 1e-12) == ""
        assert recheck_planted(p, "primal", -y, 1e-12) != ""
    if x is not None:
        cand = CertificateCandidate(CandidateKind.DIFFERENCE, 1, x, np.zeros(lp.m))
        if form == "general":
            assert certificates.check_dual_infeasibility(cand, lp, 1e-12).passed
        else:
            assert certificates.check_standard_farkas(cand, lp, 1e-12)[1].passed
        assert recheck_planted(p, "dual", x, 1e-12) == ""
        assert recheck_planted(p, "dual", -x, 1e-12) != ""


def test_recheck_applies_eps_to_the_objective():
    p = planted_instance("dual_infeasible", "general", 40, 120, 3, np.random.default_rng(4))
    x = p.x_ray.astype(float)
    x[np.flatnonzero(p.x_ray)[0]] += 1e-6  # A x picks up a residual of order 1e-6
    assert recheck_planted(p, "dual", x, 1e-3) == ""
    assert "exceeds eps" in recheck_planted(p, "dual", x, 1e-9)


def test_self_times_subtract_direct_children():
    spans = [
        ["run", 0.0, 10.0, -1, 0],
        ["kkt", 1.0, 3.0, 0, 0],
        ["test", 4.0, 8.0, 0, 0],
        ["inner", 5.0, 6.0, 2, 0],
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]
