import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from pdhglp import certificates, pdhg

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def perfbench(monkeypatch):
    """Load a module of perfbench/ by name, read-only, for this test only.

    perfbench's modules import one another by bare name, so each loaded
    module is registered in sys.modules until the test ends."""

    def load(name):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    return load


@pytest.fixture
def no_verdict(monkeypatch):
    """Fail every certificate test and every KKT test of pdhg.run, whatever
    their figures, so a run goes on to its budget.  A tolerance cannot do
    this: an exact certificate or point has error 0, which passes any."""

    def failed(check):
        return lambda *args: dataclasses.replace(check(*args), passed=False)

    for name in ("check_primal_infeasibility", "check_dual_infeasibility"):
        monkeypatch.setattr(certificates, name, failed(getattr(certificates, name)))
    kkt_residual = pdhg.kkt_residual
    monkeypatch.setattr(
        pdhg,
        "kkt_residual",
        lambda *args: dataclasses.replace(kkt_residual(*args), gap=np.inf),
    )
