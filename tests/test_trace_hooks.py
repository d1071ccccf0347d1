"""The benchmark's tracer patches package attributes by name; every name it
lists must exist where it looks, or `perfbench/run.py --trace 1` stops with
a KeyError.  And every wrapper of the analysis must fire: a call moved out
of the namespace the tracer patches would leave its per-layer time at 0.
These tests only read perfbench/tracing.py."""

import importlib.util
from collections import Counter
from pathlib import Path

from pdhglp import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_is_defined_on_its_owner():
    tracing = _load_tracing()
    patches = tracing._patches(tracing.Tracer())
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in patches
        if attr not in owner.__dict__
    ]
    assert not missing, missing
    listed = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in patches}
    for name in (
        ("pdhglp.pdhg", "active_pattern"),
        ("pdhglp.cli", "active_set"),
        ("StandardFormOperator", "apply"),
        ("GeneralFormOperator", "apply"),
        ("ShiftedOperator", "apply"),
    ):
        assert name in listed, name


def test_the_tracer_fires_on_analyze(capsys):
    # ex1(1, 2) is in general form, so the analysis standardizes it first.
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        code = cli.main(["analyze", "--demo", "ex1", "--alpha", "1", "--beta", "2"])
    capsys.readouterr()
    assert code == cli.EXIT_OK
    spans = Counter(name for name, *_ in tracer.spans)
    for name in (
        "cli.analysis_report",
        "model.standardize",
        "identify.refine_ray",
        "identify.affine_phase",
        "identify.freeze",
        "identify.shift_identity",
        "identify.rate_regimes",
        "fixed_point.fit",
    ):
        assert spans[name] >= 1, name
