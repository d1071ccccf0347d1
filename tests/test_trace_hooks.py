"""The benchmark's tracer patches package attributes by name; every name it
lists must exist where it looks, or `perfbench/run.py --trace 1` stops with
a KeyError.  This test only reads perfbench/tracing.py."""

import importlib.util
from pathlib import Path

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
