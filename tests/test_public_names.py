"""Each module's __all__ names what the module defines for use elsewhere:
every name listed exists, and every public class or function the module
defines is listed.  cli, the command-line entry point, has no __all__."""

import importlib
import inspect
import pkgutil

import pytest

import pdhglp

MODULES = sorted(m.name for m in pkgutil.iter_modules(pdhglp.__path__))


def test_only_the_entry_point_lacks_all():
    lacking = [
        name
        for name in MODULES
        if not hasattr(importlib.import_module(f"pdhglp.{name}"), "__all__")
    ]
    assert lacking == ["cli"]


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cli"])
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"pdhglp.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"__all__ names what pdhglp.{name} lacks"
    defined = [
        n
        for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    ]
    assert sorted(set(defined) - set(module.__all__)) == []
    assert len(module.__all__) == len(set(module.__all__))
