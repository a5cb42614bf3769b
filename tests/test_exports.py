"""Every name that `fvl` or one of its modules lists in `__all__` resolves,
so a removed or renamed function cannot linger in an export list."""

import importlib
import pkgutil

import pytest

import fvl

MODULES = ["fvl"] + sorted(f"fvl.{info.name}" for info in pkgutil.iter_modules(fvl.__path__))


def test_every_module_is_listed():
    assert {"fvl.dataio", "fvl.flowfeat", "fvl.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
