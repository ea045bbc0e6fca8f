import importlib
import pkgutil

import pytest

import unlearn_forge

MODULES = sorted(m.name for m in pkgutil.iter_modules(unlearn_forge.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"unlearn_forge.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"unlearn_forge.{name}.__all__ names missing objects: {missing}"
