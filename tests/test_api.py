import ast
import importlib
import importlib.util
import pkgutil
import types
from pathlib import Path

import pytest

import unlearn_forge

MODULES = sorted(m.name for m in pkgutil.iter_modules(unlearn_forge.__path__))
DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))

# defaulted public parameters and dataclass fields, pinned exactly: a change that
# adds or deletes a setting moves this count in the same diff
MAX_SETTABLE_VALUES = 32


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"unlearn_forge.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"unlearn_forge.{name}.__all__ names missing objects: {missing}"


def test_every_public_name_has_one_home():
    """The package re-exports nothing: each public name is imported from the
    module whose ``__all__`` lists it, so the package binds only submodules."""
    bound = sorted(name for name, value in vars(unlearn_forge).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert not bound, f"unlearn_forge binds non-module names: {bound}"


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports(path):
    # each demo runs its work under __main__, so importing it only resolves
    # the library names it uses
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def _settable_values(tree: ast.Module):
    """The defaulted parameters of the module's public functions and of its
    public classes' public methods and ``__init__``, and the defaulted
    fields of its public dataclasses, one name per value."""
    def defaults(fn, owner=""):
        count = len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)
        return [f"{owner}{fn.name}"] * count

    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found += defaults(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            dataclass = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and (
                        not member.name.startswith("_") or member.name == "__init__"):
                    found += defaults(member, f"{node.name}.")
                elif dataclass and isinstance(member, ast.AnnAssign) and member.value:
                    found.append(f"{node.name}.{member.target.id}")
    return found


def test_settable_values_do_not_grow():
    found = [f"{path.stem}.{name}"
             for path in sorted(Path(unlearn_forge.__file__).parent.glob("*.py"))
             for name in _settable_values(ast.parse(path.read_text()))]
    assert len(found) == MAX_SETTABLE_VALUES, found


def test_benchmark_tracer_names_resolve():
    """Every function and ``Objective`` method that the benchmark's tracer
    wraps still exists, so deleting one fails here and not only in the
    benchmark's own smoke tests."""
    from unlearn_forge import models

    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for module, name, _ in tracer.FUNCTIONS
               if not hasattr(importlib.import_module(f"unlearn_forge.{module}"), name)]
    missing += [f"models.Objective.{name}" for name in tracer.MODEL_METHODS
                if not hasattr(models.Objective, name)]
    assert not missing, missing
