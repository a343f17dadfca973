"""Import hygiene of the package: exported names resolve, every module-level
import is used, and imports inside functions are kept to the one that breaks
the ``semilinear`` / ``frac1d`` import cycle."""

import ast
import importlib
from pathlib import Path

import pytest

import dirichlet_lab

SRC = Path(dirichlet_lab.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("name", [None, *MODULES])
def test_every_exported_name_resolves(name):
    mod = dirichlet_lab if name is None else importlib.import_module(f"dirichlet_lab.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = _tree(path)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
    unused = sorted(f"{name} (line {line})" for name, line in bound.items()
                    if name not in used | exported)
    assert not unused


def test_the_only_function_level_import_breaks_the_cycle():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.stem, fn.name, node.module) for node in ast.walk(fn)
                          if isinstance(node, ast.ImportFrom)]
                found += [(path.stem, fn.name, alias.name) for node in ast.walk(fn)
                          if isinstance(node, ast.Import) for alias in node.names]
    assert found == [("semilinear", "solve", "frac1d")]
