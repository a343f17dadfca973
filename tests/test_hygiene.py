"""Import hygiene of the package: exported names resolve, every module-level
import is used, imports inside functions are kept to the one that breaks
the ``semilinear`` / ``frac1d`` import cycle, the package needs nothing
but numpy and the standard library, and every function in it is on a run's
path or is a listed exception."""

import ast
import importlib
import json
import sys
import time
from pathlib import Path

import pytest

import dirichlet_lab
from dirichlet_lab import cli

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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    # numpy is the one runtime dependency in pyproject.toml; scipy is for the
    # tests only, so no module may reach for it, even inside a function
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    assert not sorted(found - allowed)


# functions in src/ that no ``dirichlet-lab run`` or ``gen`` enters, and why each stays
EXCEPTIONS = {
    "semilinear.LadderConfig.__post_init__": "solve(p, LadderConfig()) runs the paper's ladder",
    "semilinear.LadderConfig.schedule": "the ladder's levels, the Newton tests' reference",
    "frac1d.apply_RD": "the benchmark's nonfinite probe reads it; green_matrix is tested on it",
    "frac1d.FracKernels.poisson": "the exit density that _exit_average inlines, its test",
    "frac1d.QuadGrid.refine": "README's error-estimate pattern",
    "wos.wos_exit_chi2": "benchmark/layers.py binds it; it goes with ROADMAP item 7",
    "trace.killing_part_frac": "the continuum killing density of ROADMAP item 23",
}


def _defs() -> dict:
    """``module.function`` and ``module.Class.method`` of every def in src/, keyed
    to ``(file, first line)``, the first line being its first decorator's."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        body = _tree(path).body
        found = [(fn, path.stem) for fn in body]
        found += [(fn, f"{path.stem}.{cls.name}") for cls in body
                  if isinstance(cls, ast.ClassDef) for fn in cls.body]
        for fn, owner in found:
            if isinstance(fn, ast.FunctionDef):
                line = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                out[str(path), line] = f"{owner}.{fn.name}"
    return out


def _argvs(tmp_path) -> list:
    """``cli.main`` arguments: a graph spec with a compact J, a kappa-free one
    with zero absorption, continuum specs with every g and f kind, atoms, nu,
    a nest and the grid keys, all suites, --dump-kernels once per backend, a
    malformed spec and gen."""
    J = [[0.0, 0.5, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5], [0.0, 0.0, 0.5, 0.0]]
    graph = {"form": {"m": [1.0] * 4, "J": J, "kappa": [1.0, 0.0, 0.0, 0.0]}, "D": [1, 2],
             "g": [1.0, 0.0, 0.0, 0.5], "mu": [0.0, 0.2, 0.0, 0.0], "nest": [[1], [1, 2]],
             "f": {"kind": "power", "b": [1.0] * 4, "p": 3.0}}
    frac = {"backend": "frac1d", "alpha": 1.2,
            "grid": {"order": 4, "n_base": 4, "edge_levels": 6, "out_levels": 4}}
    specs = [json.dumps(graph, separators=(",", ":")),
             {**graph, "form": {**graph["form"], "kappa": [0.0] * 4}, "f": {"kind": "zero"}},
             {**frac, "g": {"kind": "const", "value": 1.0}, "nu": {"plus": 0.1, "minus": 0.05},
              "f": {"kind": "power", "b": 1.0, "p": 3.0}, "nest_levels": 4},
             {**frac, "g": {"kind": "indicator", "a": 1.0, "b": 2.0},
              "f": {"kind": "exp", "b": 0.5}, "mu": {"atoms": [[0.1, 0.5]]}},
             {**frac, "g": {"kind": "power_singular", "p": 0.2, "coef": 0.5}, "nest": [0.5, 0.75],
              "f": {"kind": "custom-table", "y": [-1.0, 0.0, 1.0], "values": [1.0, 0.0, -1.0]}},
             {**frac, "g": {"kind": "zero"}, "f": {"kind": "zero"}},
             {**graph, "form": {**graph["form"], "m": ["a", 1.0, 1.0, 1.0]}}]
    argvs = []
    for k, spec in enumerate(specs):
        path = tmp_path / f"spec_{k}.json"
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        argvs.append(["run", str(path), "--out", str(tmp_path / f"out_{k}"), "--paths", "100"]
                     + ["--dump-kernels"] * (k in (0, 2)))
    return argvs + [["gen", "--seed", "1", "--count", "1", "--out", str(tmp_path / "gen")]]


def test_every_src_function_runs_or_is_listed(tmp_path, capsys):
    # each def in src/ is entered by a run, under sys.setprofile, or is one of
    # EXCEPTIONS; a listed function that a run enters is no exception
    for name in MODULES:
        for value in vars(importlib.import_module(f"dirichlet_lab.{name}")).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()  # a cached call would not enter its function
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    argvs, start = _argvs(tmp_path), time.perf_counter()
    sys.setprofile(profile)
    try:
        statuses = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(None)
    seconds = time.perf_counter() - start
    # every spec is solved (exit 0 or 1) but the malformed one; gen exits 0
    assert {*statuses[:-2]} <= {0, 1} and statuses[-2:] == [2, 0], capsys.readouterr().out
    missed = {name for key, name in _defs().items() if key not in entered}
    assert sorted(missed) == sorted(EXCEPTIONS)
    assert seconds < 5.0
