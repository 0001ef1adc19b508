"""Every import in the package's modules is used where it is made, and
the modules import one another only down their layers.

No linter runs on this repository, so a name left imported after the code
that used it is gone would otherwise go unnoticed.  ``__init__.py`` is
skipped: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "birkdag"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import in a module's or function's own body that
    nothing in that module or function reads."""
    unused = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, functions)]
    for scope in scopes:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for stmt in scope.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"line {stmt.lineno}: {bound}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_detects_an_unused_import():
    tree = ast.parse("from dataclasses import dataclass, replace\n\n"
                     "@dataclass\nclass A:\n    x: int\n\n"
                     "def f():\n    import json\n    return 1\n")
    assert unused_imports(tree) == ["line 1: replace", "line 8: json"]


# Each module may import only modules in earlier layers.  birkhoff and
# solver share a layer: neither imports the other.
LAYERS = [{"sem"}, {"scoring"}, {"birkhoff", "solver"}, {"pipeline"}, {"metrics"}, {"io"},
          {"cli"}]


def package_imports(tree: ast.Module) -> set[str]:
    """The birkdag modules a module imports, at module level or in a function."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "birkdag":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("birkdag."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("birkdag."))
    return names


def test_layers_cover_every_module():
    assert set().union(*LAYERS) == {path.stem for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_earlier_layers(path):
    layer = next(i for i, names in enumerate(LAYERS) if path.stem in names)
    earlier = set().union(*LAYERS[:layer])
    assert package_imports(ast.parse(path.read_text())) <= earlier


def test_package_imports_reads_every_form():
    tree = ast.parse("from birkdag.sem import Permutation\nimport birkdag.scoring\n"
                     "def f():\n    from birkdag import io as bio\n")
    assert package_imports(tree) == {"sem", "scoring", "io"}
