"""Every module of the package uses every name it imports.

No linter ships with the toolchain, so this check uses the stdlib ``ast``
module alone. ``__init__.py`` is exempt: its imports are the public
re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "opclass"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[str]:
    """``"line N: name"`` for every imported name that the module (or, for
    an import inside a function, that function) never reads."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    exported = _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        scope = parent[node]
        while not isinstance(scope, _SCOPES):
            scope = parent[scope]
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and name not in exported:
                unused.append(f"line {node.lineno}: {name}")
    return unused


def test_unused_imports_finds_module_and_local_imports():
    source = (
        "from dataclasses import dataclass, field\n"
        "import numpy as np\n"
        "__all__ = ['dataclass']\n"
        "def f():\n"
        "    from math import pi, tau\n"
        "    return np.float64(tau)\n"
        "def g():\n"
        "    return pi\n"
    )
    assert unused_imports(source) == ["line 1: field", "line 5: pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
