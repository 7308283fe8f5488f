"""Every module of the package uses every name it imports, every
module-level private name is used somewhere in the package, the band
scale max(1, x)^degree is spelled only in ``linalg._scale``, only
``linalg`` calls numpy's factorizations or imports numpy's private
modules, and importing the package loads no scipy module.

No linter ships with the toolchain, so these checks use the stdlib ``ast``
module alone. ``__init__.py`` is exempt from the import check: its imports
are the public re-exports.
"""

import ast
import os
import subprocess
import sys
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


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced(stmt: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``"module line N: name"`` for every module-level private function,
    class or constant that no top-level statement of any module refers to,
    other than the statement that defines it."""
    stmts = [(module, stmt) for module, source in sources.items()
             for stmt in ast.parse(source).body]
    refs = [_referenced(stmt) for _, stmt in stmts]
    dead = []
    for i, (module, stmt) in enumerate(stmts):
        for name in _defined(stmt):
            private = name.startswith("_") and not name.startswith("__")
            if private and not any(name in r for j, r in enumerate(refs) if j != i):
                dead.append(f"{module} line {stmt.lineno}: {name}")
    return dead


def test_unreferenced_private_names_finds_dead_definitions():
    sources = {
        "a.py": (
            "def _used():\n"
            "    return 1\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "_CONST = 3\n"
            "_UNUSED: int = 4\n"
            "class _Imported:\n"
            "    pass\n"
            "def public():\n"
            "    return _used() + _CONST\n"
        ),
        "b.py": "from .a import _Imported\n",
    }
    assert unreferenced_private_names(sources) == [
        "a.py line 3: _recursive", "a.py line 6: _UNUSED"
    ]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def spelled_scales(source: str, owner: str | None = None) -> list[str]:
    """``"line N"`` for every call of the builtin ``max`` whose first
    argument is the float literal 1.0, the band scale of
    ``linalg._scale`` spelled out, outside the function ``owner``."""
    tree = ast.parse(source)
    exempt = {id(n) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == owner
              for n in ast.walk(f)}
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in exempt
            and isinstance(node.func, ast.Name) and node.func.id == "max" and node.args
            and isinstance(node.args[0], ast.Constant) and type(node.args[0].value) is float
            and node.args[0].value == 1.0]


def test_spelled_scales_finds_float_clamps_outside_the_owner():
    source = (
        "def _scale(x, d):\n"
        "    return max(1.0, x) ** d\n"
        "def f(x, n):\n"
        "    return max(1.0, x) * max(1, n - 1) * max(x, 1.0)\n"
    )
    assert spelled_scales(source, "_scale") == ["line 4"]
    assert spelled_scales(source) == ["line 2", "line 4"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_band_scale_is_spelled_only_in_linalg(path):
    # Every band tol * max(1, x)^degree reads linalg._scale, so moving the
    # rule (to ||x||^degree, say) is an edit of that one function.
    owner = "_scale" if path.name == "linalg.py" else None
    assert spelled_scales(path.read_text(), owner) == []


# numpy's factorizations (and matrix_power), which the package calls only
# through the kernels of linalg.
_FACTORIZATIONS = frozenset({"svd", "eigh", "eigvalsh", "eigvals", "qr", "matrix_power"})


def named_factorizations(source: str) -> list[str]:
    """``"line N: F"`` for every ``np.linalg.F`` or ``numpy.linalg.F`` and
    every ``from numpy.linalg import F``, F one of _FACTORIZATIONS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in _FACTORIZATIONS
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")):
            found.append(f"line {node.lineno}: {node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names
                      if alias.name in _FACTORIZATIONS]
    return found


def test_named_factorizations_finds_attributes_and_imports():
    source = (
        "import numpy\n"
        "from numpy.linalg import qr, LinAlgError\n"
        "u = np.linalg.svd(a)[0] + numpy.linalg.matrix_power(a, 2)\n"
        "n = np.linalg.norm(a, axis=0)\n"
        "e = np.linalg.LinAlgError\n"
    )
    assert sorted(named_factorizations(source)) == [
        "line 2: qr", "line 3: matrix_power", "line 3: svd"
    ]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_numpy_factorizations_are_called_only_in_linalg(path):
    # linalg owns the package's LAPACK calls: its kernels call numpy's own
    # gufuncs under numpy's errstate, and every other module calls them.
    assert named_factorizations(path.read_text()) == []


# numpy's private modules, which only linalg imports: the LAPACK gufuncs
# and the error-state context variable its kernels set.
_PRIVATE_NUMPY = ("numpy._core", "numpy.linalg._umath_linalg")


def private_numpy_imports(source: str) -> list[str]:
    """``"line N: M"`` for every import of a module M under one of
    _PRIVATE_NUMPY, also as ``from numpy import _core`` or ``from
    numpy.linalg import _umath_linalg``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if any(name == p or name.startswith(p + ".") for p in _PRIVATE_NUMPY)]
    return found


def test_private_numpy_imports_finds_every_spelling():
    source = (
        "import numpy._core.umath as um\n"
        "from numpy import _core, linalg\n"
        "from numpy.linalg import _umath_linalg, norm\n"
        "from numpy._core.umath import _make_extobj\n"
        "from numpy.linalg import LinAlgError\n"
        "from ._core import x\n"
    )
    assert private_numpy_imports(source) == [
        "line 1: numpy._core.umath", "line 2: numpy._core",
        "line 3: numpy.linalg._umath_linalg", "line 4: numpy._core.umath",
        "line 4: numpy._core.umath._make_extobj",
    ]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_numpy_private_modules_are_imported_only_in_linalg(path):
    assert private_numpy_imports(path.read_text()) == []


def test_importing_the_package_loads_no_scipy_module():
    # scipy costs more to import than the package itself, and only a Matrix
    # Market file and the gesvd fallback of Subspace.complement use it, so
    # they import it where they use it. A fresh interpreter tells.
    code = ("import sys, opclass; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
        str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
