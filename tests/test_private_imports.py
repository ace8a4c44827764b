"""No module of the package imports another module's private helpers.

A private name starts with one underscore; dunder names such as ``__all__``
are public. The scan parses every ``src/tailbounds/*.py`` and flags
``from .m import _x``, ``from tailbounds.m import _x`` and ``m._x`` where
``m`` names a module of the package. A module's use of its own private
names is not an import and is never flagged.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = "tailbounds"
SRC = Path(__file__).resolve().parent.parent / "src" / PACKAGE
MODULES = {path.stem for path in SRC.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package-relative module an import reads from ("" for the package), or None."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module is not None:
        head, _, rest = node.module.partition(".")
        if head == PACKAGE:
            return rest
    return None


def _dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def private_imports(source: str) -> list[str]:
    """Every import of, or attribute access to, another module's private name."""
    tree = ast.parse(source)
    siblings = {f"{PACKAGE}.{m}" for m in MODULES}  # names bound to package modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _package_module(node)
            if module is None:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: from {module or '.'} import {alias.name}")
                elif module == "" and alias.name in MODULES:
                    siblings.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == PACKAGE and rest in MODULES and alias.asname:
                    siblings.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            if _dotted(node.value) in siblings:
                found.append(f"line {node.lineno}: {_dotted(node)}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_private_helpers(path):
    assert private_imports(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "from .cli import _lower_exact",
    "from .exact_oracle import TailEstimate, _partial_fractions as pf",
    "from tailbounds.exact_oracle import _partial_fractions",
    "from . import _private_helper",
    "from . import exact_oracle\nexact_oracle._partial_fractions([1.0], [0.0])",
    "from . import exact_oracle as eo\nlimit = eo._MAX_SUPPORT",
    "from tailbounds import montecarlo\nmontecarlo._row_sums",
    "import tailbounds.model as model\nmodel._EPS",
    "import tailbounds.model\ntailbounds.model._EPS",
])
def test_scan_flags_private_imports(source):
    assert private_imports(source)


@pytest.mark.parametrize("source", [
    "from .exact_oracle import TailEstimate",
    "from .model import __all__",
    "from . import exact_oracle\nexact_oracle.__name__",
    "import numpy as np\nnp._NoValue",
    "def f(spec):\n    return spec._cache",
    "_EPS = 1.0\nx = _EPS",
])
def test_scan_allows_public_and_own_names(source):
    assert private_imports(source) == []
