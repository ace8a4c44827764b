"""Every public name of the package has a use outside the tests.

A helper that only the tests call lives in ``tests/``, not in the package.
The scan parses every ``src/tailbounds/*.py`` but ``__init__.py``, which only
re-exports, and every ``scripts/*.py`` and ``bench/*.py``. A use is a name
read as an ``ast.Name``, the attribute of an ``ast.Attribute`` that is read,
or a name a ``from ... import`` reads. A ``def`` or ``class`` line, an
assignment, a docstring or a comment is not a use. Each name in
``tailbounds.__all__`` must have one.
"""

import ast
from pathlib import Path

import pytest

import tailbounds

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [path for path in (ROOT / "src" / "tailbounds").glob("*.py") if path.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "bench").glob("*.py"))
)


def used_names(source: str) -> set[str]:
    """Every name the source reads: loaded names and attributes, and imported names."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def unused(names, sources) -> list[str]:
    """The names that no source uses, sorted."""
    used = set().union(*map(used_names, sources))
    return sorted(set(names) - used)


def test_every_public_name_is_used_outside_the_tests():
    assert unused(tailbounds.__all__, (path.read_text() for path in SOURCES)) == []


NAME = "lemma_check"


@pytest.mark.parametrize("source", [
    "def lemma_check(A, x):\n    return True",
    "class lemma_check:\n    pass",
    "lemma_check = None",
    '"""lemma_check backs the lower bound."""',
    "def f():\n    '''Calls lemma_check.'''\n    return 'lemma_check'",
    "# lemma_check(4.0, 0.2)\nx = 1",
    "import tailbounds as tb\ntb.lemma_check = None",
])
def test_scan_flags_unused_names(source):
    assert unused([NAME], [source]) == [NAME]


@pytest.mark.parametrize("source", [
    "lemma_check(4.0, 0.2)",
    "def lemma_check(A, x):\n    return True\n\nok = lemma_check(4.0, 0.2)",
    "from tailbounds import lemma_check",
    "from .geom_bounds import lemma_check as check",
    "import tailbounds as tb\ntb.lemma_check(4.0, 0.2)",
    "checks = [lemma_check]",
])
def test_scan_accepts_used_names(source):
    assert unused([NAME], [source]) == []
