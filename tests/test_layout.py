"""Layout rules for the modules of ``src/momentlab``, checked on their syntax trees.

A module imports no ``_``-prefixed name from another module: what two
modules share is public in the one that owns it. A module imports no name
it never uses; a name listed in ``__all__`` counts as used (re-exports).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "momentlab"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree):
    """(bound name, imported name) of every import, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], alias.name


def private_imports(source: str) -> list[str]:
    return [name for _, name in _imported(ast.parse(source)) if name.startswith("_")]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [bound for bound, _ in _imported(tree) if bound not in used]


def test_the_checks_flag_a_bad_module():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .priors import _parse_activation, as_rng\n"
        "__all__ = ['as_rng']\n"
    )
    assert private_imports(source) == ["_parse_activation"]
    assert unused_imports(source) == ["np", "_parse_activation"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported(path):
    assert private_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
