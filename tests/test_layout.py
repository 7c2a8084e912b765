"""Layout rules for the modules of ``src/momentlab``, checked on their syntax trees.

A module imports no ``_``-prefixed name from another module: what two
modules share is public in the one that owns it. A module imports no name
it never uses; a name listed in ``__all__`` counts as used (re-exports).
The third-party modules the package imports are its declared dependencies.
Each command's runner reads exactly the parameters that the config table
lets that command's configs carry.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

from momentlab.config import _PARAMETERS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "momentlab"
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


def third_party_imports(sources) -> set[str]:
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names)


def test_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    assert third_party_imports(path.read_text() for path in MODULES) == declared


def _functions(*paths) -> dict:
    return {
        node.name: node
        for path in paths
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }


def keys_read(func, functions: dict) -> set:
    """The keys that ``func`` reads from the dict that is its first argument.

    A key counts when read as ``p["k"]``, ``p.get("k")``, ``"k" in p`` or
    through ``given(p, ...)``; a call ``f(p, ...)`` of another function in
    ``functions`` adds the keys ``f`` reads. A key that is no string literal,
    or a read through another method of the dict, shows up as ``None``, and
    a call of any other function with the dict raises ``KeyError``, so
    neither can hide a read.
    """
    name = func.args.args[0].arg

    def is_dict(node):
        return isinstance(node, ast.Name) and node.id == name

    def literal(node):
        return node.value if isinstance(node, ast.Constant) else None

    keys = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and is_dict(node.value):
            keys.add(literal(node.slice))
        elif isinstance(node, ast.Compare) and is_dict(node.comparators[-1]):
            assert isinstance(node.ops[-1], (ast.In, ast.NotIn))
            keys.add(literal(node.left))
        elif not isinstance(node, ast.Call):
            continue
        elif isinstance(node.func, ast.Attribute) and is_dict(node.func.value):
            keys.add(literal(node.args[0]) if node.func.attr == "get" else None)
        elif node.args and is_dict(node.args[0]):
            callee = getattr(node.func, "id", None)
            if callee == "given":
                keys |= {literal(arg) for arg in node.args[1:]}
                keys |= {literal(kw.value) for kw in node.keywords}
            else:
                keys |= keys_read(functions[callee], functions)
    return keys


def table_keys(command: str) -> set:
    tag, variants = _PARAMETERS[command]
    keys = {tag} - {None}
    for required, optional in variants.values():
        keys |= {*required, *optional}
    return keys


def test_the_key_reader_sees_every_form():
    source = (
        "def helper(q):\n"
        "    return q['e']\n"
        "def _run_x(p, out):\n"
        "    a = p['a'] + p.get('b', 0)\n"
        "    if 'c' in p and 'z' not in p:\n"
        "        given(p, 'd', renamed='f')\n"
        "    return helper(p), p['g']['not-a-key']\n"
    )
    functions = {node.name: node for node in ast.parse(source).body}
    assert keys_read(functions["_run_x"], functions) == {"a", "b", "c", "z", "d", "f", "e", "g"}


@pytest.mark.parametrize("command", sorted(_PARAMETERS))
def test_each_command_reads_exactly_its_table(command):
    functions = _functions(PACKAGE / "runner.py", PACKAGE / "config.py")
    run = functions["_run_" + command.replace("-", "_")]
    assert keys_read(run, functions) == table_keys(command)
