"""Layout rules for the modules of ``src/momentlab``, checked on their syntax trees.

A module imports no ``_``-prefixed name from another module: what two
modules share is public in the one that owns it. A module imports no name
it never uses; a name listed in ``__all__`` counts as used (re-exports).
Every name a module lists in ``__all__`` is defined in it.
The third-party modules the package imports are its declared dependencies.
Each command's runner reads exactly the parameters that the config table
lets that command's configs carry, and neither the runner nor config states
a default of its own for one: the table gives each default, and the four
experiment functions take none. Every public top-level function, and
every public method of a class, is used by other code of the package, so the
library holds no code that only the tests call; the console script is the
one entry point.
"""

import ast
import importlib
import inspect
import re
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

from momentlab.config import _PARAMETERS
from momentlab.injectivity import brute_force_collision_oracle, codimension_probe, collision_search
from momentlab.mra import recover

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


def missing_exports(module) -> list[str]:
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_the_export_check_flags_a_stale_name():
    module = types.ModuleType("stale")
    module.__all__ = ["present", "gone"]
    module.present = None
    assert missing_exports(module) == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_exists(path):
    name = "momentlab" if path.stem == "__init__" else f"momentlab.{path.stem}"
    assert missing_exports(importlib.import_module(name)) == []


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

    A key counts when read as ``p["k"]``, ``p.get("k")`` or ``"k" in p``; a
    call ``f(p, ...)`` of another function in ``functions`` adds the keys
    ``f`` reads. A key that is no string literal, or a read through another
    method of the dict, shows up as ``None``, and a call of any other
    function with the dict raises ``KeyError``, so neither can hide a read.
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
            keys |= keys_read(functions[getattr(node.func, "id", None)], functions)
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
        "    a = p['a'] + p.get('b')\n"
        "    if 'c' in p and 'z' not in p:\n"
        "        a += p.get('d', 0)\n"
        "    return helper(p), p['g']['not-a-key']\n"
    )
    functions = {node.name: node for node in ast.parse(source).body}
    assert keys_read(functions["_run_x"], functions) == {"a", "b", "c", "z", "d", "e", "g"}
    assert own_defaults(source) == ["6: 'd'"]


@pytest.mark.parametrize("command", sorted(_PARAMETERS))
def test_each_command_reads_exactly_its_table(command):
    functions = _functions(PACKAGE / "runner.py", PACKAGE / "config.py")
    run = functions["_run_" + command.replace("-", "_")]
    assert keys_read(run, functions) == table_keys(command)


def own_defaults(source: str) -> list[str]:
    """``line: key`` of each ``p.get(key, default)`` in ``source``.

    ``p`` names a command's parameters throughout ``runner`` and ``config``. They
    read a field with a default in the table as ``p["k"]``, since the run gets the
    parameters with the table's defaults filled in, and a field whose absence is
    itself the setting with ``in`` or a one-argument ``get``.
    """
    return [
        f"{node.lineno}: {ast.unparse(node.args[0])}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "p"
        and len(node.args) + len(node.keywords) > 1
    ]


@pytest.mark.parametrize("name", ["runner.py", "config.py"])
def test_no_default_besides_the_table(name):
    assert own_defaults((PACKAGE / name).read_text()) == []


@pytest.mark.parametrize(
    "func", [collision_search, codimension_probe, brute_force_collision_oracle, recover],
    ids=lambda f: f.__name__,
)
def test_the_experiment_functions_take_no_run_defaults(func):
    parameters = inspect.signature(func).parameters.values()
    assert [a.name for a in parameters if a.default is not inspect.Parameter.empty] == []


#: Public functions called from outside the package only: the console script.
ENTRY_POINTS = {"cli.main"}


def _local_names(func) -> set:
    """Names a function or lambda binds itself: its arguments and assignments."""
    args = func.args
    params = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
    names = {a.arg for a in params if a}
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node is not func:
            names.add(node.name)
    return names


def orphans(sources: dict) -> list[str]:
    """``module.name`` of each public top-level function no other code uses,
    then ``module.Class.name`` of each such public method.

    ``sources`` maps module names to their source. A name is resolved through
    the module that binds it: its own top-level definitions, and
    ``from .x import y as z`` (z is x.y). A use inside the function it names,
    or one that a local name of an enclosing function shadows, does not
    count; nor do ``__all__`` strings or the imports of ``__init__``. A
    method's type is not resolved: any read of an attribute of its name
    outside its own body counts as a use.
    """
    trees = {m: ast.parse(source) for m, source in sources.items() if m != "__init__"}
    public, used = [], set()
    for m, tree in trees.items():
        binding = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                binding[node.name] = (m, node.name)
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    public.append((m, node.name))
            elif isinstance(node, ast.ImportFrom) and node.level:
                binding |= {a.asname or a.name: (node.module, a.name) for a in node.names}

        def visit(node, owner, shadowed):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                shadowed = shadowed | _local_names(node)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                target = binding.get(node.id)
                if target and node.id not in shadowed and target != (m, owner):
                    used.add(target)
            for child in ast.iter_child_nodes(node):
                visit(child, owner, shadowed)

        for node in tree.body:
            visit(node, getattr(node, "name", None), frozenset())
    found = [f"{m}.{name}" for m, name in public if (m, name) not in used]

    def reads(node):
        return Counter(
            n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        )

    read = sum(map(reads, trees.values()), Counter())
    for m, tree in trees.items():
        for cls in tree.body:
            for f in cls.body if isinstance(cls, ast.ClassDef) else ():
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                    if read[f.name] == reads(f)[f.name]:
                        found.append(f"{m}.{cls.name}.{f.name}")
    return found


def test_the_orphan_check_flags_an_unused_function():
    sources = {
        "a": (
            "def used():\n    return 1\n"
            "def orphan(n):\n    return orphan(n - 1) if n else used()\n"
            "def shadowed():\n    return 2\n"
            "def _call(shadowed):\n    return shadowed()\n"
            "def aliased():\n    return 3\n"
        ),
        "b": "from .a import aliased as run\n__all__ = ['orphan']\ndef _go():\n    return run()\n",
        "__init__": "from .a import orphan, shadowed\n__all__ = ['orphan', 'shadowed']\n",
    }
    assert orphans(sources) == ["a.orphan", "a.shadowed"]


def test_the_orphan_check_flags_an_unused_method():
    sources = {
        "a": (
            "class Group:\n"
            "    def used(self):\n        return 1\n"
            "    @classmethod\n"
            "    def orphan(cls, n):\n        return cls.orphan(n - 1) if n else cls\n"
            "    @property\n"
            "    def size(self):\n        return self.used()\n"
            "    def _private(self):\n        return 2\n"
            "    def stored(self):\n        return 3\n"
        ),
        "b": (
            "from .a import Group\n"
            "def _run(g):\n    g.stored = 1\n    return g.size\n"
        ),
    }
    assert orphans(sources) == ["a.Group.orphan", "a.Group.stored"]


def test_every_public_function_is_used_in_the_package():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert [name for name in orphans(sources) if name not in ENTRY_POINTS] == []
