"""No module of the package uses a private name of a sibling module, each
public name has one home, only ``errors`` builds a CapacityError, and no
module keeps a private name it never reads.

A rule that two modules need lives in one of them under a public name;
the other imports that name.  The check parses every module with ``ast``.
A module's ``__all__`` lists only what it defines, and the package imports
each name it re-exports from the module whose ``__all__`` lists it.  Every
refusal for capacity goes through ``errors.within_budget``, so no other
module calls ``CapacityError(...)``.  A private module-level function,
class or constant that its own module never reads is a leftover of a
deleted code path.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "collision_lab"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_uses(source: str) -> list:
    """``(line, "sibling._name")`` for every ``from .sibling import _name``
    and every ``sibling._name`` on a sibling imported as a module."""
    tree = ast.parse(source)
    siblings, found = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and node.module is None:
            # from . import sibling
            siblings.update(alias.asname or alias.name for alias in node.names)
        elif node.level == 1 or (node.module or "").startswith("collision_lab"):
            found += [(node.lineno, f"{node.module}.{alias.name}")
                      for alias in node.names if _private(alias.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in siblings):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_sibling_names(path):
    assert private_uses(path.read_text()) == []


def test_guard_trips():
    assert private_uses("from .prng import KBitStream, _splitmix64\n") == [
        (1, "prng._splitmix64")]
    assert private_uses("from collision_lab.prng import _make_core\n") == [
        (1, "collision_lab.prng._make_core")]
    assert private_uses("from . import prng\nx = prng._MASK64 + prng.derive_seed(0, 0)\n") == [
        (2, "prng._MASK64")]
    assert private_uses("from .errors import exact_int\nfrom . import __version__\n") == []


# the modules with a public API; cli and the package's own files have none
PUBLIC_MODULES = ("analytics", "empirics", "errors", "ieee754", "prng", "stable_math")


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_all_names_resolve_and_live_here(name):
    module = importlib.import_module(f"collision_lab.{name}")
    for entry in module.__all__:
        value = getattr(module, entry)  # every entry resolves
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == module.__name__, entry


def test_package_imports_each_name_from_its_home():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"collision_lab.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"


def capacity_errors_built(source: str) -> list:
    """Lines that call ``CapacityError(...)``, by name or as an attribute."""
    calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    return sorted(call.lineno for call in calls
                  if getattr(call.func, "id", getattr(call.func, "attr", None)) == "CapacityError")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_capacity_errors_built_only_in_errors(path):
    assert capacity_errors_built(path.read_text()) == []


def test_capacity_guard_trips():
    assert capacity_errors_built("raise CapacityError('x')\n") == [1]
    assert capacity_errors_built("from . import errors\n\nraise errors.CapacityError()\n") == [3]
    assert capacity_errors_built("try:\n    f()\nexcept (CapacityError, ValueError):\n"
                                 "    pass\n") == []
    assert capacity_errors_built((PACKAGE / "errors.py").read_text()) != []


def unread_privates(source: str) -> list:
    """``(line, name)`` for every private module-level function, class or
    constant that the module itself never reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(name.lineno, name.id) for target in targets
                        for name in ast.walk(target) if isinstance(name, ast.Name)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for line, name in defined
                  if _private(name) and name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read_at_home(path):
    assert unread_privates(path.read_text()) == []


def test_unread_guard_trips():
    assert unread_privates("_ROWS = 1\n") == [(1, "_ROWS")]
    assert unread_privates("def _rows():\n    pass\n\n\nclass _Core:\n    pass\n") == [
        (1, "_rows"), (5, "_Core")]
    assert unread_privates("_A, (_B, c) = 1, (2, 3)\nprint(_A, c)\n") == [(1, "_B")]
    assert unread_privates("_N: int = 3\n") == [(1, "_N")]
    assert unread_privates("_X = 1\n\n\ndef f():\n    return _X\n") == []
    assert unread_privates("__version__ = '1'\n\n\ndef f(_arg):\n    _y = 2\n") == []
