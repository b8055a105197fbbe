"""No module of the package uses a private name of a sibling module, and
each public name has one home.

A rule that two modules need lives in one of them under a public name;
the other imports that name.  The check parses every module with ``ast``.
A module's ``__all__`` lists only what it defines, and the package imports
each name it re-exports from the module whose ``__all__`` lists it.
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
