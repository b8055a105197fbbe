"""No module of the package uses a private name of a sibling module.

A rule that two modules need lives in one of them under a public name;
the other imports that name.  The check parses every module with ``ast``.
"""

import ast
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
    assert private_uses("from . import prng\nx = prng._MASK64 + prng.mix64(0)\n") == [
        (2, "prng._MASK64")]
    assert private_uses("from .errors import exact_int\nfrom . import __version__\n") == []
