"""The library names the bench tracer wraps stay bound, and the tracer
restores each of them when uninstalled."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(PERFBENCH)
        sys.modules.pop("tracing", None)


def test_every_wrapped_name_resolves(tracing):
    for owner, attr, _, _ in tracing.WRAPPED:
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"


def test_install_then_uninstall_restores_each_name(tracing):
    before = [getattr(owner, attr) for owner, attr, _, _ in tracing.WRAPPED]
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        wrapped = [getattr(owner, attr) for owner, attr, _, _ in tracing.WRAPPED]
    finally:
        tracer.uninstall()
    assert all(w is not b for w, b in zip(wrapped, before))
    after = [getattr(owner, attr) for owner, attr, _, _ in tracing.WRAPPED]
    assert all(a is b for a, b in zip(after, before))
