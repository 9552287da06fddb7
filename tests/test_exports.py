"""Every exported name resolves, so a removed function leaves no stale export."""

import importlib
import pkgutil

import pytest

import bqtsim

MODULES = ["bqtsim"] + [f"bqtsim.{m.name}" for m in pkgutil.iter_modules(bqtsim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names what it lacks: {missing}"
