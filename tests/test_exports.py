"""Every exported name resolves.

The per-layer tracer in ``perfbench/tracer.py`` looks up each name in each
module's ``__all__``, and ``graphcalc.PairingData``, when it installs, so a
stale export breaks traced runs although no other test imports it.
"""

import ast
import importlib
import inspect
import pkgutil

import pytest

import statesum3d

MODULES = sorted(m.name for m in pkgutil.iter_modules(statesum3d.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    mod = importlib.import_module(f"statesum3d.{name}")
    assert mod.__all__ and len(set(mod.__all__)) == len(mod.__all__)
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []


def test_package_reexports_resolve_and_are_exported():
    tree = ast.parse(inspect.getsource(statesum3d))
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert reexports
    for module, attr in reexports:
        mod = importlib.import_module(f"statesum3d.{module}")
        assert hasattr(mod, attr), (module, attr)
        assert attr in mod.__all__, (module, attr)
        assert getattr(statesum3d, attr) is getattr(mod, attr)


def test_traced_class_resolves():
    from statesum3d import graphcalc
    assert inspect.isclass(graphcalc.PairingData)
