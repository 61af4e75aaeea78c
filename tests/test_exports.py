"""Every exported name resolves, and importing the package loads nothing.

The per-layer tracer in ``perfbench/tracer.py`` looks up each name in each
module's ``__all__``, and ``graphcalc.PairingData``, when it installs, so a
stale export breaks traced runs although no other test imports it.
In-process tests share ``sys.modules``, so the checks of what an import
loads run in fresh interpreters.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import statesum3d

MODULES = sorted(m.name for m in pkgutil.iter_modules(statesum3d.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    mod = importlib.import_module(f"statesum3d.{name}")
    assert mod.__all__ and len(set(mod.__all__)) == len(mod.__all__)
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []


def test_package_reexports_resolve_and_are_exported():
    table = statesum3d._MODULE_OF
    assert table
    for attr, module in table.items():
        mod = importlib.import_module(f"statesum3d.{module}")
        assert hasattr(mod, attr), (module, attr)
        assert attr in mod.__all__, (module, attr)
        assert getattr(statesum3d, attr) is getattr(mod, attr)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        statesum3d.no_such_name
    assert set(table) <= set(dir(statesum3d)) == set(statesum3d.__all__)


def test_internal_error_is_one_class():
    from statesum3d import graphcalc
    assert "InternalError" in graphcalc.__all__
    assert graphcalc.InternalError is statesum3d.InternalError


def _loaded_after(code):
    """The ``statesum3d`` submodules a fresh interpreter has loaded after
    running ``code``."""
    src = str(Path(statesum3d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = (f"{code}\nimport sys\n"
             "print(*sorted(m for m in sys.modules if m.startswith('statesum3d.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_package_import_runs_no_submodule():
    assert _loaded_after("import statesum3d") == []


def test_cli_import_loads_only_the_cli():
    assert _loaded_after("import statesum3d.cli") == ["statesum3d.cli"]


def test_traced_class_resolves():
    from statesum3d import graphcalc
    assert inspect.isclass(graphcalc.PairingData)
