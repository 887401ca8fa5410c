"""The benchmark tracer's layers still name functions of the library.

``perfbench/tracing.py`` patches each layer at ``owner.__dict__[attr]``, so a
refactor that renames or deletes a traced function breaks a traced bench run
with a KeyError.  This resolves every path the same way, without patching.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _tracing().LAYERS


@pytest.mark.parametrize("name, modname, path, kind", LAYERS, ids=[layer[0] for layer in LAYERS])
def test_traced_layer_resolves(name, modname, path, kind):
    owner = importlib.import_module(f"ppinv.{modname}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert attr in owner.__dict__, f"{name}: {path} is not defined in ppinv.{modname}"
    assert callable(owner.__dict__[attr]) or isinstance(owner.__dict__[attr], classmethod)
