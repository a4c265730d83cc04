"""The benchmark's tracer wraps corrint functions by name: each must exist.

``perfbench/tracer.py`` lists in ``LAYERS`` the (module, attribute) pairs
it wraps.  A function renamed or deleted in corrint would otherwise show up
only as a failed ``perfbench/run.py --trace 1`` run.  The tracer is loaded
read-only, without writing bytecode next to it.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    # tracer.py imports its sibling ``workloads`` as a top-level module
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracer", PERFBENCH / "tracer.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


LAYERS = _load_tracer().LAYERS


def test_tracer_lists_layers():
    assert LAYERS


@pytest.mark.parametrize("layer", LAYERS, ids=lambda lay: f"{lay.module}.{lay.attr}")
def test_traced_function_resolves_in_corrint(layer):
    obj = importlib.import_module(layer.module)
    for part in layer.attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
