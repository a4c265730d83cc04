"""Read-only loading of the benchmark's modules for the tests.

The benchmark's scripts import their siblings as top-level modules, so
``perfbench/`` is put on ``sys.path`` while one of them loads; no bytecode
is written next to them.
"""
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load(name):
    """The module ``perfbench/<name>.py``, loaded under ``perfbench_<name>``."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", PERFBENCH / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
