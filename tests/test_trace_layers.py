"""The benchmark's tracer wraps corrint functions by name: each must exist,
and each workload must reach the layers the benchmark requires of it.

``perfbench/tracer.py`` lists in ``LAYERS`` the (module, attribute) pairs
it wraps, and ``perfbench/run.py`` fails a traced run whose workload leaves
a required layer or check kind unreached.  A function renamed, deleted or
no longer called in corrint would otherwise show up only as a failed
``perfbench/run.py --trace 1`` run.  The benchmark's modules are loaded
read-only, without writing bytecode next to them.
"""
import importlib

import pytest

from _perfbench import ROOT, load
from corrint import scenarios

RUN = load("run")
WORKER = load("worker")
LAYERS = RUN.tracer.LAYERS


def test_tracer_lists_layers():
    assert LAYERS


@pytest.mark.parametrize("layer", LAYERS, ids=lambda lay: f"{lay.module}.{lay.attr}")
def test_traced_function_resolves_in_corrint(layer):
    obj = importlib.import_module(layer.module)
    for part in layer.attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("workload", RUN.workloads.WORKLOADS)
def test_workload_reaches_its_required_layers(monkeypatch, workload):
    # one traced pass over the seed-0 configs, read by the benchmark's own
    # rule; the kernel micro-benchmarks are timed apart from the passes
    monkeypatch.chdir(ROOT)  # bundled scenarios are read from the checkout
    units, required = RUN.per_layer()
    runner = WORKER.Runner(scenarios, RUN.workloads.generate(workload, 0))
    tracer = RUN.tracer.Tracer()
    tracer.install()
    try:
        timings = runner.run_pass()
    finally:
        tracer.uninstall()
    assert not runner.failures
    res = {"workload": workload, "missing": tracer.missing, "failed_ratio": 0.0,
           "layers": WORKER._layer_metrics(tracer, [timings], [timings])}
    layered = {name for name in required[workload] if not name.startswith("kernels.micro.")}
    RUN._layer_values(res, units, layered)
