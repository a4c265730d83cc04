"""Report bytes that do not depend on the BLAS build or the SIMD level.

A few configs run through ``corrint run`` in child processes: one under
the defaults, one with OpenBLAS forced to its oldest x86-64 core, one
with numpy held to its X86_V2 baseline, so that neither a BLAS kernel nor
a dispatched ``log`` or ``sin`` can reach a report, and one with glibc's
FMA, AVX2 and AVX masked, so that libm takes its SSE2 ``log`` and ``sin``.
Each child's standard output must equal the default one byte for byte.
Convexity-decay at gamma = 1/3, level 6 is among them because its gap is
set by a combination probe whose bits once followed the BLAS core.

The libm child is a sample, not a proof: glibc's FMA and SSE2 forms of
``log`` and ``sin`` differ in the last bit on a small share of inputs, and
these configs happen to meet none of them.  The glibc tunable is ignored
where the host lacks those features or libm is not glibc; the child then
repeats the default run.
"""
import json
import os
import subprocess
import sys

import pytest

from _perfbench import ROOT
from corrint.scenarios import load_bundled

OVERRIDES = {
    "default": {},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "x86-v2": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
    "libm-sse2": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX"},
}

# the convexity-decay gap at gamma = 1/3, level 6, under every build
GAMMA_THIRD_LEVEL_6 = "0.00039066572189213857"

CHILD = ("import sys; from corrint.cli import main; "
         "sys.exit(max(main(['run', path]) for path in sys.argv[1:]))")


def _configs():
    third = {"schema": 1, "name": "gamma-third-level-6", "seed": 0,
             "checks": [{"kind": "convexity-decay", "gamma": "1/3", "levels": [6]}]}
    names = ("convexity-decay", "uhc-decay", "game-equilibrium", "tower-barycenter")
    return [third, *map(load_bundled, names)]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    paths = []
    for i, config in enumerate(_configs()):
        path = tmp_path_factory.mktemp("configs") / f"{i}.json"
        path.write_text(json.dumps(config))
        paths.append(str(path))
    src = str(ROOT / "src")
    out = {}
    for name, extra in OVERRIDES.items():
        env = {**os.environ, **extra,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", CHILD, *paths], capture_output=True,
                              text=True, env=env, timeout=60)
        out[name] = (proc.returncode, proc.stdout)
    return out


def test_default_build_reports_pass(outputs):
    code, text = outputs["default"]
    assert code == 0
    assert f'"gap": {GAMMA_THIRD_LEVEL_6}' in text


@pytest.mark.parametrize("name", [n for n in OVERRIDES if n != "default"])
def test_report_bytes_equal_across_builds(outputs, name):
    assert outputs[name] == outputs["default"]
