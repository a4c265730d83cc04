"""The rendered report of every bundled scenario, pinned by its sha256.

``report_sha256.json`` maps each bundled scenario to the sha256 of what
``corrint run --bundled NAME`` writes to stdout.  A change that moves a
report's bytes fails here.  Regenerate the file from the root of the
checkout with

    PYTHONPATH=src python -c "import hashlib, json; from corrint.scenarios import *; print(json.dumps({n: hashlib.sha256(render_report(strip_csv(run_scenario_dict(load_bundled(n)))).encode()).hexdigest() for n in bundled_names()}, indent=2, sort_keys=True))" > tests/report_sha256.json

and justify every regeneration in CHANGES.md: which reports moved and why
the new bytes are right.

No bundled scenario runs the game with the conditional externality, so
``conditional_sha256.json`` pins the reports of the ``CONDITIONAL`` checks
below the same way.  Regenerate it with

    PYTHONPATH=src:tests python -c "import hashlib, json; from test_report_bytes import CONDITIONAL, _scenario, render_report, run_scenario_dict, strip_csv; print(json.dumps({n: hashlib.sha256(render_report(strip_csv(run_scenario_dict(_scenario(n)))).encode()).hexdigest() for n in CONDITIONAL}, indent=2, sort_keys=True), file=open('tests/conditional_sha256.json', 'w'))"
"""
import hashlib
import json
from pathlib import Path

import pytest

from corrint.scenarios import (
    bundled_names,
    load_bundled,
    render_report,
    run_scenario_dict,
    strip_csv,
)

HERE = Path(__file__).parent
PINNED = json.loads((HERE / "report_sha256.json").read_text())
PINNED_CONDITIONAL = json.loads((HERE / "conditional_sha256.json").read_text())
CONDITIONAL = {
    **{f"br-{flavor}": {"workspace": {"norm": flavor}} for flavor in ("euclid", "sum", "max")},
    "exhaustive-k1-N1-L1-r2": {"mode": "exhaustive", "k": 1, "N": 1, "L": 1, "refinement": 2},
}


def _scenario(name: str) -> dict:
    check = {"kind": "game-equilibrium", "externality": "conditional", **CONDITIONAL[name]}
    return {"schema": 1, "name": f"conditional-{name}", "seed": 0, "checks": [check]}


def test_every_bundled_scenario_is_pinned():
    assert sorted(PINNED) == bundled_names()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bundled_report_bytes_are_pinned(name):
    text = render_report(strip_csv(run_scenario_dict(load_bundled(name))))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[name]


def test_every_conditional_check_is_pinned():
    assert sorted(PINNED_CONDITIONAL) == sorted(CONDITIONAL)


@pytest.mark.parametrize("name", sorted(CONDITIONAL))
def test_conditional_report_bytes_are_pinned(name):
    text = render_report(strip_csv(run_scenario_dict(_scenario(name))))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CONDITIONAL[name]
