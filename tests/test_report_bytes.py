"""The rendered report of every bundled scenario, pinned by its sha256.

``report_sha256.json`` maps each bundled scenario to the sha256 of what
``corrint run --bundled NAME`` writes to stdout.  A change that moves a
report's bytes fails here.  Regenerate the file from the root of the
checkout with

    PYTHONPATH=src python -c "import hashlib, json; from corrint.scenarios import *; print(json.dumps({n: hashlib.sha256(render_report(strip_csv(run_scenario_dict(load_bundled(n)))).encode()).hexdigest() for n in bundled_names()}, indent=2, sort_keys=True))" > tests/report_sha256.json

and justify every regeneration in CHANGES.md: which reports moved and why
the new bytes are right.
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

PINNED = json.loads((Path(__file__).parent / "report_sha256.json").read_text())


def test_every_bundled_scenario_is_pinned():
    assert sorted(PINNED) == bundled_names()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bundled_report_bytes_are_pinned(name):
    text = render_report(strip_csv(run_scenario_dict(load_bundled(name))))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[name]
