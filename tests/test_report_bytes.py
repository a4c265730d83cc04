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

``tower_sha256.json`` pins tower-barycenter at the seeds and instance
counts of ``TOWER`` (below, at, above and far above the batch of 50 that
the check runs as one disjoint union), generated by the per-instance form
of the check that the batches replaced.  Regenerate it with

    PYTHONPATH=src:tests python -c "import hashlib, json; from test_report_bytes import TOWER, _tower, render_report, run_scenario_dict, strip_csv; print(json.dumps({n: hashlib.sha256(render_report(strip_csv(run_scenario_dict(_tower(n)))).encode()).hexdigest() for n in TOWER}, indent=2, sort_keys=True), file=open('tests/tower_sha256.json', 'w'))"

``lemma_sha256.json`` pins lemma-bound at the seeds and configs of
``LEMMA``: the benchmark's config, moduli past the cell count, a wide mesh
with many moduli, and a single trial of one modulus.  It was generated by
the per-trial form of the check that the residue-class spectra replaced.
Regenerate it with

    PYTHONPATH=src:tests python -c "import hashlib, json; from test_report_bytes import LEMMA, _lemma, render_report, run_scenario_dict, strip_csv; print(json.dumps({n: hashlib.sha256(render_report(strip_csv(run_scenario_dict(_lemma(n)))).encode()).hexdigest() for n in LEMMA}, indent=2, sort_keys=True), file=open('tests/lemma_sha256.json', 'w'))"

``csv_sha256.json`` maps each bundled scenario to the sha256 of every file
that ``corrint run --bundled NAME --emit-plot-data`` writes besides the
report, by file name (an empty map where the scenario has no series).
Regenerate it with

    PYTHONPATH=src python -c "import hashlib, json; from corrint.scenarios import *; print(json.dumps({n: {f: hashlib.sha256(t.encode()).hexdigest() for f, t in extract_csv_tables(run_scenario_dict(load_bundled(n))).items()} for n in bundled_names()}, indent=2, sort_keys=True))" > tests/csv_sha256.json
"""
import hashlib
import json
from pathlib import Path

import pytest

from corrint.scenarios import (
    bundled_names,
    extract_csv_tables,
    load_bundled,
    render_report,
    run_scenario_dict,
    strip_csv,
)

HERE = Path(__file__).parent
PINNED = json.loads((HERE / "report_sha256.json").read_text())
PINNED_CONDITIONAL = json.loads((HERE / "conditional_sha256.json").read_text())
PINNED_TOWER = json.loads((HERE / "tower_sha256.json").read_text())
PINNED_LEMMA = json.loads((HERE / "lemma_sha256.json").read_text())
PINNED_CSV = json.loads((HERE / "csv_sha256.json").read_text())
CONDITIONAL = {
    **{f"br-{flavor}": {"workspace": {"norm": flavor}} for flavor in ("euclid", "sum", "max")},
    "exhaustive-k1-N1-L1-r2": {"mode": "exhaustive", "k": 1, "N": 1, "L": 1, "refinement": 2},
}


TOWER = {f"seed{seed}-instances{n}": (seed, n)
         for seed in (0, 1, 2, 3, 7, 20240) for n in (1, 2, 50, 600)}


def _tower(name: str) -> dict:
    seed, n = TOWER[name]
    return {"schema": 1, "name": f"tower-{name}", "seed": seed,
            "checks": [{"kind": "tower-barycenter", "instances": n}]}


LEMMA_CONFIGS = {
    "bench": {"k": 2, "meshes": [3, 4, 5, 6, 7, 8], "trials": 300, "kmax": 4},
    "k1-wide-moduli": {"k": 1, "meshes": [1, 2, 3], "kmax": 6, "trials": 50},
    "k3-meshes-2-10": {"k": 3, "meshes": [2, 10], "kmax": 9, "trials": 100},
    "one-trial": {"meshes": [4], "kmax": 1, "trials": 1},
}
LEMMA = {f"seed{seed}-{name}": (seed, name)
         for seed in (0, 1, 2, 3, 7, 20240) for name in LEMMA_CONFIGS}


def _lemma(name: str) -> dict:
    seed, config = LEMMA[name]
    return {"schema": 1, "name": f"lemma-{name}", "seed": seed,
            "checks": [{"kind": "lemma-bound", **LEMMA_CONFIGS[config]}]}


def _scenario(name: str) -> dict:
    check = {"kind": "game-equilibrium", "externality": "conditional", **CONDITIONAL[name]}
    return {"schema": 1, "name": f"conditional-{name}", "seed": 0, "checks": [check]}


def test_every_bundled_scenario_is_pinned():
    assert sorted(PINNED) == bundled_names()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bundled_report_bytes_are_pinned(name):
    text = render_report(strip_csv(run_scenario_dict(load_bundled(name))))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[name]


def test_every_bundled_scenario_pins_its_csv_files():
    assert sorted(PINNED_CSV) == bundled_names()


@pytest.mark.parametrize("name", sorted(PINNED_CSV))
def test_bundled_csv_bytes_are_pinned(name):
    tables = extract_csv_tables(run_scenario_dict(load_bundled(name)))
    got = {f: hashlib.sha256(text.encode()).hexdigest() for f, text in tables.items()}
    assert got == PINNED_CSV[name]


def test_every_conditional_check_is_pinned():
    assert sorted(PINNED_CONDITIONAL) == sorted(CONDITIONAL)


@pytest.mark.parametrize("name", sorted(CONDITIONAL))
def test_conditional_report_bytes_are_pinned(name):
    text = render_report(strip_csv(run_scenario_dict(_scenario(name))))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CONDITIONAL[name]


def test_every_tower_check_is_pinned():
    assert sorted(PINNED_TOWER) == sorted(TOWER)


@pytest.mark.parametrize("name", sorted(TOWER))
def test_tower_report_bytes_are_pinned(name):
    text = render_report(strip_csv(run_scenario_dict(_tower(name))))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TOWER[name]


def test_every_lemma_check_is_pinned():
    assert sorted(PINNED_LEMMA) == sorted(LEMMA)


@pytest.mark.parametrize("name", sorted(LEMMA))
def test_lemma_report_bytes_are_pinned(name):
    text = render_report(strip_csv(run_scenario_dict(_lemma(name))))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_LEMMA[name]
