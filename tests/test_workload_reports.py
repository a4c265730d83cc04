"""The rendered report of every benchmark workload config, pinned by its sha256.

``workload_sha256.json`` maps each config that ``perfbench/workloads.py``
generates at seed 1 to the sha256 of the report ``corrint run CONFIG``
would write.  The benchmark itself checks each report only against its own
first pass, so a change that moves the bytes of a larger game or exact
config would otherwise go unseen.  The benchmark's module is loaded
read-only, without writing bytecode next to it.  Regenerate the file from
the root of the checkout with

    PYTHONPATH=src python -c "import hashlib, json, sys; sys.path.insert(0, 'perfbench'); import workloads; from corrint.scenarios import *; print(json.dumps({i['config']['name']: hashlib.sha256(render_report(strip_csv(run_scenario_dict(i['config']))).encode()).hexdigest() for w in workloads.WORKLOADS for i in workloads.generate(w, 1)}, indent=2, sort_keys=True))" > tests/workload_sha256.json

and justify every regeneration in CHANGES.md.

``workload_sha256_seed2.json`` pins the ``exact`` workload's configs at
seed 2 the same way (regenerate with ``'exact'`` and ``2`` in place of the
loop over workloads and ``1``), so that its random instances are checked on
a second draw.  ``workload_sha256_clouds_seed2.json`` does the same for the
``clouds`` workload, whose gap probes and support directions are drawn from
the seed.

The seed-0 ``clouds`` and ``exact`` configs and every bundled scenario are
also run once with the width of each fold step's keys recorded: each of
their folds must merge on one packed column of exact keys, since a fall
back to key columns keeps every byte and only reads slower.  Every
nearest-distance search those configs make is checked against the
per-target window scan that the batched one replaced.
"""
import hashlib
import json
from pathlib import Path

import pytest

from _oracles import window_scan_min_dists
from _perfbench import ROOT, load
from corrint import _kernels, set_integration
from corrint.scenarios import (
    bundled_names,
    load_bundled,
    render_report,
    run_scenario_dict,
    strip_csv,
)

HERE = Path(__file__).parent
PINNED = json.loads((HERE / "workload_sha256.json").read_text())
PINNED_EXACT_SEED2 = json.loads((HERE / "workload_sha256_seed2.json").read_text())
PINNED_CLOUDS_SEED2 = json.loads((HERE / "workload_sha256_clouds_seed2.json").read_text())
SEED = 1
WORKLOADS = load("workloads")


def _configs(monkeypatch, workloads=WORKLOADS.WORKLOADS, seed=SEED):
    monkeypatch.chdir(ROOT)  # bundled scenarios are read from the checkout
    return {item["config"]["name"]: item["config"]
            for workload in workloads
            for item in WORKLOADS.generate(workload, seed)}


def test_every_workload_config_is_pinned(monkeypatch):
    assert sorted(_configs(monkeypatch)) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_workload_report_bytes_are_pinned(monkeypatch, name):
    text = render_report(strip_csv(run_scenario_dict(_configs(monkeypatch)[name])))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[name]


def test_every_exact_config_is_pinned_at_seed_2(monkeypatch):
    assert sorted(_configs(monkeypatch, ("exact",), 2)) == sorted(PINNED_EXACT_SEED2)


@pytest.mark.parametrize("name", sorted(PINNED_EXACT_SEED2))
def test_exact_report_bytes_are_pinned_at_seed_2(monkeypatch, name):
    config = _configs(monkeypatch, ("exact",), 2)[name]
    text = render_report(strip_csv(run_scenario_dict(config)))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_EXACT_SEED2[name]


def test_every_clouds_config_is_pinned_at_seed_2(monkeypatch):
    assert sorted(_configs(monkeypatch, ("clouds",), 2)) == sorted(PINNED_CLOUDS_SEED2)


@pytest.mark.parametrize("name", sorted(PINNED_CLOUDS_SEED2))
def test_clouds_report_bytes_are_pinned_at_seed_2(monkeypatch, name):
    config = _configs(monkeypatch, ("clouds",), 2)[name]
    text = render_report(strip_csv(run_scenario_dict(config)))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CLOUDS_SEED2[name]


def test_every_workload_fold_merges_on_packed_exact_keys(monkeypatch):
    configs = [*_configs(monkeypatch, ("clouds", "exact"), 0).values(),
               *map(load_bundled, bundled_names())]
    widths = []
    fold_step = set_integration._fold_step

    def recording_step(key_of, *args):
        def keyed(r):
            keys = key_of(r)
            widths.append(keys.shape[1])
            return keys
        return fold_step(keyed, *args)

    monkeypatch.setattr(set_integration, "_fold_step", recording_step)
    for config in configs:
        run_scenario_dict(config)
    assert widths and set(widths) == {1}


def test_every_workload_min_dists_equals_window_scan_oracle(monkeypatch):
    calls = []
    min_dists = _kernels.min_dists

    def recording(targets, cloud, mode, weights):
        out = min_dists(targets, cloud, mode, weights)
        calls.append((out, window_scan_min_dists(targets, cloud, mode, weights)))
        return out

    monkeypatch.setattr(_kernels, "min_dists", recording)
    for config in _configs(monkeypatch, ("clouds", "exact"), 0).values():
        run_scenario_dict(config)
    assert len(calls) > 10
    assert all(type(got) is float and repr(got) == repr(want) for got, want in calls)
