"""Scenario workloads of the benchmark, generated from a seed.

Each workload is a list of schema-1 scenario configs with one check each,
so that every scenario run is one operation with its own verdict and report
digest: the scenarios corrint bundles in ``src/corrint/scenarios``, read as
shipped, and larger variants written out here.  The seed goes into each
scenario's ``seed`` field; the program receives nothing but the generated
configs, and any of them can be replayed with ``corrint run CONFIG``.

Alongside each config sits ``expect``: report fields whose values are known
from the config alone (sizes the paper's constructions fix).  A report that
disagrees counts as a failed operation, as does a false verdict.

Why these three workloads: their time sits in different layers.

- ``clouds`` is the set layer on large Aumann clouds: the Minkowski fold and
  dedup (``convexity-decay``) and the memory-bound ``min_dists`` scan
  (``uhc-decay``).  It touches neither game nor lemma code.
- ``game`` is the large game: the exhaustive profile scan and best-response
  iteration.  No set integration and no ``Fraction`` sums.  The seed does
  not change its work.
- ``exact`` is the exact-arithmetic layer: ``Fraction`` sums, mass lookups,
  the Walsh butterfly, regular conditional distributions and the
  materialized conditional-set product.  No large cloud, no profile scan.

Best-response configs at refinement 6, 9 or 12, or at L=5, converge to
off-mean profiles and fail their verdict, so they are left out.
"""
from __future__ import annotations

import json
from pathlib import Path

# The scenarios corrint ships, relative to the root of the checkout.
BUNDLED = Path("src") / "corrint" / "scenarios"


def _bundled(name: str, seed: int, expect: dict | None = None) -> dict:
    """A scenario corrint ships, as it ships it, with its seed replaced."""
    config = json.loads((BUNDLED / f"{name}.json").read_text())
    config["seed"] = seed
    return {"config": config, "expect": expect or {}}


def _scenario(name: str, seed: int, check: dict, expect: dict | None = None) -> dict:
    config = {"schema": 1, "name": name, "seed": seed, "checks": [check]}
    return {"config": config, "expect": expect or {}}


def _clouds(seed: int) -> list[dict]:
    return [
        _bundled("convexity-decay", seed),
        _bundled("uhc-decay", seed),
        _bundled("e1-nonconvexity", seed, {"selections": 3 ** 8}),
    ]


def _game(seed: int) -> list[dict]:
    return [
        _scenario("game-nonexistence-k3", seed,
                  {"kind": "game-nonexistence", "k": 3, "gamma": "0", "N": 2, "L": 2,
                   "refinement": 4, "cap": 20_000_000},
                  {"profiles_scanned": 13 ** 4}),
        _scenario("game-nonexistence-atomic", seed,
                  {"kind": "game-nonexistence", "k": 2, "gamma": "1/4", "N": 2, "L": 2,
                   "refinement": 4, "cap": 20_000_000}),
        _bundled("game-equilibrium", seed),
        _scenario("game-equilibrium-n3-l4", seed,
                  {"kind": "game-equilibrium", "k": 2, "gamma": "0", "N": 3, "L": 4,
                   "refinement": 3, "max_iter": 50, "tol": 1e-09}),
    ]


def _exact(seed: int) -> list[dict]:
    return [
        _scenario("lemma-bound-meshes-3-8", seed,
                  {"kind": "lemma-bound", "k": 2, "meshes": [3, 4, 5, 6, 7, 8],
                   "trials": 300, "kmax": 4}),
        _scenario("lyapunov-exactness-k3", seed,
                  {"kind": "lyapunov-exactness", "k": 3, "gamma": "0", "N": 2, "L": 2,
                   "refinement": 4, "cap": 2_000_000, "tol": 1e-12},
                  {"conditional_set_size": 35 ** 4}),
        _scenario("rcd-mixture-64", seed, {"kind": "rcd-mixture", "resolution": 64, "d": 2}),
        _scenario("tower-barycenter-600", seed,
                  {"kind": "tower-barycenter", "instances": 600, "tol": 1e-12}),
        _bundled("walsh-orthogonality", seed),
        _bundled("counterexample-integrals", seed),
    ]


_GENERATORS = {"clouds": _clouds, "game": _game, "exact": _exact}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's scenarios as ``{"config": ..., "expect": ...}`` dicts.

    Bundled scenarios are read from the checkout, so run from its root.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")
    return _GENERATORS[workload](seed)
