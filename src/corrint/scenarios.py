"""Scenario engine: named, seeded verification runs over the library.

A scenario is a JSON document (``schema: 1``) with a list of checks; each
check runs one pipeline, reports its measurements, and yields a verdict.
Reports are canonical JSON (sorted keys, trailing newline), so the same
configuration and seed reproduce byte-identical output; series-producing
checks also expose CSV tables for external plotting.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from typing import Any

import numpy as np

from . import _kernels
from .correspondences import (
    Correspondence,
    Selection,
    build_counterexample,
)
from .errors import CapacityError, ConfigError
from .game import (
    EXTERNALITY_CONDITIONAL,
    EXTERNALITY_INTEGRAL,
    MODE_BR_ITERATE,
    MODE_EXHAUSTIVE,
    build_counterexample_game,
    case1_indicator_parts,
    case1_lemma_trials,
    find_equilibrium,
    lemma_bound_check,
    verify_equilibrium_partition,
)
from .rcd import kernel_mix, rcd_of_selection
from .set_integration import (
    MEMBERSHIP_TOL,
    aumann_integral_set,
    cloud_metadata,
    conditional_expectation,
    conditional_set,
    convexity_gap,
    hausdorff_semidistance,
    integrate_selection,
    lyapunov_mix,
)
from .spaces import DiscreteSpace, DyadicModel, SigmaPartition, block_averages, block_starts
from .vectors import (
    NORM_EUCLID,
    NORM_FLAVORS,
    TOPOLOGIES,
    TOPOLOGY_NORM,
    Workspace,
    basis_vector,
    norm,
)
from .walsh import walsh_gram

SCHEMA_VERSION = 1


# -- check parameters ---------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """A check parameter: type, default and bounds ``lo <= value < hi``.

    ``default``, ``lo`` and ``hi`` may be functions of the parameters read
    before this one.  Types are the keys of ``_TYPES``, ``choice`` (one of
    ``choices``), ``ints`` and ``rationals`` (non-empty lists of bounded
    items) and ``workspace`` (an object read against ``WORKSPACE``).
    """

    type: str
    default: Any
    lo: Any = None
    hi: Any = None
    choices: tuple[str, ...] = ()
    doc: str | None = None


def _series(k: int, N: int, L: int, **rest: Param) -> dict[str, Param]:
    """The counterexample's k, gamma, N and L with these defaults, then ``rest``."""
    return {
        "k": Param("int", k, 1),
        "gamma": Param("rational", 0, 0, 1, doc="exact rational, e.g. 1/4"),
        "N": Param("int", N, 0, doc="series truncation level"),
        # level L resolves the Walsh indices up to N
        "L": Param("int", L, lambda p: p["N"].bit_length(), doc="dyadic level"),
        **rest,
    }


def _dim(p: dict) -> int:
    return p["k"] * (p["N"] + 1)


SEED = Param("int", 0, 0)
# the metric weighs each coordinate, so d is the counterexample's dimension
WORKSPACE = {
    "d": Param("int", _dim, _dim, lambda p: _dim(p) + 1),
    "norm": Param("choice", NORM_EUCLID, choices=NORM_FLAVORS),
    "topology": Param("choice", TOPOLOGY_NORM, choices=TOPOLOGIES),
}
_WS = Param("workspace", {})
_K_PLUS_1 = Param("int", lambda p: p["k"] + 1, 1)

# Each check kind's parameters, in reading order.  Runners receive exactly
# these keys, read and bounded, with defaults filled in.
PARAMS: dict[str, dict[str, Param]] = {
    "walsh-orthogonality": {"level": Param("int", 8, 0), "max_index": Param("int", 16, 1)},
    "counterexample-integrals": _series(
        2, 2, 5, gammas=Param("rationals", ["0", "1/4"], 0, 1), tol=Param("real", 1e-12, 0)),
    "necessity-gap": _series(2, 2, 3, cap=Param("int", 100_000, 0), workspace=_WS),
    "lyapunov-exactness": _series(2, 2, 2, refinement=_K_PLUS_1,
                                  cap=Param("int", 200_000, 0), tol=Param("real", 1e-12, 0)),
    "convexity-decay": _series(
        1, 1, 4, levels=Param("ints", [1, 2, 3, 4, 5, 6], 0,
                              doc="refinement exponents, e.g. 1..6"),
        samples=Param("int", 128, 0), cap=Param("int", 2_000_000, 0),
        final_tol=Param("real", 1e-3, 0), workspace=_WS),
    "tower-barycenter": {"instances": Param("int", 200, 1), "tol": Param("real", 1e-12, 0)},
    "uhc-decay": _series(2, 4, 3, cap=Param("int", 100_000, 0), final_tol=Param("real", 1e-6, 0),
                         workspace=_WS),
    "game-equilibrium": _series(
        2, 2, 3, refinement=_K_PLUS_1, tol=Param("real", 1e-9, 0), max_iter=Param("int", 50, 0),
        mode=Param("choice", MODE_BR_ITERATE, choices=(MODE_BR_ITERATE, MODE_EXHAUSTIVE)),
        externality=Param("choice", EXTERNALITY_INTEGRAL,
                          choices=(EXTERNALITY_INTEGRAL, EXTERNALITY_CONDITIONAL)),
        workspace=_WS, cap=Param("int", 20_000_000, 0)),
    "game-nonexistence": _series(2, 2, 2, refinement=Param("int", 4, 1),
                                 cap=Param("int", 20_000_000, 0)),
    "lemma-bound": {
        "k": Param("int", 2, 1),
        "meshes": Param("ints", [3, 4, 5, 6, 7, 8], 0, doc="mesh exponents, e.g. 3..8"),
        "trials": Param("int", 1000, 0),
        "kmax": Param("int", 4, 1),
    },
    "rcd-mixture": {"resolution": Param("int", 4, 1), "d": Param("int", 2, 1)},
    "determinism": {"target": Param("scenario", None)},
}


def _rational(v):
    try:
        return Fraction(v) if isinstance(v, (int, float, str)) else None
    except (ValueError, ZeroDivisionError, OverflowError):
        return None


# type -> (what a value must be, the value read, or None if it is not one)
_TYPES = {
    "int": ("an integer", lambda v: v if isinstance(v, int) else None),
    "real": ("a finite number", lambda v: v if isinstance(v, int) or (
        isinstance(v, float) and math.isfinite(v)) else None),
    "rational": ("a rational", _rational),
    "scenario": ("a bundled scenario name or a scenario object",
                 lambda v: v if isinstance(v, (str, dict)) else None),
}


def _read(where: str, key: str, spec: Param, value, seen: dict):
    """One parameter checked against its spec; ``seen`` holds those read before it."""
    lo, hi = (b(seen) if callable(b) else b for b in (spec.lo, spec.hi))
    if spec.type == "workspace" and isinstance(value, dict):
        w = _read_all(f"{where}: '{key}'", WORKSPACE, value, seen)
        return Workspace(w["d"], w["norm"], w["topology"])
    listed = spec.type in ("ints", "rationals")
    item = spec.type[:-1] if listed else spec.type
    want, read = _TYPES[item] if item in _TYPES else (
        f"one of {list(spec.choices)}", lambda v: v if v in spec.choices else None)
    values = value if listed else [value]
    out = [None if isinstance(v, bool) else read(v) for v in values] \
        if isinstance(values, list) else []
    if out and all(v is not None and (lo is None or lo <= v) and (hi is None or v < hi)
                   for v in out):
        return out if listed else out[0]
    if lo is not None:
        want += f" >= {lo}" if hi is None else f" in [{lo}, {hi})"
    want = f"a non-empty list, each {want}" if listed else want
    raise ConfigError(f"{where}: '{key}' must be {want}, got {value!r}")


def _read_all(where: str, table: dict[str, Param], given: dict, outer: dict) -> dict:
    undeclared = sorted(set(given) - set(table), key=str)
    if undeclared:
        raise ConfigError(f"{where}: undeclared parameter {undeclared[0]!r}; "
                          f"declared: {', '.join(table)}")
    out: dict = {}
    for key, spec in table.items():
        seen = {**outer, **out}
        default = spec.default(seen) if callable(spec.default) else spec.default
        out[key] = _read(where, key, spec, given.get(key, default), seen)
    return out


# largest sign table the orthogonality check builds, in entries
ORTHOGONALITY_CAP = 1 << 22
# largest trial the lemma check builds: parts x mesh cells
LEMMA_CAP = 1 << 22
# largest model a check without an enumeration cap builds, in float entries
MODEL_CAP = 1 << 24


def _limit(cap: int) -> int:
    """An exponent past which any power of two or more exceeds ``cap``."""
    return max(cap.bit_length() + 1, 64)


def _cells(p: dict) -> int:
    return 1 << min(p["L"], _limit(p["cap"]))


def _values(p: dict, refinement: int = 1) -> tuple:
    """The counterexample's correspondence: k+1 values in k(N+1) coordinates
    on each of the 2**L cells' ``refinement`` atoms."""
    return "atom values", MODEL_CAP, (p["k"] + 1) * _dim(p) * refinement, 2, p["L"]


# kind -> (noun, cap, factor, base, exponent[, addend]): its check would build
# factor * base**exponent + addend items, each checked before any work
SIZES = {
    "walsh-orthogonality": lambda p: [(
        "sign-table entries", ORTHOGONALITY_CAP, p["max_index"], 2, p["level"])],
    "lemma-bound": lambda p: [(
        "trial entries", LEMMA_CAP, max(p["k"], p["kmax"]), 2, max(p["meshes"]))],
    # the finest level splits each of the 2**L cells into 2**level atoms
    "convexity-decay": lambda p: [("atoms", p["cap"], 1, 2, p["L"] + max(p["levels"]))],
    # k+1 values on each interval atom, one on the atomic part
    "necessity-gap": lambda p: [("selections", p["cap"], 1, p["k"] + 1, _cells(p))],
    # actions: zero, then k mixed points per cell; strategies are constant
    # on cells here, on atoms in an exhaustive equilibrium search
    "game-nonexistence": lambda p: [
        ("profiles", p["cap"], 1, 1 + p["k"] * _cells(p), _cells(p) + (p["gamma"] > 0)),
        _values(p, p["refinement"])],
    # which scans nact ** (atoms inside) per block of the aggregate: the
    # space, or each cell and the atomic atom under the conditional externality
    "game-equilibrium": lambda p: ([
        ("profiles", p["cap"], 1, 1 + p["k"] * _cells(p),
         _cells(p) * p["refinement"] + (p["gamma"] > 0))
        if p["externality"] == EXTERNALITY_INTEGRAL else
        ("profiles", p["cap"], _cells(p), 1 + p["k"] * _cells(p), p["refinement"],
         (p["gamma"] > 0) * (1 + p["k"] * _cells(p)))
    ] if p["mode"] == MODE_EXHAUSTIVE else []) + [_values(p, p["refinement"])],
    # the other checks of the counterexample, against one model cap
    "counterexample-integrals": lambda p: [_values(p)],
    "uhc-decay": lambda p: [_values(p)],
    "lyapunov-exactness": lambda p: [_values(p, p["refinement"])],
    # two cells of `resolution` atoms, each with two values in d coordinates
    "rcd-mixture": lambda p: [("atom values", MODEL_CAP, 2 * p["resolution"] * p["d"], 2, 1)],
}


def read_check(kind: str, check: dict) -> dict:
    """A check's parameters read against ``PARAMS[kind]``, then size-checked.

    Raises ``ConfigError`` for an undeclared key or a value out of type or
    bounds, and ``CapacityError`` for a size past its cap.  Exponents past
    ``_limit`` are clipped, so no huge integer is built; the count is then a
    lower bound, and the message says so.
    """
    params = _read_all(kind, PARAMS[kind], {k: v for k, v in check.items() if k != "kind"}, {})
    for noun, cap, factor, base, exp, *addend in SIZES[kind](params) if kind in SIZES else ():
        count = factor * base ** min(exp, _limit(cap)) + sum(addend)
        if count > cap:
            at_least = "at least " if exp > _limit(cap) else ""
            raise CapacityError(count, cap, f"{kind}: {at_least}{count} {noun} exceed "
                                            f"cap {cap}")
    return params


# -- check runners ------------------------------------------------------------


def check_walsh_orthogonality(params: dict, seed: int) -> dict:
    level, max_index = params["level"], params["max_index"]
    gram = walsh_gram(max_index, level)
    expect = (1 << level) * np.eye(max_index, dtype=np.int64)
    failures = [[int(m), int(n), int(gram[m, n])] for m, n in np.argwhere(gram != expect)]
    return {"level": level, "max_index": max_index, "failures": failures,
            "verdict": not failures}


def check_counterexample_integrals(params: dict, seed: int) -> dict:
    k, N, L, tol = params["k"], params["N"], params["L"], params["tol"]
    rows = []
    ok = True
    for gamma in params["gammas"]:
        b = build_counterexample(k, gamma, N, L)
        scale = float(1 - gamma)
        e1_norm = norm(b.e_list[0], "euclid")
        norm_ok = abs(e1_norm - scale) <= tol
        basis_ok = all(
            float(np.max(np.abs(b.e_list[j - 1] - scale * basis_vector(j - 1, b.d)))) <= tol
            for j in range(1, k + 1)
        )
        zero_ok = gamma == 0 or not np.any(b.corr.values[0])
        ok = ok and norm_ok and basis_ok and zero_ok
        rows.append({
            "gamma": f"{gamma.numerator}/{gamma.denominator}",
            "e1_norm": e1_norm,
            "expected": scale,
            "basis_match": basis_ok,
            "vanishes_on_atomic_part": zero_ok,
        })
    return {"k": k, "N": N, "L": L, "cases": rows, "verdict": ok}


def check_necessity_gap(params: dict, seed: int) -> dict:
    k, L, cap, ws = params["k"], params["L"], params["cap"], params["workspace"]
    b = build_counterexample(k, params["gamma"], params["N"], L)
    t_alg = SigmaPartition.singletons(b.model.space)
    cloud = aumann_integral_set(b.corr, t_alg, cap=cap)
    mid = b.e_mean()
    gap = cloud.nearest_distance(mid, ws)
    present = gap <= MEMBERSHIP_TOL
    return {
        "k": k, "L": L,
        "selections": (k + 1) ** len(b.model.space.ids),
        "cloud_size": len(cloud),
        # SIZES refused the config unless every selection fits within cap
        "cloud_meta": cloud_metadata(b.corr, t_alg, cap),
        "midpoint_gap": gap,
        "midpoint_present": present,
        "verdict": not present,
        "csv": {"cloud": [tuple(f"x{m}" for m in range(b.d))] + cloud.points.tolist()},
    }


def _canonical_selections(bundle) -> list[Selection]:
    """The k+1 cell-algebra selections {0, f_1, ..., f_k} of the bundle:
    each atom's cell value, 0 on the atomic atom."""
    model = bundle.model
    table = np.zeros((bundle.k + 1, model.ncells + 1, bundle.d))
    table[1:, :model.ncells] = bundle.psi.transpose(1, 0, 2)
    return [Selection.from_rows(bundle.corr, bundle.f_alg, r) for r in table[:, model.cells]]


def check_lyapunov_exactness(params: dict, seed: int) -> dict:
    k, L, refinement, tol = params["k"], params["L"], params["refinement"], params["tol"]
    b = build_counterexample(k, params["gamma"], params["N"], L, refinement=refinement)
    t_alg = SigmaPartition.singletons(b.model.space)
    sels = _canonical_selections(b)
    weights = [Fraction(1, k + 1)] * (k + 1)
    g = lyapunov_mix(sels, weights, b.f_alg, t_alg)
    eg = conditional_expectation(g, b.f_alg)
    target = []
    for blk in b.f_alg.blocks:
        rep = min(blk)
        acc = np.zeros(b.d)
        for s in sels:
            acc += s.at(rep) / (k + 1)
        target.append(acc)
    err = max(
        float(np.max(np.abs(a - t))) for a, t in zip(eg, target)
    )
    cs = conditional_set(b.corr, t_alg, b.f_alg, cap=params["cap"])
    member = cs.contains_function(np.array(eg))
    integral_err = float(np.max(np.abs(integrate_selection(g) - b.e_mean())))
    return {
        "k": k, "L": L, "refinement": refinement,
        "mix_error": err,
        "integral_error": integral_err,
        "conditional_set_size": cs.size,
        "mixture_in_conditional_set": member,
        "verdict": err <= tol and member and integral_err <= tol,
    }


def check_convexity_decay(params: dict, seed: int) -> dict:
    k, gamma, N, L = params["k"], params["gamma"], params["N"], params["L"]
    series = []
    gaps = []
    for m in params["levels"]:
        b = build_counterexample(k, gamma, N, L, refinement=1 << m)
        t_alg = SigmaPartition.singletons(b.model.space)
        cloud = aumann_integral_set(b.corr, t_alg, cap=params["cap"])
        gap = convexity_gap(cloud, samples=params["samples"], metric=params["workspace"],
                            seed=seed)
        gaps.append(gap)
        series.append({"level": m, "gap": gap, "cloud_size": len(cloud)})
    monotone = all(g2 <= g1 + 1e-15 for g1, g2 in zip(gaps, gaps[1:]))
    return {
        "k": k, "N": N, "L": L,
        "series": series,
        "monotone": monotone,
        "final_gap": gaps[-1],
        "verdict": monotone and gaps[-1] < params["final_tol"],
        "csv": {"gaps": [("level", "gap")] + [(s["level"], s["gap"]) for s in series]},
    }


# tower-barycenter runs the library once per disjoint union of this many
# instances: a union of all of them would hold every instance's objects at once
TOWER_BATCH = 50


def _merge_labels(rng: np.random.Generator, n: int, least: int) -> np.ndarray:
    """Labels merging n parts into a random number (at least ``least``) of
    blocks, every label in 0..m-1 used."""
    m = int(rng.integers(least, n + 1))
    assign = rng.integers(0, m, n)
    assign[rng.permutation(n)[:m]] = np.arange(m)  # no empty blocks
    return assign


def _tower_union(rng: np.random.Generator, instances: int, d: int = 3):
    """``instances`` random nested instances as one disjoint union: (space,
    selection, F-algebra, G-algebra), with G below F on every instance.

    Instance i has n_i uniform atoms, each of mass 1/(instances * n_i) in
    the union, so every conditional weight is the instance's own.  Its atoms
    are grouped into F-blocks, its F-blocks (in canonical order) merged into
    G-blocks, and each atom gets three normal values in R^d and picks one.
    """
    sizes, f_parts, g_parts, values, picks = [], [], [], [], []
    for _ in range(instances):
        n = int(rng.integers(4, 13))
        f = _merge_labels(rng, n, 2)
        sizes.append(n)
        f_parts.append(f)
        g_parts.append(_merge_labels(rng, int(f.max()) + 1, 1))
        values.append(rng.normal(size=(n, 3, d)))
        picks.append(rng.integers(0, 3, n))
    sizes = np.array(sizes)
    nf = np.array([g.shape[0] for g in g_parts])
    ng = np.array([int(g.max()) + 1 for g in g_parts])
    masses = [Fraction(1, instances * n) for n in sizes.tolist()]
    space = DiscreteSpace(tuple(range(int(sizes.sum()))),
                          tuple(np.repeat(np.array(masses, dtype=object), sizes)))
    # F-labels made distinct across the union; the partition's own labels
    # rank each instance's F-blocks canonically, after those before it, as
    # the instance's G-labels index them
    f_alg = SigmaPartition.from_labels(
        space.ids, np.concatenate(f_parts) + np.repeat(block_starts(nf), sizes))
    g = np.concatenate(g_parts)[f_alg.labels] + np.repeat(block_starts(ng), sizes)
    vals = np.concatenate(values)
    corr = Correspondence.from_stack(space, vals.reshape(-1, d), np.full(vals.shape[0], 3))
    choice = vals[np.arange(vals.shape[0]), np.concatenate(picks)]
    sel = Selection.from_rows(corr, SigmaPartition.singletons(space), choice)
    return space, sel, f_alg, SigmaPartition.from_labels(space.ids, g)


def check_tower_barycenter(params: dict, seed: int) -> dict:
    """Tower property E(E(f|F)|G) = E(f|G) and the barycenter of f's regular
    conditional distribution given G, on random nested instances drawn in
    batches of ``TOWER_BATCH``, each batch one disjoint union."""
    instances, tol = params["instances"], params["tol"]
    rng = np.random.default_rng(seed)
    worst_tower = 0.0
    worst_bary = 0.0
    for lo in range(0, instances, TOWER_BATCH):
        space, sel, f_alg, g_alg = _tower_union(rng, min(TOWER_BATCH, instances - lo))
        ef = np.array(conditional_expectation(sel, f_alg))
        eg = np.array(conditional_expectation(sel, g_alg))
        # tower: average E(f|F), lifted back to the atoms, over the G-blocks
        tower = np.array(block_averages(space, g_alg, ef[f_alg.labels]))
        worst_tower = max(worst_tower, float(np.max(np.abs(tower - eg))))
        bary = np.array(rcd_of_selection(sel, g_alg).barycenters())
        worst_bary = max(worst_bary, float(np.max(np.abs(bary - eg))))
    return {
        "instances": instances,
        "worst_tower_error": worst_tower,
        "worst_barycenter_error": worst_bary,
        "verdict": worst_tower <= tol and worst_bary <= tol,
    }


def check_uhc_decay(params: dict, seed: int) -> dict:
    k, gamma, N, L = params["k"], params["gamma"], params["N"], params["L"]
    cap, ws = params["cap"], params["workspace"]
    limit = build_counterexample(k, gamma, N, L)
    t_alg = SigmaPartition.singletons(limit.model.space)
    limit_cloud = aumann_integral_set(limit.corr, t_alg, cap=cap)
    series = []
    sigmas = []
    for m in range(N + 1):
        fam = build_counterexample(k, gamma, m, L, d=limit.d)
        cloud = aumann_integral_set(fam.corr, t_alg, cap=cap)
        sig = hausdorff_semidistance(cloud, limit_cloud, ws)
        sigmas.append(sig)
        series.append({"truncation": m, "semidistance": sig})
    monotone = all(s2 <= s1 + 1e-15 for s1, s2 in zip(sigmas, sigmas[1:]))
    return {
        "k": k, "N": N, "L": L,
        "series": series,
        "monotone": monotone,
        "final": sigmas[-1],
        "verdict": monotone and sigmas[-1] < params["final_tol"],
        "csv": {
            "semidistance": [("truncation", "semidistance")]
            + [(s["truncation"], s["semidistance"]) for s in series]
        },
    }


def check_game_equilibrium(params: dict, seed: int) -> dict:
    k, gamma, N, L = params["k"], params["gamma"], params["N"], params["L"]
    refinement, tol, mode = params["refinement"], params["tol"], params["mode"]
    game = build_counterexample_game(
        k, gamma, N, L, refinement=refinement,
        externality=params["externality"],
        flavor=params["workspace"].norm_flavor,
    )
    profile, rep = find_equilibrium(game, mode=mode, max_iter=params["max_iter"], tol=tol,
                                    cap=params["cap"])
    # exhaustive search may return any minimum-residual equilibrium, whose
    # partition is only forced to be independent up to the truncation level
    vrep = verify_equilibrium_partition(
        game, profile, max_walsh_index=N if mode == MODE_EXHAUSTIVE else None
    )
    e_mean = game.payoff.bundle.e_mean()
    agg_err = norm(np.asarray(rep.aggregate) - e_mean, game.payoff.flavor)
    expected_mass = (1 - gamma) / (k + 1)
    exp_str = f"{expected_mass.numerator}/{expected_mass.denominator}"
    masses_ok = vrep.partition_masses == [exp_str] * (k + 1)
    indep_ok = vrep.applicable and all(r[4] for r in vrep.independence_table)
    full = {**vrep.to_json(), "iterations": rep.iterations, "trace": rep.trace}
    return {
        "k": k, "L": L, "refinement": refinement,
        "residual": rep.residual,
        "iterations": rep.iterations,
        "aggregate_error": agg_err,
        "aggregate_case": rep.aggregate_case,
        "partition_masses": vrep.partition_masses,
        "independence_rows": len(vrep.independence_table or []),
        "independence_all_exact": indep_ok,
        "equilibrium_report": full,
        "trace": rep.trace,
        "verdict": rep.residual < tol and agg_err < tol and masses_ok and indep_ok,
        "csv": {
            "residuals": [("iteration", "residual")]
            + [(i, r) for i, r in enumerate(rep.trace)]
        },
    }


def check_game_nonexistence(params: dict, seed: int) -> dict:
    k, L, refinement = params["k"], params["L"], params["refinement"]
    game = build_counterexample_game(k, params["gamma"], params["N"], L,
                                     refinement=refinement)
    game = replace(game, t_alg=game.f_alg)
    profile, rep = find_equilibrium(game, mode=MODE_EXHAUSTIVE, cap=params["cap"])
    profiles = game.nact ** len(game.t_alg.blocks)
    block_play = [profile.play[game.space.position(min(b))] for b in game.t_alg.blocks]
    return {
        "k": k, "L": L, "refinement": refinement,
        "profiles_scanned": profiles,
        "rho_star": rep.residual,
        "min_aggregate_distance": rep.min_aggregate_distance,
        "best_block_profile": block_play,
        "verdict": rep.residual > 0 and rep.min_aggregate_distance > MEMBERSHIP_TOL,
    }


def check_lemma_bound(params: dict, seed: int) -> dict:
    k, trials, kmax = params["k"], params["trials"], params["kmax"]
    rng = np.random.default_rng(seed)

    def draws():
        for _ in range(trials):
            kk = int(rng.integers(1, kmax + 1))
            shift = int(rng.integers(0, kk + 1))
            yield kk, shift, rng.permutation(kk + 1)

    rows = []
    ok = True
    for s in params["meshes"]:
        d0 = Fraction(1, 1 << s)
        canonical = lemma_bound_check(case1_indicator_parts(k, s), d0)
        totals, holds = case1_lemma_trials(s, draws())
        all_hold = canonical[2] and bool(holds.all())
        bound = canonical[1]
        worst_ratio = float(np.max(totals / bound, initial=canonical[0] / bound))
        ok = ok and all_hold
        rows.append({
            "mesh": f"1/{1 << s}",
            "canonical_sum": canonical[0],
            "bound": canonical[1],
            "worst_ratio": worst_ratio,
            "all_trials_hold": all_hold,
        })
    return {
        "k": k,
        "trials_per_mesh": trials,
        "meshes": rows,
        "verdict": ok,
        "csv": {
            "lemma": [("mesh", "canonical_sum", "bound", "worst_ratio")]
            + [(r["mesh"], r["canonical_sum"], r["bound"], r["worst_ratio"]) for r in rows]
        },
    }


def check_rcd_mixture(params: dict, seed: int) -> dict:
    resolution, d = params["resolution"], params["d"]
    # two blocks, two values per atom, refinement fine enough for 1/resolution
    model = DyadicModel(Fraction(0), 1, refinement=resolution)
    space = model.space
    v0, v1 = np.zeros(d), basis_vector(0, d)
    n = len(space.ids)
    corr = Correspondence.from_stack(space, np.tile(np.array([v0, v1]), (n, 1)), np.full(n, 2))
    f_alg = model.cell_partition
    t_alg = SigmaPartition.singletons(space)
    sel0 = Selection.from_rows(corr, f_alg, np.tile(v0, (n, 1)))
    sel1 = Selection.from_rows(corr, f_alg, np.tile(v1, (n, 1)))
    k0 = rcd_of_selection(sel0, f_alg)
    k1 = rcd_of_selection(sel1, f_alg)
    all_exact = True
    realized = []
    for num in range(resolution + 1):
        alpha = Fraction(num, resolution)
        mixed = kernel_mix(k0, k1, alpha)
        g = lyapunov_mix([sel0, sel1], [alpha, 1 - alpha], f_alg, t_alg)
        exact = rcd_of_selection(g, f_alg).equals_exactly(mixed)
        all_exact = all_exact and exact
        realized.append({"alpha": f"{alpha.numerator}/{alpha.denominator}",
                         "exact": exact})
    return {"resolution": resolution, "mixtures": realized, "verdict": all_exact}


# kind -> runner: the runner of kind "a-b" is check_a_b; determinism runs
# scenarios itself, in run_scenario_dict
CHECKS = {kind: globals()["check_" + kind.replace("-", "_")]
          for kind in PARAMS if kind != "determinism"}


def _jsonable(obj):
    """Recursively coerce numpy scalars and tuples to plain JSON types."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def render_report(report: dict) -> str:
    return json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"


def run_scenario_dict(config: dict) -> dict:
    """Execute a scenario dict; returns the report dict.

    Every check is read against the parameter table before any of them runs.
    """
    if not isinstance(config, dict):
        raise ConfigError(f"a scenario must be an object, got {config!r}")
    if config.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema {config.get('schema')!r}; expected {SCHEMA_VERSION}"
        )
    name = config.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("scenario needs a non-empty string 'name'")
    seed = _read("scenario", "seed", SEED, config.get("seed", 0), {})
    checks_cfg = config.get("checks")
    if not isinstance(checks_cfg, list) or not checks_cfg:
        raise ConfigError("scenario needs a non-empty 'checks' list")
    checks = []
    for i, chk in enumerate(checks_cfg):
        if not isinstance(chk, dict):
            raise ConfigError(f"checks[{i}]: expected an object, got {chk!r}")
        kind = chk.get("kind")
        if not isinstance(kind, str) or kind not in PARAMS:
            raise ConfigError(f"checks[{i}]: unknown kind {kind!r}")
        checks.append((kind, read_check(kind, chk)))
    results = []
    for kind, params in checks:
        if kind == "determinism":
            results.append(_run_determinism(params, seed))
            continue
        res = CHECKS[kind](params, seed)
        res["kind"] = kind
        results.append(res)
    return {
        "schema": SCHEMA_VERSION,
        "name": name,
        "seed": seed,
        "kernels": _kernels.KERNEL_PATH,
        "checks": results,
        "pass": all(r["verdict"] for r in results),
    }


def _run_determinism(params: dict, seed: int) -> dict:
    target = params["target"]
    cfg = load_bundled(target) if isinstance(target, str) else target
    first = render_report(run_scenario_dict(cfg))
    second = render_report(run_scenario_dict(cfg))
    return {
        "kind": "determinism",
        "target": cfg.get("name"),
        "bytes": len(first),
        "identical": first == second,
        "verdict": first == second,
    }


def extract_csv_tables(report: dict) -> dict[str, str]:
    """CSV renderings of every series a report's checks produced."""
    tables = {}
    for res in report.get("checks", []):
        for tname, rows in (res.get("csv") or {}).items():
            lines = [",".join(str(c) for c in row) for row in rows]
            tables[f"{report['name']}__{res['kind']}__{tname}.csv"] = \
                "\n".join(lines) + "\n"
    return tables


def strip_csv(report: dict) -> dict:
    """Report copy without the embedded csv payloads (files carry those)."""
    checks = [{kk: v for kk, v in res.items() if kk != "csv"}
              for res in report.get("checks", [])]
    return {**report, "checks": checks}


def load_bundled(name: str) -> dict:
    if name not in bundled_names():
        raise ConfigError(f"no bundled scenario {name!r}; available: {bundled_names()}")
    return json.loads((resources.files("corrint") / "scenarios" / f"{name}.json").read_text())


def bundled_names() -> list[str]:
    base = resources.files("corrint") / "scenarios"
    return sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))
