"""Scenario engine: named, seeded verification runs over the library.

A scenario is a JSON document (``schema: 1``) with a list of checks; each
check runs one pipeline, reports its measurements, and yields a verdict.
Reports are canonical JSON (sorted keys, trailing newline), so the same
configuration and seed reproduce byte-identical output; series-producing
checks also expose CSV tables for external plotting.
"""
from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from . import _kernels
from .correspondences import (
    Correspondence,
    Selection,
    build_counterexample,
)
from .errors import CapacityError, ConfigError
from .game import (
    LargeGame,
    build_counterexample_game,
    case1_indicator_parts,
    find_equilibrium,
    lemma_bound_check,
    lemma_bound_trials,
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
from .spaces import DiscreteSpace, DyadicModel, SigmaPartition
from .vectors import Workspace, basis_vector, norm
from .walsh import walsh_gram

SCHEMA_VERSION = 1


def _fraction(x) -> Fraction:
    try:
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational: {x!r}") from exc


def _int(params: dict, kind: str, key: str, default: int, lo: int) -> int:
    """An integer parameter >= lo, or ``ConfigError`` naming the check."""
    v = params.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int) or v < lo:
        raise ConfigError(f"{kind}: '{key}' must be an integer >= {lo}, got {v!r}")
    return v


def _ws(cfg: dict, default_d: int) -> Workspace:
    w = cfg.get("workspace", {})
    return Workspace(
        d=w.get("d", default_d),
        norm_flavor=w.get("norm", "euclid"),
        topology=w.get("topology", "norm"),
    )


# -- check runners ------------------------------------------------------------

# largest sign table the orthogonality check builds, in entries
ORTHOGONALITY_CAP = 1 << 22


def check_walsh_orthogonality(params: dict, seed: int) -> dict:
    level = _int(params, "walsh-orthogonality", "level", 8, 0)
    max_index = _int(params, "walsh-orthogonality", "max_index", 16, 1)
    ncells = 1 << level
    if max_index * ncells > ORTHOGONALITY_CAP:
        raise CapacityError(max_index * ncells, ORTHOGONALITY_CAP,
                            f"sign table of {max_index} x {ncells} entries exceeds "
                            f"cap {ORTHOGONALITY_CAP}")
    gram = walsh_gram(max_index, level)
    expect = ncells * np.eye(max_index, dtype=np.int64)
    failures = [[int(m), int(n), int(gram[m, n])] for m, n in np.argwhere(gram != expect)]
    return {
        "level": level,
        "max_index": max_index,
        "failures": failures,
        "verdict": not failures,
    }


def check_counterexample_integrals(params: dict, seed: int) -> dict:
    k = params.get("k", 2)
    N = params.get("N", 2)
    L = params.get("L", 5)
    tol = params.get("tol", 1e-12)
    gammas = [_fraction(g) for g in params.get("gammas", ["0", "1/4"])]
    rows = []
    ok = True
    for gamma in gammas:
        b = build_counterexample(k, gamma, N, L)
        scale = float(1 - gamma)
        e1_norm = norm(b.e_list[0], "euclid")
        norm_ok = abs(e1_norm - scale) <= tol
        basis_ok = all(
            float(np.max(np.abs(b.e_list[j - 1] - scale * basis_vector(j - 1, b.d)))) <= tol
            for j in range(1, k + 1)
        )
        zero_ok = True
        if gamma > 0:
            zero_ok = not np.any(b.f_list[0].eval_at(gamma / 2))
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
    k = params.get("k", 2)
    gamma = _fraction(params.get("gamma", 0))
    N = params.get("N", 2)
    L = params.get("L", 3)
    cap = params.get("cap", 100_000)
    b = build_counterexample(k, gamma, N, L)
    ws = _ws(params, b.d)
    t_alg = SigmaPartition.singletons(b.model.space)
    cloud = aumann_integral_set(b.corr, t_alg, cap=cap, mode="enumerate")
    mid = b.e_mean()
    gap = cloud.nearest_distance(mid, ws)
    present = cloud.contains(mid, MEMBERSHIP_TOL, ws)
    return {
        "k": k,
        "L": L,
        "selections": (k + 1) ** len(b.model.space.ids),
        "cloud_size": len(cloud),
        "cloud_meta": cloud_metadata(b.corr, t_alg, cap, "enumerate"),
        "midpoint_gap": gap,
        "midpoint_present": present,
        "verdict": (not present) and gap > MEMBERSHIP_TOL,
        "csv": {
            "cloud": [tuple(f"x{m}" for m in range(b.d))]
            + [tuple(float(x) for x in p) for p in cloud.points]
        },
    }


def _canonical_selections(bundle) -> list[Selection]:
    """The k+1 cell-algebra selections {0, f_1, ..., f_k} of the bundle."""
    zero = np.zeros(bundle.d)
    out = []
    for j in range(bundle.k + 1):
        cmap = {}
        for a in bundle.model.space.ids:
            c = bundle.model.cell_of(a)
            if c is None or j == 0:
                cmap[a] = zero
            else:
                cmap[a] = bundle.f_list[j - 1].values[c]
        out.append(Selection(bundle.corr, bundle.f_alg, cmap))
    return out


def check_lyapunov_exactness(params: dict, seed: int) -> dict:
    k = params.get("k", 2)
    gamma = _fraction(params.get("gamma", 0))
    N = params.get("N", 2)
    L = params.get("L", 2)
    refinement = params.get("refinement", k + 1)
    cap = params.get("cap", 200_000)
    tol = params.get("tol", 1e-12)
    b = build_counterexample(k, gamma, N, L, refinement=refinement)
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
    cs = conditional_set(b.corr, t_alg, b.f_alg, cap=cap)
    member = cs.contains_function(np.array(eg))
    integral_err = float(np.max(np.abs(integrate_selection(g) - b.e_mean())))
    return {
        "k": k,
        "L": L,
        "refinement": refinement,
        "mix_error": err,
        "integral_error": integral_err,
        "conditional_set_size": cs.size,
        "mixture_in_conditional_set": member,
        "verdict": err <= tol and member and integral_err <= tol,
    }


def check_convexity_decay(params: dict, seed: int) -> dict:
    k = params.get("k", 1)
    gamma = _fraction(params.get("gamma", 0))
    N = params.get("N", 1)
    L = params.get("L", 4)
    levels = params.get("levels", [1, 2, 3, 4, 5, 6])
    if not isinstance(levels, list) or not levels:
        raise ConfigError("convexity-decay: 'levels' must be a non-empty list")
    samples = params.get("samples", 128)
    cap = params.get("cap", 2_000_000)
    final_tol = params.get("final_tol", 1e-3)
    b0 = build_counterexample(k, gamma, N, L)
    ws = _ws(params, b0.d)
    series = []
    gaps = []
    for m in levels:
        b = build_counterexample(k, gamma, N, L, refinement=1 << m)
        t_alg = SigmaPartition.singletons(b.model.space)
        cloud = aumann_integral_set(b.corr, t_alg, cap=cap, mode="minkowski")
        gap = convexity_gap(cloud, samples=samples, metric=ws, seed=seed)
        gaps.append(gap)
        series.append({"level": m, "gap": gap, "cloud_size": len(cloud)})
    monotone = all(g2 <= g1 + 1e-15 for g1, g2 in zip(gaps, gaps[1:]))
    return {
        "k": k,
        "N": N,
        "L": L,
        "series": series,
        "monotone": monotone,
        "final_gap": gaps[-1],
        "verdict": monotone and gaps[-1] < final_tol,
        "csv": {"gaps": [("level", "gap")] + [(s["level"], s["gap"]) for s in series]},
    }


def _random_nested_instance(rng: np.random.Generator, d: int = 3):
    """Random (space, t-selection, F-algebra, G-algebra) with G below F."""
    natoms = int(rng.integers(4, 13))
    space = DiscreteSpace.uniform(natoms)
    ids = list(space.ids)
    # group atoms into F blocks, then merge F blocks into G blocks
    nf = int(rng.integers(2, natoms + 1))
    assign_f = rng.integers(0, nf, natoms)
    assign_f[rng.permutation(natoms)[:nf]] = np.arange(nf)  # no empty blocks
    f_blocks: dict[int, set] = {}
    for a, gidx in zip(ids, assign_f):
        f_blocks.setdefault(int(gidx), set()).add(a)
    f_alg = SigmaPartition(list(f_blocks.values()))
    nf = len(f_alg.blocks)
    ng = int(rng.integers(1, nf + 1))
    assign_g = rng.integers(0, ng, nf)
    assign_g[rng.permutation(nf)[:ng]] = np.arange(ng)
    g_blocks: dict[int, set] = {}
    for fb, gidx in zip(f_alg.blocks, assign_g):
        g_blocks.setdefault(int(gidx), set()).update(fb)
    g_alg = SigmaPartition(list(g_blocks.values()))
    values = rng.normal(size=(natoms, 3, d))
    vmap = {a: [values[i, j] for j in range(3)] for i, a in enumerate(ids)}
    corr = Correspondence(space, vmap)
    choice = {a: values[i, int(rng.integers(0, 3))] for i, a in enumerate(ids)}
    sel = Selection(corr, SigmaPartition.singletons(space), choice)
    return space, sel, f_alg, g_alg


def check_tower_barycenter(params: dict, seed: int) -> dict:
    instances = params.get("instances", 200)
    tol = params.get("tol", 1e-12)
    rng = np.random.default_rng(seed)
    worst_tower = 0.0
    worst_bary = 0.0
    for _ in range(instances):
        space, sel, f_alg, g_alg = _random_nested_instance(rng)
        ef = conditional_expectation(sel, f_alg)
        # push E(f|F) back to a selection-like map for the outer expectation
        lifted = {}
        for blk, v in zip(f_alg.blocks, ef):
            for a in blk:
                lifted[a] = v
        eg_direct = conditional_expectation(sel, g_alg)
        # tower: average the lifted F-expectation over G blocks
        for gi, gb in enumerate(g_alg.blocks):
            acc = np.zeros(sel.corr.dim)
            gmass = space.mass(gb)
            for a in sorted(gb):
                acc += float(space.mass_of(a) / gmass) * lifted[a]
            worst_tower = max(worst_tower, float(np.max(np.abs(acc - eg_direct[gi]))))
        kern = rcd_of_selection(sel, g_alg)
        for bc, direct in zip(kern.barycenters(), eg_direct):
            worst_bary = max(worst_bary, float(np.max(np.abs(bc - direct))))
    return {
        "instances": instances,
        "worst_tower_error": worst_tower,
        "worst_barycenter_error": worst_bary,
        "verdict": worst_tower <= tol and worst_bary <= tol,
    }


def check_uhc_decay(params: dict, seed: int) -> dict:
    k = params.get("k", 2)
    gamma = _fraction(params.get("gamma", 0))
    N = params.get("N", 4)
    L = params.get("L", 3)
    cap = params.get("cap", 100_000)
    final_tol = params.get("final_tol", 1e-6)
    limit = build_counterexample(k, gamma, N, L)
    ws = _ws(params, limit.d)
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
        "k": k,
        "N": N,
        "L": L,
        "series": series,
        "monotone": monotone,
        "final": sigmas[-1],
        "verdict": monotone and sigmas[-1] < final_tol,
        "csv": {
            "semidistance": [("truncation", "semidistance")]
            + [(s["truncation"], s["semidistance"]) for s in series]
        },
    }


def check_game_equilibrium(params: dict, seed: int) -> dict:
    k = params.get("k", 2)
    gamma = _fraction(params.get("gamma", 0))
    N = params.get("N", 2)
    L = params.get("L", 3)
    refinement = params.get("refinement", k + 1)
    tol = params.get("tol", 1e-9)
    max_iter = params.get("max_iter", 50)
    mode = params.get("mode", "br_iterate")
    game = build_counterexample_game(
        k, gamma, N, L, refinement=refinement,
        externality=params.get("externality", "integral"),
        flavor=params.get("workspace", {}).get("norm", "euclid"),
    )
    if mode == "exhaustive":
        profile, rep = find_equilibrium(
            game, mode="exhaustive", cap=params.get("cap", 20_000_000), tol=tol
        )
    else:
        profile, rep = find_equilibrium(game, max_iter=max_iter, tol=tol)
    # exhaustive search may return any minimum-residual equilibrium, whose
    # partition is only forced to be independent up to the truncation level
    vrep = verify_equilibrium_partition(
        game, profile, max_walsh_index=N if mode == "exhaustive" else None
    )
    e_mean = game.payoff.bundle.e_mean()
    agg_err = norm(np.asarray(rep.aggregate) - e_mean, game.payoff.flavor)
    expected_mass = (1 - gamma) / (k + 1)
    exp_str = f"{expected_mass.numerator}/{expected_mass.denominator}"
    masses_ok = vrep.partition_masses == [exp_str] * (k + 1)
    indep_ok = vrep.applicable and all(r[4] for r in vrep.independence_table)
    full = vrep.to_json()
    full["iterations"] = rep.iterations
    full["trace"] = rep.trace
    return {
        "k": k,
        "L": L,
        "refinement": refinement,
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
    k = params.get("k", 2)
    gamma = _fraction(params.get("gamma", 0))
    N = params.get("N", 2)
    L = params.get("L", 2)
    refinement = params.get("refinement", 4)
    cap = params.get("cap", 20_000_000)
    game = build_counterexample_game(k, gamma, N, L, refinement=refinement)
    game = LargeGame(
        f_alg=game.f_alg, t_alg=game.f_alg, actions=game.actions,
        payoff=game.payoff, externality=game.externality,
    )
    profile, rep = find_equilibrium(game, mode="exhaustive", cap=cap)
    profiles = game.nact ** len(game.t_alg.blocks)
    block_play = [profile.play[game.space.position(min(b))] for b in game.t_alg.blocks]
    return {
        "k": k,
        "L": L,
        "refinement": refinement,
        "profiles_scanned": profiles,
        "rho_star": rep.residual,
        "min_aggregate_distance": rep.min_aggregate_distance,
        "best_block_profile": block_play,
        "verdict": rep.residual > 0 and rep.min_aggregate_distance > MEMBERSHIP_TOL,
    }


# largest trial the lemma check builds: parts x mesh cells
LEMMA_CAP = 1 << 22


def check_lemma_bound(params: dict, seed: int) -> dict:
    k = _int(params, "lemma-bound", "k", 2, 1)
    meshes = params.get("meshes", [3, 4, 5, 6, 7, 8])
    trials = _int(params, "lemma-bound", "trials", 1000, 0)
    kmax = _int(params, "lemma-bound", "kmax", 4, 1)
    if not isinstance(meshes, list) or not meshes or not all(
        isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in meshes
    ):
        raise ConfigError("lemma-bound: 'meshes' must be a non-empty list of "
                          f"integers >= 0, got {meshes!r}")
    # exponents past the cap's bit length are clipped: the count stays a
    # lower bound that exceeds the cap, and no huge integer is built
    entries = max(k, kmax) << min(max(meshes), LEMMA_CAP.bit_length())
    if entries > LEMMA_CAP:
        raise CapacityError(entries, LEMMA_CAP,
                            f"lemma-bound: {max(k, kmax)} parts on a mesh of "
                            f"2**{max(meshes)} cells exceed cap {LEMMA_CAP}")
    rng = np.random.default_rng(seed)

    def draws(s):
        for _ in range(trials):
            kk = int(rng.integers(1, kmax + 1))
            shift = int(rng.integers(0, kk + 1))
            roles = [int(x) for x in rng.permutation(kk + 1)]
            yield case1_indicator_parts(kk, s, shift=shift, roles=roles)

    rows = []
    ok = True
    for s in meshes:
        d0 = Fraction(1, 1 << s)
        canonical = lemma_bound_check(case1_indicator_parts(k, s), d0)
        totals, holds = lemma_bound_trials(draws(s), d0)
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
    resolution = params.get("resolution", 4)
    d = params.get("d", 2)
    # two blocks, two values per atom, refinement fine enough for 1/resolution
    model = DyadicModel(Fraction(0), 1, refinement=resolution)
    space = model.space
    v0 = np.zeros(d)
    v1 = basis_vector(0, d)
    vmap = {a: [v0, v1] for a in space.ids}
    corr = Correspondence(space, vmap)
    f_alg = model.cell_partition
    t_alg = SigmaPartition.singletons(space)
    sel0 = Selection(corr, f_alg, {a: v0 for a in space.ids})
    sel1 = Selection(corr, f_alg, {a: v1 for a in space.ids})
    k0 = rcd_of_selection(sel0, f_alg)
    k1 = rcd_of_selection(sel1, f_alg)
    all_exact = True
    realized = []
    for num in range(resolution + 1):
        alpha = Fraction(num, resolution)
        mixed = kernel_mix(k0, k1, alpha)
        if alpha == 1:
            g = sel0
        elif alpha == 0:
            g = sel1
        else:
            g = lyapunov_mix([sel0, sel1], [alpha, 1 - alpha], f_alg, t_alg)
        kg = rcd_of_selection(g, f_alg)
        exact = kg.equals_exactly(mixed)
        all_exact = all_exact and exact
        realized.append({"alpha": f"{alpha.numerator}/{alpha.denominator}",
                         "exact": exact})
    return {
        "resolution": resolution,
        "mixtures": realized,
        "verdict": all_exact,
    }


CHECKS = {
    "walsh-orthogonality": check_walsh_orthogonality,
    "counterexample-integrals": check_counterexample_integrals,
    "necessity-gap": check_necessity_gap,
    "lyapunov-exactness": check_lyapunov_exactness,
    "convexity-decay": check_convexity_decay,
    "tower-barycenter": check_tower_barycenter,
    "uhc-decay": check_uhc_decay,
    "game-equilibrium": check_game_equilibrium,
    "game-nonexistence": check_game_nonexistence,
    "lemma-bound": check_lemma_bound,
    "rcd-mixture": check_rcd_mixture,
}


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
    """Execute a validated scenario dict; returns the report dict."""
    if config.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema {config.get('schema')!r}; expected {SCHEMA_VERSION}"
        )
    name = config.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("scenario needs a non-empty string 'name'")
    seed = config.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("'seed' must be an integer")
    checks_cfg = config.get("checks")
    if not isinstance(checks_cfg, list) or not checks_cfg:
        raise ConfigError("scenario needs a non-empty 'checks' list")
    results = []
    for i, chk in enumerate(checks_cfg):
        if not isinstance(chk, dict):
            raise ConfigError(f"checks[{i}]: expected an object, got {chk!r}")
        kind = chk.get("kind")
        if kind == "determinism":
            results.append(_run_determinism(chk, seed))
            continue
        if kind not in CHECKS:
            raise ConfigError(f"checks[{i}]: unknown kind {kind!r}")
        res = CHECKS[kind](chk, seed)
        res["kind"] = kind
        results.append(res)
    report = {
        "schema": SCHEMA_VERSION,
        "name": name,
        "seed": seed,
        "kernels": _kernels.KERNEL_PATH,
        "checks": results,
        "pass": all(r["verdict"] for r in results),
    }
    return report


def _run_determinism(chk: dict, seed: int) -> dict:
    target = chk.get("target")
    cfg = load_bundled(target) if isinstance(target, str) else target
    if not isinstance(cfg, dict):
        raise ConfigError("determinism check needs a 'target' scenario")
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
    out = dict(report)
    out["checks"] = []
    for res in report.get("checks", []):
        r = {kk: v for kk, v in res.items() if kk != "csv"}
        out["checks"].append(r)
    return out


def load_bundled(name: str) -> dict:
    from importlib import resources

    base = resources.files("corrint") / "scenarios"
    path = base / f"{name}.json"
    if not path.is_file():
        available = sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))
        raise ConfigError(f"no bundled scenario {name!r}; available: {available}")
    return json.loads(path.read_text())


def bundled_names() -> list[str]:
    from importlib import resources

    base = resources.files("corrint") / "scenarios"
    return sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))
