"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each (run with ``pytest tests/test_acceptance.py -s`` to see
the lines live).
"""
import time
from fractions import Fraction

import numpy as np

from _oracles import cell_of, enumerate_selections
from corrint.correspondences import (
    Correspondence,
    Selection,
    build_counterexample,
)
from corrint.game import (
    LargeGame,
    build_counterexample_game,
    case1_indicator_parts,
    find_equilibrium,
    lemma_bound_check,
    verify_equilibrium_partition,
)
from corrint.rcd import kernel_mix, rcd_of_selection
from corrint.scenarios import load_bundled, render_report, run_scenario_dict
from corrint.set_integration import (
    aumann_integral_set,
    conditional_expectation,
    conditional_set,
    convexity_gap,
    hausdorff_semidistance,
    lyapunov_mix,
)
from corrint.spaces import DiscreteSpace, SigmaPartition, is_nowhere_equivalent
from corrint.vectors import Workspace, basis_vector, norm, zero_vector
from corrint.walsh import walsh_sign_on_cell


def _report(num, label, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {label:<28} {status}  ({elapsed:.2f}s) {detail}")


def test_c01_walsh_orthogonality():
    t0 = time.perf_counter()
    level, top = 8, 16
    ncells = 1 << level
    ok = True
    for m in range(top):
        for n in range(top):
            acc = sum(
                walsh_sign_on_cell(m, c, level) * walsh_sign_on_cell(n, c, level)
                for c in range(ncells)
            )
            ok = ok and acc == (ncells if m == n else 0)
    el = time.perf_counter() - t0
    _report(1, "walsh orthogonality", ok and el < 1.0, el)
    assert ok
    assert el < 1.0


def test_c02_counterexample_integrals():
    t0 = time.perf_counter()
    ok = True
    for gamma in (Fraction(0), Fraction(1, 4)):
        b = build_counterexample(2, gamma, 2, 5)
        scale = float(1 - gamma)
        ok = ok and abs(norm(b.e_list[0], "euclid") - scale) <= 1e-12
        for j in (1, 2):
            expect = scale * basis_vector(j - 1, b.d)
            ok = ok and float(np.max(np.abs(b.e_list[j - 1] - expect))) <= 1e-12
    el = time.perf_counter() - t0
    _report(2, "counterexample integrals", ok and el < 1.0, el)
    assert ok
    assert el < 1.0


def test_c03_necessity_shadow():
    t0 = time.perf_counter()
    b = build_counterexample(2, 0, 2, 3)
    t_alg = SigmaPartition.singletons(b.model.space)
    cloud = aumann_integral_set(b.corr, t_alg, cap=10_000)
    mid = b.e_mean()
    delta_star = cloud.nearest_distance(mid)
    brute = float(np.sqrt(((cloud.points - mid) ** 2).sum(axis=1).min()))
    ok = abs(brute - delta_star) <= 4 * np.spacing(delta_star) and delta_star > 1e-9
    el = time.perf_counter() - t0
    _report(3, "necessity midpoint gap", ok and el < 10.0, el,
            f"delta*={delta_star:.6f} over 3^8 selections")
    assert ok
    assert el < 10.0


def test_c04_lyapunov_exactness():
    t0 = time.perf_counter()
    k = 2
    b = build_counterexample(k, 0, 2, 2, refinement=k + 1)
    t_alg = SigmaPartition.singletons(b.model.space)
    zero = zero_vector(b.d)
    sels = []
    for j in range(k + 1):
        cmap = {}
        for a in b.model.space.ids:
            c = cell_of(b.model, a)
            cmap[a] = zero if j == 0 else b.psi[c, j - 1]
        sels.append(Selection(b.corr, b.f_alg, cmap))
    g = lyapunov_mix(sels, [Fraction(1, k + 1)] * (k + 1), b.f_alg, t_alg)
    eg = conditional_expectation(g, b.f_alg)
    err = 0.0
    for blk, v in zip(b.f_alg.blocks, eg):
        rep = min(blk)
        target = sum(s.at(rep) for s in sels) / (k + 1)
        err = max(err, float(np.max(np.abs(v - target))))
    cs = conditional_set(b.corr, t_alg, b.f_alg, cap=200_000)
    member = cs.contains_function(np.array(eg))
    ok = err <= 1e-12 and member
    el = time.perf_counter() - t0
    _report(4, "lyapunov mixing exactness", ok and el < 10.0, el,
            f"err={err:.2e} member={member}")
    assert ok
    assert el < 10.0


def test_c05_convexification_decay():
    t0 = time.perf_counter()
    k, N, L = 1, 1, 4
    ws = Workspace(d=k * (N + 1))
    gaps = []
    for m in range(1, 7):
        b = build_counterexample(k, 0, N, L, refinement=1 << m)
        t_alg = SigmaPartition.singletons(b.model.space)
        cloud = aumann_integral_set(b.corr, t_alg, cap=2_000_000)
        gaps.append(convexity_gap(cloud, samples=128, metric=ws, seed=0))
    monotone = all(b2 <= b1 + 1e-15 for b1, b2 in zip(gaps, gaps[1:]))
    ok = monotone and gaps[-1] < 1e-3
    el = time.perf_counter() - t0
    _report(5, "convexification decay", ok and el < 60.0, el,
            f"final gap={gaps[-1]:.2e}")
    assert ok
    assert el < 60.0


def test_c06_tower_and_barycenter():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 13))
        space = DiscreteSpace.uniform(n)
        vals = {a: rng.normal(size=3) for a in space.ids}
        corr = Correspondence(space, {a: [vals[a]] for a in space.ids})
        sel = Selection(corr, SigmaPartition.singletons(space), vals)
        nf = int(rng.integers(2, n + 1))
        assign = rng.integers(0, nf, n)
        assign[rng.permutation(n)[:nf]] = np.arange(nf)
        fblocks: dict[int, set] = {}
        for a, gi in zip(space.ids, assign):
            fblocks.setdefault(int(gi), set()).add(a)
        f_alg = SigmaPartition(list(fblocks.values()))
        g_alg = SigmaPartition.trivial(space)
        ef = conditional_expectation(sel, f_alg)
        lift = {a: v for blk, v in zip(f_alg.blocks, ef) for a in blk}
        outer = np.zeros(3)
        for a in space.ids:
            outer += float(space.mass_of(a)) * lift[a]
        direct = conditional_expectation(sel, g_alg)[0]
        worst = max(worst, float(np.max(np.abs(outer - direct))))
        kern = rcd_of_selection(sel, f_alg)
        for bc, dv in zip(kern.barycenters(), ef):
            worst = max(worst, float(np.max(np.abs(bc - dv))))
    ok = worst <= 1e-12
    el = time.perf_counter() - t0
    _report(6, "tower and barycenter", ok and el < 5.0, el, f"worst={worst:.2e}")
    assert ok
    assert el < 5.0


def test_c07_uhc_semidistance():
    t0 = time.perf_counter()
    k, N, L = 2, 4, 3
    limit = build_counterexample(k, 0, N, L)
    ws = Workspace(d=limit.d, topology="weak")
    t_alg = SigmaPartition.singletons(limit.model.space)
    limit_cloud = aumann_integral_set(limit.corr, t_alg, cap=100_000)
    sigmas = []
    for m in range(N + 1):
        fam = build_counterexample(k, 0, m, L, d=limit.d)
        cloud = aumann_integral_set(fam.corr, t_alg, cap=100_000)
        sigmas.append(hausdorff_semidistance(cloud, limit_cloud, ws))
    monotone = all(s2 <= s1 + 1e-15 for s1, s2 in zip(sigmas, sigmas[1:]))
    ok = monotone and sigmas[-1] < 1e-6
    el = time.perf_counter() - t0
    _report(7, "uhc semidistance decay", ok and el < 30.0, el,
            f"sigma={['%.4f' % s for s in sigmas]}")
    assert ok
    assert el < 30.0


def test_c08_game_equilibrium():
    t0 = time.perf_counter()
    k = 2
    game = build_counterexample_game(k, 0, 2, 3, refinement=k + 1)
    profile, rep = find_equilibrium(game, max_iter=50, tol=1e-9)
    e_mean = game.payoff.bundle.e_mean()
    agg_err = norm(np.asarray(rep.aggregate) - e_mean, "euclid")
    v = verify_equilibrium_partition(game, profile)
    masses_ok = v.partition_masses == ["1/3"] * 3
    indep_ok = v.applicable and all(r[4] for r in v.independence_table)
    ok = rep.residual < 1e-9 and rep.iterations <= 50 and agg_err < 1e-9 \
        and masses_ok and indep_ok
    el = time.perf_counter() - t0
    _report(8, "game equilibrium", ok and el < 30.0, el,
            f"residual={rep.residual:.2e} iters={rep.iterations}")
    assert ok
    assert el < 30.0


def test_c09_game_nonexistence():
    t0 = time.perf_counter()
    game = build_counterexample_game(2, 0, 2, 2, refinement=4)
    game = LargeGame(f_alg=game.f_alg, t_alg=game.f_alg, actions=game.actions,
                     payoff=game.payoff, externality=game.externality)
    profile, rep = find_equilibrium(game, mode="exhaustive", cap=20_000_000)
    rho_star = rep.residual
    _, rep2 = find_equilibrium(game, mode="exhaustive", cap=20_000_000)
    ok = rho_star > 0 and rep2.residual >= rho_star \
        and rep.min_aggregate_distance > 1e-9
    el = time.perf_counter() - t0
    _report(9, "game non-existence", ok and el < 120.0, el,
            f"rho*={rho_star:.4f} aggdist>={rep.min_aggregate_distance:.4f}")
    assert ok
    assert el < 120.0


def test_c10_lemma_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    ok = True
    for s in (3, 4, 5, 6, 7, 8):
        d0 = Fraction(1, 1 << s)
        total, bound, holds = lemma_bound_check(case1_indicator_parts(2, s), d0)
        ok = ok and holds
        for _ in range(1000):
            kk = int(rng.integers(1, 5))
            parts = case1_indicator_parts(
                kk, s,
                shift=int(rng.integers(0, kk + 1)),
                roles=[int(x) for x in rng.permutation(kk + 1)],
            )
            _, _, holds = lemma_bound_check(parts, d0)
            ok = ok and holds
    el = time.perf_counter() - t0
    _report(10, "walsh sum bound", ok and el < 30.0, el, "6000 trials")
    assert ok
    assert el < 30.0


def test_c11_rcd_convexity():
    t0 = time.perf_counter()
    space = DiscreteSpace.uniform(8)
    f_alg = SigmaPartition([set(range(4)), set(range(4, 8))])
    t_alg = SigmaPartition.singletons(space)
    v0 = zero_vector(2)
    v1 = basis_vector(0, 2)
    corr = Correspondence(space, {a: [v0, v1] for a in space.ids})
    s0 = Selection(corr, f_alg, {a: v0 for a in space.ids})
    s1 = Selection(corr, f_alg, {a: v1 for a in space.ids})
    k0 = rcd_of_selection(s0, f_alg)
    k1 = rcd_of_selection(s1, f_alg)
    all_kernels = [
        rcd_of_selection(s, f_alg)
        for s in enumerate_selections(corr, t_alg, cap=300)
    ]
    ok = True
    for num in range(5):
        alpha = Fraction(num, 4)
        mixed = kernel_mix(k0, k1, alpha)
        if alpha == 1:
            g = s0
        elif alpha == 0:
            g = s1
        else:
            g = lyapunov_mix([s0, s1], [alpha, 1 - alpha], f_alg, t_alg)
        ok = ok and rcd_of_selection(g, f_alg).equals_exactly(mixed)
        ok = ok and any(kern.equals_exactly(mixed) for kern in all_kernels)
    el = time.perf_counter() - t0
    _report(11, "rcd mixture realization", ok and el < 5.0, el,
            "256 selections enumerated")
    assert ok
    assert el < 5.0


def test_c12_determinism():
    t0 = time.perf_counter()
    ok = True
    for name in ("e1-nonconvexity", "game-equilibrium", "lemma-bound",
                 "rcd-mixture"):
        cfg = load_bundled(name)
        first = render_report(run_scenario_dict(cfg))
        second = render_report(run_scenario_dict(cfg))
        ok = ok and first == second
    el = time.perf_counter() - t0
    _report(12, "scenario determinism", ok, el, "4 scenarios, byte-compared")
    assert ok


def _verdict(name, **params):
    """The verdict of a bundled one-check scenario, with params replaced."""
    cfg = load_bundled(name)
    cfg["checks"][0].update(params)
    (check,) = run_scenario_dict(cfg)["checks"]
    return check["verdict"]


def test_c13_nowhere_equivalence_iff_equilibrium():
    # the paper's "iff": the game has an equilibrium exactly when the
    # players' algebra is nowhere equivalent to the characteristic one
    t0 = time.perf_counter()
    rows = []  # (case, nowhere equivalent, equilibrium found)
    for gamma in ("0", "1/4"):
        # at gamma = 1/4 the atomic atom is one block of both algebras
        game = build_counterexample_game(2, Fraction(gamma), 2, 3, refinement=3)
        rows.append((f"gamma={gamma}", is_nowhere_equivalent(game.t_alg, game.f_alg),
                     _verdict("game-equilibrium", gamma=gamma)))
    # the game-nonexistence check runs this game with t_alg = f_alg
    game = build_counterexample_game(2, 0, 2, 2, refinement=4)
    rows.append(("t_alg=f_alg", is_nowhere_equivalent(game.f_alg, game.f_alg),
                 not _verdict("game-nonexistence")))
    ok = [row[1:] for row in rows] == [(True, True), (False, False), (False, False)]
    el = time.perf_counter() - t0
    _report(13, "nowhere equivalence iff", ok, el,
            " ".join(f"{case}:{ne}/{eq}" for case, ne, eq in rows))
    assert ok
