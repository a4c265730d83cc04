import cmath
import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from _oracles import (
    balanced_profile,
    best_response_loop,
    cell_of,
    model_phi,
    partition_loop,
    payoff_G,
    payoff_h,
    phi_and_cells_loop,
    tie_sets,
)
from corrint import _kernels
from corrint.errors import CapacityError, PreconditionError, StructureError
from corrint.game import (
    EXTERNALITY_CONDITIONAL,
    TIE_TOL,
    LargeGame,
    StrategyProfile,
    aggregate_of,
    build_counterexample_game,
    case1_indicator_parts,
    case1_lemma_trials,
    _best_responses,
    _canonical_tie_sets,
    _ctables,
    _lemma_holds,
    _mixed_points,
    _payoffs_at_aggregate,
    find_equilibrium,
    lemma_bound_check,
    residual_of,
    root_of_unity_gap,
    verify_equilibrium_partition,
)
from corrint.spaces import SigmaPartition
from corrint.scenarios import MODEL_CAP, run_scenario_dict
from corrint.vectors import NORM_FLAVORS, basis_vector, norm, zero_vector
from corrint.walsh import walsh_integer_spectrum, walsh_sign_on_cell


def _h_reference(l, a, xs, theta, gamma, k):
    """From-scratch scalar reimplementation using complex roots of unity."""
    if theta == 0 or l <= gamma:
        return 0.0
    alpha = cmath.exp(2j * cmath.pi / (k + 1))
    u = (l - gamma) / theta
    rho = math.floor(u)
    total = sum(xs)
    val = theta * abs(math.sin(u * math.pi))
    val *= np.linalg.norm(a) + abs(1 - alpha ** rho)
    for i in range(1, k + 1):
        mix = xs[i - 1] / (k + 1) + total / (k + 1)
        val *= np.linalg.norm(a - mix) + abs(alpha ** i - alpha ** rho)
    return val


def test_root_of_unity_gap_matches_complex():
    for k in (1, 2, 3, 5):
        alpha = cmath.exp(2j * cmath.pi / (k + 1))
        for i in range(k + 1):
            for j in range(-3, 8):
                assert abs(
                    root_of_unity_gap(i, j, k) - abs(alpha ** i - alpha ** j)
                ) <= 1e-12


def test_payoff_h_branches():
    xs = [basis_vector(0, 6), basis_vector(1, 6)]
    assert payoff_h(0.3, np.ones(6), xs, 0.0) == 0.0
    assert payoff_h(Fraction(1, 8), np.ones(6), xs, 0.5, gamma=Fraction(1, 4)) == 0.0


def test_payoff_h_against_independent_reference():
    rng = np.random.default_rng(51)
    k = 2
    xs = [basis_vector(0, 6), basis_vector(1, 6)]
    got = payoff_h(0.3, zero_vector(6), xs, 0.25, gamma=0, k=k)
    want = _h_reference(0.3, zero_vector(6), xs, 0.25, 0.0, k)
    assert abs(got - want) <= 1e-12
    for _ in range(200):
        l = float(rng.uniform(0, 1))
        theta = float(rng.uniform(0.01, 0.6))
        a = rng.normal(size=6)
        xs = [rng.normal(size=6) for _ in range(k)]
        got = payoff_h(l, a, xs, theta, gamma=0, k=k)
        want = _h_reference(l, a, xs, theta, 0.0, k)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.fixture(scope="module")
def small_game():
    return build_counterexample_game(2, 0, 2, 2, refinement=3)


def test_payoff_G_zero_cases(small_game):
    g = small_game
    b = g.payoff.bundle
    e_mean = b.e_mean()
    t = g.space.ids[0]
    cell = cell_of(b.model, t)
    # theta = 0: zero action and the mixed points all give exactly 0
    assert payoff_G(g, t, zero_vector(b.d), e_mean) == 0.0
    mix = _mixed_points(g.payoff.bundle)[cell]
    for i in range(b.k):
        assert payoff_G(g, t, mix[i], e_mean) == 0.0
    # any other action is strictly negative at theta = 0
    other = 0.5 * mix[0]
    assert payoff_G(g, t, other, e_mean) < 0.0
    # every payoff value is non-positive
    rng = np.random.default_rng(52)
    for _ in range(50):
        a = rng.normal(size=b.d)
        bb = rng.normal(size=b.d)
        assert payoff_G(g, t, a, bb) <= 0.0


def _payoff_G_table(game, aggregate):
    """The (atoms, actions) payoff table from the scalar payoff, atom by atom;
    under the conditional externality each atom reads its own block's entry."""
    rows = []
    for t in game.space.ids:
        b = aggregate if game.externality != EXTERNALITY_CONDITIONAL \
            else aggregate[game.f_alg.block_index_of(t)]
        rows.append([payoff_G(game, t, a, b) for a in game.actions])
    return np.array(rows)


@pytest.mark.parametrize("gamma", ["0", "1/4", "1/3", "5/7", "123456789/1000000007",
                                   "1/36028797018963968"])
@pytest.mark.parametrize("L, refinement", [(0, 1), (1, 3), (2, 5), (3, 2)])
def test_phi_and_cells_equal_the_per_atom_loop(gamma, L, refinement):
    # closed forms in the atom index, against one Fraction phi and one
    # cell_of per atom; the last gamma puts 2n * den past 2**53
    game = build_counterexample_game(1, gamma, 0, L, refinement=refinement)
    phi, cells = phi_and_cells_loop(game.payoff.bundle.model)
    assert game.ctables[0].tobytes() == phi.tobytes()
    assert np.array_equal(game.cell_mixes[1], cells)


@pytest.mark.parametrize("flavor", NORM_FLAVORS)
@pytest.mark.parametrize("externality", ["integral", EXTERNALITY_CONDITIONAL])
def test_payoff_table_matches_payoff_G_oracle(flavor, externality):
    rng = np.random.default_rng(54)
    for k, gamma in ((2, 0), (2, Fraction(1, 4)), (1, Fraction(1, 3))):
        g = build_counterexample_game(k, gamma, 2, 2, refinement=k + 1,
                                      flavor=flavor, externality=externality)
        natoms = len(g.space.ids)
        plays = [[0] * natoms, list(balanced_profile(g).play)]
        plays += [rng.integers(0, g.nact, natoms).tolist() for _ in range(3)]
        for play in plays:
            agg = aggregate_of(g, StrategyProfile(tuple(play)))
            want = _payoff_G_table(g, agg)
            got = _payoffs_at_aggregate(g, agg)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def _best_response(game, t, b):
    """Player t's argmax actions against aggregate b at the tie tolerance,
    ascending, read from the payoff table the equilibrium search uses."""
    vals = _payoffs_at_aggregate(game, b)[game.space.position(t)]
    return [int(i) for i in np.flatnonzero(vals >= vals.max() - TIE_TOL)]


def test_best_response_atomic_part_plays_zero():
    g = build_counterexample_game(2, Fraction(1, 4), 2, 2, refinement=3)
    t2 = g.payoff.bundle.model.atomic_atom
    rng = np.random.default_rng(53)
    for _ in range(10):
        b = rng.normal(size=g.payoff.bundle.d)
        assert _best_response(g, t2, b) == [0]


def test_best_response_case2_ties(small_game):
    g = small_game
    b = g.payoff.bundle
    t = g.space.ids[0]
    cell = cell_of(b.model, t)
    br = _best_response(g, t, b.e_mean())
    mix = _mixed_points(g.payoff.bundle)[cell]
    expected = {0}
    for i in range(b.k):
        for ai in range(g.nact):
            if np.array_equal(g.actions[ai], mix[i]):
                expected.add(ai)
    assert set(br) == expected


def test_best_response_case1_residue_zero(small_game):
    g = small_game
    bnd = g.payoff.bundle
    e_mean = bnd.e_mean()
    # choose an off-mean aggregate with theta large enough that every
    # player's residue is 0: floor(phi/theta) = 0 for all phi < theta
    dist_needed = 1.01 / g.payoff.beta
    b = e_mean + dist_needed * basis_vector(0, bnd.d)
    for t in g.space.ids:
        assert _best_response(g, t, b) == [0]


def test_br_iteration_reaches_balanced_equilibrium():
    g = build_counterexample_game(2, 0, 2, 3, refinement=3)
    prof, rep = find_equilibrium(g, max_iter=50, tol=1e-9)
    assert rep.residual < 1e-9
    assert rep.iterations <= 50
    e_mean = g.payoff.bundle.e_mean()
    assert norm(np.asarray(rep.aggregate) - e_mean, "euclid") < 1e-9
    assert rep.aggregate_case == "exact-mean"


def test_br_iteration_reports_progress_without_convergence():
    g = build_counterexample_game(2, 0, 2, 2, refinement=3)
    prof, rep = find_equilibrium(g, max_iter=0, tol=1e-15)
    assert rep.residual > 0  # no exception on non-convergence
    assert len(rep.trace) == 1


def _first_minimum_in_scan_order(game):
    """The direct scan written out: every t-block profile, the last block
    varying fastest, and the first one of least residual; also the least
    norm of an aggregate minus the mean of the e_i."""
    blocks = game.t_alg.blocks
    block_of = {a: bi for bi, blk in enumerate(blocks) for a in blk}
    e_mean = game.payoff.bundle.e_mean()
    best, ties, dist = None, [], math.inf
    for digits in itertools.product(range(game.nact), repeat=len(blocks)):
        play = tuple(digits[block_of[a]] for a in game.space.ids)
        res, agg, _ = residual_of(game, StrategyProfile(play))
        dist = min(dist, norm(agg - e_mean, game.payoff.flavor))
        if best is None or res < best[0]:
            best, ties = (res, play), []
        if res == best[0]:
            ties.append(play)
    return best, ties, dist


def _scan_order_games():
    """(externality, flavor, k, gamma, N, L, refinement) of games of at most
    2,187 profiles, under every norm and at gamma 0 and 1/4."""
    games = []
    for flavor in NORM_FLAVORS:
        for gamma in ("0", "1/4"):
            games += [("integral", flavor, 2, gamma, 1, 1, 1),
                      ("integral", flavor, 1, gamma, 1, 1, 2),
                      (EXTERNALITY_CONDITIONAL, flavor, 1, gamma, 1, 1, 2)]
        games += [("integral", flavor, 1, "0", 1, 1, 3),
                  (EXTERNALITY_CONDITIONAL, flavor, 1, "0", 1, 1, 3)]
    return games + [(EXTERNALITY_CONDITIONAL, "sum", 1, "1/4", 1, 1, 3)]


# games whose two profiles tie at the least residual: whether a scan with
# the first block fastest would return the other one.  At gamma = 0 (81
# profiles) they differ in one block, at gamma = 1/4 (243 profiles) in two
TIED = {(EXTERNALITY_CONDITIONAL, "euclid", 1, "0", 1, 1, 2): False,
        (EXTERNALITY_CONDITIONAL, "euclid", 1, "1/4", 1, 1, 2): True}


@pytest.mark.parametrize("case", _scan_order_games(),
                         ids=lambda c: "{}-{}-k{}-g{}-N{}-L{}-r{}".format(*c))
def test_exhaustive_returns_first_minimum_in_scan_order(case):
    # the exhaustive search scans each aggregate block on its own through
    # the kernel; it must return the direct scan's profile and residual bit
    # for bit.  In four of these conditional games (refinement 2 at gamma 0
    # and 1/4 under euclid, refinement 2 at gamma 1/4 and 3 at gamma 0 under
    # max) a block's own first minimizer is not the direct scan's choice.
    # Under sum and max, an integral scan measuring theta in euclid returns
    # a profile that does not minimize the residual
    externality, flavor, k, gamma, N, L, refinement = case
    g = build_counterexample_game(k, gamma, N, L, refinement=refinement, flavor=flavor,
                                  externality=externality)
    (res, play), ties, dist = _first_minimum_in_scan_order(g)
    prof, rep = find_equilibrium(g, mode="exhaustive", cap=10 ** 4)
    assert prof.play == play
    assert rep.residual.hex() == res.hex()
    assert rep.trace == [res] and rep.iterations == 0
    if externality == EXTERNALITY_CONDITIONAL:
        assert rep.min_aggregate_distance is None
    else:
        assert rep.min_aggregate_distance.hex() == dist.hex()
    if case in TIED:
        assert len(ties) == 2 and ties[0] == play and res > 0
        assert (min(ties, key=lambda p: p[::-1]) != play) == TIED[case]


def test_conditional_exhaustive_scans_block_by_block():
    # 5**8 = 390,625 profiles, but 4 cells of 5**2 block profiles each, and
    # the cap counts those 100.  The direct scan over all profiles, a
    # minute's work, returns this profile and residual
    g = build_counterexample_game(1, 0, 1, 2, refinement=2,
                                  externality=EXTERNALITY_CONDITIONAL)
    t0 = time.perf_counter()
    prof, rep = find_equilibrium(g, mode="exhaustive", cap=100)
    assert time.perf_counter() - t0 < 0.5
    assert prof.play == (0, 1, 1, 0, 0, 0, 3, 3)
    assert rep.residual.hex() == "0x1.09d1c941ecc11p-4"
    with pytest.raises(CapacityError):
        find_equilibrium(g, mode="exhaustive", cap=99)


def test_exhaustive_certified_equilibrium_residual_exactly_zero():
    # dyadic masses and k = 1 make the balanced aggregate bit-equal to the
    # e-mean, so the certified equilibrium has residual exactly 0
    g = build_counterexample_game(1, 0, 1, 2, refinement=2)
    prof, rep = find_equilibrium(g, mode="exhaustive", cap=10 ** 6)
    assert rep.residual == 0.0
    assert rep.aggregate_case == "exact-mean"


def test_equilibrium_set_invariant_under_action_reorder():
    g = build_counterexample_game(1, 0, 1, 2, refinement=2)
    perm = list(range(g.nact))[::-1]
    actions2 = g.actions[perm]
    g2 = LargeGame(f_alg=g.f_alg, t_alg=g.t_alg, actions=actions2,
                   payoff=g.payoff, externality=g.externality)
    _, rep1 = find_equilibrium(g, mode="exhaustive", cap=10 ** 6)
    _, rep2 = find_equilibrium(g2, mode="exhaustive", cap=10 ** 6)
    assert rep1.residual == rep2.residual == 0.0


def test_exhaustive_capacity_error():
    g = build_counterexample_game(2, 0, 2, 3)
    with pytest.raises(CapacityError):
        find_equilibrium(g, mode="exhaustive", cap=1000)


def test_nonexistence_when_algebras_coincide():
    g = build_counterexample_game(2, 0, 2, 2, refinement=4)
    g = LargeGame(f_alg=g.f_alg, t_alg=g.f_alg, actions=g.actions,
                  payoff=g.payoff, externality=g.externality)
    prof, rep = find_equilibrium(g, mode="exhaustive", cap=10 ** 7)
    assert rep.residual > 1e-3  # bounded away from zero on this instance
    assert rep.min_aggregate_distance > 1e-3


def test_verify_partition_on_equilibrium():
    g = build_counterexample_game(2, 0, 3, 3, refinement=3)
    prof, rep = find_equilibrium(g, max_iter=50, tol=1e-9)
    v = verify_equilibrium_partition(g, prof)
    assert v.applicable
    assert v.partition_masses == ["1/3", "1/3", "1/3"]
    assert all(row[4] for row in v.independence_table)
    # rows cover every Walsh block of the level, for each part
    assert len(v.independence_table) == (2 ** 3 - 1) * 3


def test_verify_partition_gamma_quarter():
    # cold-start iteration can cycle at atom scale on coarse positive-gamma
    # instances; the balanced candidate is an equilibrium and certifies it
    g = build_counterexample_game(2, Fraction(1, 4), 2, 2, refinement=3)
    start = balanced_profile(g)
    prof, rep = find_equilibrium(g, max_iter=50, tol=1e-9, start=start)
    assert rep.residual < 1e-9
    assert rep.iterations == 0
    v = verify_equilibrium_partition(g, prof)
    assert v.applicable
    assert v.partition_masses == ["1/4", "1/4", "1/4"]
    assert all(row[4] for row in v.independence_table)


def test_verify_partition_flags_unbalanced_profile():
    g = build_counterexample_game(2, 0, 2, 2, refinement=3)
    bnd = g.payoff.bundle
    model = bnd.model
    # play the first mixed point exactly on the cells of one Walsh block and
    # the zero action elsewhere: the part coincides with that block, which
    # cannot be independent of it
    d1 = model.walsh_block(1)
    play = []
    for atom in g.space.ids:
        cell = cell_of(model, atom)
        if atom in d1:
            mix = _mixed_points(g.payoff.bundle)[cell]
            for ai in range(g.nact):
                if np.array_equal(g.actions[ai], mix[0]):
                    play.append(ai)
                    break
        else:
            play.append(0)
    v = verify_equilibrium_partition(g, StrategyProfile(tuple(play)))
    assert v.applicable
    assert v.partition_masses[1] == "1/2"
    assert not all(row[4] for row in v.independence_table)


def test_exhaustive_equilibrium_independent_up_to_truncation():
    # the aggregate equation forces independence only for Walsh indices up
    # to the truncation level; the first equilibrium in scan order meets
    # those rows while the round-robin profile meets every row
    g = build_counterexample_game(1, 0, 1, 2, refinement=2)
    prof, rep = find_equilibrium(g, mode="exhaustive", cap=10 ** 6)
    assert rep.residual == 0.0
    v_forced = verify_equilibrium_partition(g, prof, max_walsh_index=1)
    assert v_forced.applicable and all(r[4] for r in v_forced.independence_table)
    v_rr = verify_equilibrium_partition(g, balanced_profile(g))
    assert all(r[4] for r in v_rr.independence_table)


def test_verify_partition_not_applicable_outside_candidates():
    g = build_counterexample_game(2, 0, 2, 2, refinement=3,
                                  extra_actions=[np.full(6, 0.3)])
    play = tuple([g.nact - 1] * len(g.space.ids))
    v = verify_equilibrium_partition(g, StrategyProfile(play))
    assert not v.applicable


def _partition_cases():
    """(game, profile) pairs: balanced, all-zero, random and candidate-mixing
    plays, the atomic atom off the zero action, probe and duplicated actions."""
    rng = np.random.default_rng(91)
    cases = []
    for g in (build_counterexample_game(2, 0, 2, 2, refinement=3),
              build_counterexample_game(2, "1/4", 2, 2, refinement=3),
              build_counterexample_game(1, "1/4", 1, 2, refinement=2,
                                        extra_actions=[np.full(2, 0.3)])):
        natoms = len(g.space.ids)
        cands, rr = g.round_robin
        plays = [rr.tolist(), [0] * natoms, rng.integers(0, g.nact, natoms).tolist()]
        plays += [[int(rng.choice(np.flatnonzero(row))) for row in cands] for _ in range(3)]
        plays.append([g.nact - 1] + rr.tolist()[1:])
        copies = LargeGame(f_alg=g.f_alg, t_alg=g.t_alg, payoff=g.payoff,
                           actions=np.concatenate([g.actions, g.actions]))
        for play in plays:
            cases.append((g, play))
            cases.append((copies, [p + g.nact * (t % 2) for t, p in enumerate(play)]))
    return cases


def test_partition_equals_the_per_atom_loop():
    notes = set()
    for g, play in _partition_cases():
        profile = StrategyProfile(tuple(play))
        parts, note = partition_loop(g, profile)
        v = verify_equilibrium_partition(g, profile)
        assert (v.applicable, v.note) == (parts is not None, note)
        if parts is not None:
            masses = [g.space.mass(p) if p else Fraction(0) for p in parts]
            assert v.partition_masses == [f"{m.numerator}/{m.denominator}" for m in masses]
        notes.add(note.split(" ")[0])
    assert notes == {"", "atomic-part", "player"}


def test_case1_contraction_step():
    # one best-response update from a far aggregate contracts the distance
    # by the 4k/(k+1)*beta factor whenever the mesh stays above atom width
    g = build_counterexample_game(2, 0, 2, 3, refinement=3)
    bnd = g.payoff.bundle
    e_mean = bnd.e_mean()
    k = bnd.k
    rng = np.random.default_rng(54)
    natoms = len(g.space.ids)
    atom_width = 1.0 / natoms
    checked = 0
    profile = StrategyProfile(tuple([0] * natoms))
    for trial in range(40):
        play = tuple(int(x) for x in rng.integers(0, g.nact, natoms))
        profile = StrategyProfile(play)
        agg = aggregate_of(g, profile)
        dist = norm(agg - e_mean, "euclid")
        d0 = g.payoff.beta * dist
        if d0 < atom_width:
            continue
        checked += 1
        table_profile, _ = find_equilibrium(g, max_iter=1, tol=0.0,
                                            start=profile)
        new_agg = aggregate_of(g, table_profile)
        new_dist = norm(new_agg - e_mean, "euclid")
        assert new_dist <= (4 * k / (k + 1)) * d0 + 1e-12
    assert checked >= 10


def test_conditional_externality_aggregate_shape():
    g = build_counterexample_game(2, 0, 2, 2, refinement=3,
                                  externality=EXTERNALITY_CONDITIONAL)
    prof = StrategyProfile(tuple([0] * len(g.space.ids)))
    agg = aggregate_of(g, prof)
    assert len(agg) == len(g.f_alg.blocks)
    res, _, _ = residual_of(g, prof)
    assert res >= 0.0


def _payoffs_at_aggregate_per_block(game, aggregate):
    """The conditional-externality table, one full payoff table per F-block."""
    pay = game.payoff
    space = game.space
    phi, gamma_f, na, p2, dn, am = game.ctables
    e_mean = pay.bundle.e_mean()
    table = np.empty((len(space.ids), game.nact))
    for bi, blk in enumerate(game.f_alg.blocks):
        theta = pay.beta * norm(np.asarray(aggregate[bi]) - e_mean, pay.flavor)
        sub = _kernels.payoff_table(theta, phi, gamma_f, na, p2, dn, am, pay.k)
        for atom in blk:
            ti = space.position(atom)
            table[ti] = sub[ti]
    return table


@pytest.mark.parametrize("gamma", ["0", "1/4"])
@pytest.mark.parametrize("k", [2, 3])
def test_conditional_externality_table_equals_per_block_oracle(k, gamma):
    g = build_counterexample_game(k, gamma, 2, 2, refinement=k + 1,
                                  externality=EXTERNALITY_CONDITIONAL)
    natoms = len(g.space.ids)
    rng = np.random.default_rng(71)
    plays = [[0] * natoms, list(balanced_profile(g).play)]
    plays += [rng.integers(0, g.nact, natoms).tolist() for _ in range(4)]
    for play in plays:
        agg = aggregate_of(g, StrategyProfile(tuple(play)))
        want = _payoffs_at_aggregate_per_block(g, agg)
        got = _payoffs_at_aggregate(g, agg)
        assert got.tobytes() == want.tobytes()


# the norm of a whole array, as vectors.norm computed it before row_norms
_OLD_NORM = {
    "sum": lambda v: float(np.sum(np.abs(v))),
    "euclid": lambda v: float(np.sqrt(np.sum(v * v))),
    "max": lambda v: float(np.max(np.abs(v))),
}


@pytest.mark.parametrize("flavor", NORM_FLAVORS)
def test_conditional_equilibrium_scenario_reports_the_aggregate_error(flavor):
    # a conditional aggregate has one row per F-block; its error is the
    # norm of all the rows taken as one vector
    chk = {"kind": "game-equilibrium", "externality": "conditional", "k": 2, "gamma": "0",
           "N": 2, "L": 3, "refinement": 3, "workspace": {"norm": flavor}}
    rep = run_scenario_dict({"schema": 1, "name": "conditional", "checks": [chk]})["checks"][0]
    g = build_counterexample_game(2, 0, 2, 3, refinement=3,
                                  externality=EXTERNALITY_CONDITIONAL, flavor=flavor)
    aggregate = np.asarray(rep["equilibrium_report"]["aggregate"])
    assert aggregate.shape == (len(g.f_alg.blocks), len(g.payoff.bundle.e_mean()))
    want = _OLD_NORM[flavor](aggregate - g.payoff.bundle.e_mean())
    assert rep["aggregate_error"].hex() == want.hex()


def test_lemma_bound_canonical_case():
    parts = case1_indicator_parts(2, 3)
    total, bound, ok = lemma_bound_check(parts, Fraction(1, 8))
    assert ok and bound == 0.5
    assert total < bound


def test_lemma_bound_shifted_and_relabelled():
    rng = np.random.default_rng(55)
    for s in (3, 5):
        d0 = Fraction(1, 1 << s)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            parts = case1_indicator_parts(
                k, s,
                shift=int(rng.integers(0, k + 1)),
                roles=[int(x) for x in rng.permutation(k + 1)],
            )
            total, bound, ok = lemma_bound_check(parts, d0)
            assert ok, (k, s, total, bound)


def test_lemma_bound_degenerate_all_zero_flagged():
    # all-zero indicators: integrand is the constant -1; the weighted sum is
    # exactly 1, so the bound can only hold in the d0 > 1/4 regime
    parts = [np.zeros(8, dtype=np.int64)]
    total, bound, ok = lemma_bound_check(parts, Fraction(1, 8))
    assert abs(total - 1.0) <= 1e-15
    assert not ok
    total2, bound2, ok2 = lemma_bound_check(
        [np.zeros(2, dtype=np.int64)], Fraction(1, 2)
    )
    assert ok2  # 4*d0 = 2 > 1


def test_lemma_bound_overlap_rejected():
    q = np.ones(8, dtype=np.int64)
    with pytest.raises(PreconditionError):
        lemma_bound_check([q, q], Fraction(1, 8))


def test_lemma_bound_truncation_argument():
    parts = case1_indicator_parts(2, 4)
    full = lemma_bound_check(parts, Fraction(1, 16))
    truncated = lemma_bound_check(parts, Fraction(1, 16), L=4)
    assert full[0] == truncated[0]  # terms past the mesh vanish identically


def _lemma_bound_check_loop(parts, d0, gamma=0, L: int | None = None):
    """Per-trial loop form of ``lemma_bound_check``, with its float verdict."""
    gamma = Fraction(gamma)
    d0 = Fraction(d0)
    qs = [np.asarray(q, dtype=np.int64) for q in parts]
    if not qs:
        raise PreconditionError("need at least one indicator part")
    ncell = qs[0].shape[0]
    if any(q.shape != (ncell,) for q in qs):
        raise StructureError("indicator parts live on different meshes")
    if any(np.any((q != 0) & (q != 1)) for q in qs):
        raise PreconditionError("parts must be {0,1} indicators")
    if np.any(sum(qs) > 1):
        raise PreconditionError("indicator supports overlap")
    if ncell & (ncell - 1):
        raise PreconditionError(f"mesh size {ncell} is not a power of two")
    if d0 * ncell != 1 - gamma:
        raise PreconditionError(
            f"cell width {d0} times {ncell} cells does not tile (gamma, 1]"
        )
    mesh_exp = ncell.bit_length() - 1
    n_top = ncell if L is None else min(ncell, 1 << L)
    qsum = sum(qs)
    width = float(1 - gamma)
    worst = 0.0
    for qi in qs:
        g = qi + qsum - 1
        spectrum = walsh_integer_spectrum(g)
        total = 0.0
        for n in range(n_top):
            integral = width * int(spectrum[n]) / ncell
            total += (0.5 ** n) * abs(integral)
        worst = max(worst, total)
    bound = 4.0 * float(d0)
    return worst, bound, bool(worst < bound)


def _lemma_fraction_oracle(parts, d0, gamma=0, L=None):
    """Exact worst sum and verdict in ``Fraction``s, from cell signs."""
    gamma, d0 = Fraction(gamma), Fraction(d0)
    ncell = len(parts[0])
    level = ncell.bit_length() - 1
    n_top = ncell if L is None else min(ncell, 1 << L)
    qsum = [sum(int(q[c]) for q in parts) for c in range(ncell)]
    worst = Fraction(0)
    for q in parts:
        total = Fraction(0)
        for n in range(n_top):
            cells = sum((int(q[c]) + qsum[c] - 1) * walsh_sign_on_cell(n, c, level)
                        for c in range(ncell))
            total += Fraction(1, 2 ** n) * abs((1 - gamma) * Fraction(cells, ncell))
        worst = max(worst, total)
    return worst, worst < 4 * d0


def _random_trials(rng, mesh_exp, count, kmax=4):
    """Disjoint indicator parts: case-1 patterns and random cell labellings."""
    ncell = 1 << mesh_exp
    for t in range(count):
        k = int(rng.integers(1, kmax + 1))
        if t % 2:
            yield case1_indicator_parts(
                k, mesh_exp, shift=int(rng.integers(0, k + 1)),
                roles=[int(x) for x in rng.permutation(k + 1)],
            )
        else:
            label = rng.integers(0, k + 1, size=ncell)
            yield [(label == i).astype(np.int64) for i in range(1, k + 1)]


def _case1_draws(rng, count, kmax):
    """(kk, shift, roles) triples, drawn as the lemma-bound check draws them."""
    out = []
    for _ in range(count):
        kk = int(rng.integers(1, kmax + 1))
        out.append((kk, int(rng.integers(0, kk + 1)), [int(x) for x in rng.permutation(kk + 1)]))
    return out


def _case1_expect(mesh_exp, draws):
    """Each draw through ``lemma_bound_check`` of its indicator parts."""
    d0 = Fraction(1, 1 << mesh_exp)
    return [lemma_bound_check(case1_indicator_parts(kk, mesh_exp, shift, roles), d0)
            for kk, shift, roles in draws]


LEMMA_GAMMAS = [Fraction(0), Fraction(1, 4), Fraction(1, 3)]


@pytest.mark.parametrize("budget", [None, 1, 8 * 16 * 3])
@pytest.mark.parametrize("L", [None, 2])
@pytest.mark.parametrize("gamma", LEMMA_GAMMAS)
def test_lemma_batched_equals_loop_oracle(monkeypatch, gamma, L, budget):
    # lemma_bound_check equals the per-part loop form, totals bit for bit
    # and verdicts; so does the residue path of case-1 draws (gamma 0, no
    # truncation), where a budget of 1 byte makes every trial its own chunk
    # and 384 bytes puts a few trials in each chunk with tails of every length
    if budget is not None:
        monkeypatch.setattr(_kernels, "_CHUNK_BYTES", budget)
    rng = np.random.default_rng(56)
    verdicts = set()
    for s in (0, 1, 3, 4, 6):
        ncell = 1 << s
        d0 = (1 - gamma) / ncell
        for parts in _random_trials(rng, s, 40):
            expect = _lemma_bound_check_loop(parts, d0, gamma, L)
            assert lemma_bound_check(parts, d0, gamma, L) == expect
            verdicts.add(expect[2])
        if gamma == 0 and L is None:
            draws = _case1_draws(rng, 40, 4)
            totals, holds = case1_lemma_trials(s, iter(draws))
            assert totals.dtype == float and holds.dtype == bool
            expect = [_lemma_bound_check_loop(case1_indicator_parts(kk, s, shift, roles), d0)
                      for kk, shift, roles in draws]
            assert totals.tolist() == [e[0] for e in expect]
            assert holds.tolist() == [e[2] for e in expect]
            verdicts.update(holds.tolist())
    assert verdicts == {True, False}


@pytest.mark.parametrize("mesh_exp", range(11))
def test_case1_lemma_trials_equal_lemma_bound_check(mesh_exp):
    # moduli kk + 1 up to 10 exceed the 2**mesh_exp cells on small meshes
    rng = np.random.default_rng(59 + mesh_exp)
    for kmax in range(1, 10):
        for count in (0, 1, 23):
            draws = _case1_draws(rng, count, kmax)
            totals, holds = case1_lemma_trials(mesh_exp, draws)
            expect = _case1_expect(mesh_exp, draws)
            assert totals.shape == holds.shape == (count,)
            assert totals.tobytes() == np.array([e[0] for e in expect]).tobytes()
            assert holds.tolist() == [e[2] for e in expect]


def test_lemma_chunks_stay_within_budget(monkeypatch):
    # every trial's spectra at once would hold about 1 MB on a 256-cell
    # mesh; each chunk stays within half the budget
    import corrint.game as game

    sizes = []
    core = game._lemma_verdicts

    def spy(spectra, *args):
        sizes.append(spectra.nbytes)
        return core(spectra, *args)

    monkeypatch.setattr(game, "_lemma_verdicts", spy)
    draws = _case1_draws(np.random.default_rng(58), 200, 4)
    totals, _ = case1_lemma_trials(8, draws)
    assert len(totals) == 200 and len(sizes) > 4
    assert max(sizes) <= _kernels._CHUNK_BYTES // 2


def test_case1_lemma_memory_is_one_modulus_at_a_time():
    # 64 moduli on 1,024 cells: one modulus's rows take at most 0.53 MB, every
    # basis at once about 17 MB
    draws = _case1_draws(np.random.default_rng(60), 200, 64)
    case1_lemma_trials(10, draws)  # imports and caches warm
    tracemalloc.start()
    try:
        totals, _ = case1_lemma_trials(10, draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(totals) == 200
    assert peak < 4_000_000


@pytest.mark.parametrize("gamma", LEMMA_GAMMAS)
def test_lemma_exact_verdict_matches_fraction_oracle(gamma):
    rng = np.random.default_rng(57)
    verdicts = set()
    for s in (0, 1, 2, 3, 4):
        d0 = (1 - gamma) / (1 << s)
        for L in (None, 1):
            for parts in _random_trials(rng, s, 12):
                total, bound, holds = lemma_bound_check(parts, d0, gamma, L)
                exact, exact_holds = _lemma_fraction_oracle(parts, d0, gamma, L)
                assert holds == exact_holds
                assert bound == 4.0 * float(d0)
                assert abs(total - float(exact)) <= 1e-15 * max(1.0, float(exact))
                verdicts.add(holds)
    # tie: all-zero parts on 4 cells give exactly 4 d0, which is not below it
    d0 = (1 - gamma) / 4
    for parts in ([np.zeros(4, dtype=np.int64)],
                  case1_indicator_parts(3, 2, roles=[1, 2, 3, 0])):
        exact_holds = _lemma_fraction_oracle(parts, d0, gamma)[1]
        assert lemma_bound_check(parts, d0, gamma)[2] == exact_holds
    assert not lemma_bound_check([np.zeros(4, dtype=np.int64)], (1 - gamma) / 4, gamma)[2]
    assert verdicts == {True, False}


def _spectrum_summing_to(n_top, sign):
    """An integer spectrum whose weighted sum sum |s_n| 2**-n is 4 + sign 2**-(n_top-1).

    2**-(n_top - 1) is the finest step such a sum can take.
    """
    s = np.zeros(n_top, dtype=np.int64)
    if sign < 0:
        s[0] = -3
        s[1:] = 1  # 3 + (1 - 2**-(n_top - 1))
    else:
        s[0] = 4
        if sign > 0:
            s[-1] = -1
    return s


@pytest.mark.parametrize("n_top", [2, 8, 64, 256, 2048])
def test_lemma_holds_on_crafted_boundaries(n_top):
    # at n_top >= 64 the float sums of 4 and 4 +- 2**-(n_top-1) coincide, so
    # only the exact integer decision can tell them apart
    rows = np.stack([_spectrum_summing_to(n_top, sign) for sign in (0, -1, 1)])
    wide = np.hstack([rows, np.full((3, 5), 7, dtype=np.int64)])  # past n_top
    assert _lemma_holds(rows, n_top).tolist() == [False, True, False]
    assert _lemma_holds(wide, n_top).tolist() == [False, True, False]
    far = np.zeros((2, n_top), dtype=np.int64)
    far[1, 0] = 5
    assert _lemma_holds(far, n_top).tolist() == [True, False]


def test_lemma_trials_refuse_bad_input():
    good = case1_indicator_parts(2, 3)
    with pytest.raises(PreconditionError):
        lemma_bound_check([], Fraction(1, 8))
    with pytest.raises(StructureError):
        lemma_bound_check([good[0], np.zeros(16, dtype=np.int64)], Fraction(1, 8))
    with pytest.raises(PreconditionError):  # a mesh of 16 cells does not tile at 1/8
        lemma_bound_check(case1_indicator_parts(2, 4), Fraction(1, 8))
    with pytest.raises(PreconditionError):
        lemma_bound_check([np.full(8, 2)], Fraction(1, 8))
    with pytest.raises(PreconditionError):  # refused, not truncated to [0, 1, 0, 0]
        lemma_bound_check([np.array([0.5, 1.0, 0.9, 0.0])], Fraction(1, 4))
    with pytest.raises(PreconditionError):
        lemma_bound_check(good, Fraction(1, 8), gamma=1)  # does not tile
    with pytest.raises(PreconditionError):
        lemma_bound_check([np.zeros(8, dtype=np.int64)], Fraction(0), gamma=1)
    for bad in ((0, 0, [0]), (2, 0, [0, 1, 1]), (2, 0, [0, 1]), (2, 1, [0, 1, 3])):
        with pytest.raises(PreconditionError):
            case1_lemma_trials(3, [(2, 0, [2, 0, 1]), bad])
    totals, holds = case1_lemma_trials(3, iter([]))
    assert totals.shape == holds.shape == (0,)


def test_case1_indicator_parts_pattern():
    # cell c carries role roles[(c + shift) % (k + 1)]
    parts = case1_indicator_parts(2, 3, shift=1, roles=[2, 0, 1])
    assert [p.tolist() for p in parts] == [
        [0, 1, 0, 0, 1, 0, 0, 1],
        [0, 0, 1, 0, 0, 1, 0, 0],
    ]
    assert all(p.dtype == np.int64 for p in parts)


def test_game_requires_refining_algebras():
    g = build_counterexample_game(2, 0, 2, 2, refinement=2)
    crossed = SigmaPartition(
        [{a, b} for a, b in zip(g.space.ids[0::2], g.space.ids[1::2])]
    )
    # t_alg must refine f_alg; a crossing partition is rejected
    with pytest.raises(PreconditionError):
        LargeGame(f_alg=g.f_alg, t_alg=SigmaPartition.trivial(g.space),
                  actions=g.actions, payoff=g.payoff)


# -- the explicit payoff's tables against their per-row loop forms ------------

def _ctables_loop(game):
    """``_ctables`` as one ``norm`` call per (atom, action, mixed point).

    ``norm`` itself is pinned to its loop form in test_vectors.py.
    """
    pay = game.payoff
    b = pay.bundle
    model = b.model
    space = model.space
    natoms, nact, k = len(space.ids), game.nact, b.k
    phi = np.array([float(model_phi(model, a)) for a in space.ids])
    na = np.array([norm(a, pay.flavor) for a in game.actions])
    dn = np.zeros((natoms, nact, k))
    p2 = np.zeros((natoms, nact))
    zero_mix = np.zeros((k, b.d))
    for ti, atom in enumerate(space.ids):
        cell = cell_of(model, atom)
        mixes = zero_mix if cell is None else _mixed_points(pay.bundle)[cell]
        for ai in range(nact):
            a = game.actions[ai]
            prod = na[ai]
            for i in range(k):
                gap = norm(a - mixes[i], pay.flavor)
                dn[ti, ai, i] = gap
                prod *= gap
            p2[ti, ai] = prod
    am = np.zeros((k + 1, k + 1))
    for i in range(k + 1):
        for r in range(k + 1):
            am[i, r] = root_of_unity_gap(i, r, k)
    return phi, float(b.gamma), na, p2, dn, am


def _canonical_tie_sets_loop(game):
    """``_canonical_tie_sets`` as an ``np.array_equal`` search per mixed point."""
    pay = game.payoff
    b = pay.bundle
    model = b.model
    zero_idx = next((i for i, a in enumerate(game.actions) if not np.any(a)), 0)
    out = []
    for atom in model.space.ids:
        cell = cell_of(model, atom)
        if cell is None:
            out.append([zero_idx])
            continue
        mix = _mixed_points(pay.bundle)[cell]
        ids = [zero_idx]
        for i in range(b.k):
            for ai in range(game.nact):
                if np.array_equal(game.actions[ai], mix[i]):
                    ids.append(ai)
                    break
        out.append(sorted(set(ids)))
    return out


def _hexes(tables):
    return [[float(x).hex() for x in np.ravel(t)] for t in tables]


def _with_actions(g, actions):
    return LargeGame(f_alg=g.f_alg, t_alg=g.t_alg, actions=actions,
                     payoff=g.payoff, externality=g.externality)


def _signed_zeros(g):
    # every zero coordinate of every action negative: equal to +0.0 for
    # np.array_equal, but a different float
    return _with_actions(g, np.where(g.actions == 0.0, -0.0, g.actions))


TABLE_GAMES = {
    "k2": lambda flavor: build_counterexample_game(2, 0, 2, 2, refinement=3, flavor=flavor),
    # the atomic atom takes zero mixed points
    "gamma-quarter": lambda flavor: build_counterexample_game(
        3, "1/4", 2, 2, refinement=2, flavor=flavor),
    "conditional": lambda flavor: build_counterexample_game(
        2, 0, 2, 2, refinement=3, flavor=flavor, externality=EXTERNALITY_CONDITIONAL),
    # d = 48 rows, where numpy sums pairwise, and probe actions
    "k16-probes": lambda flavor: build_counterexample_game(
        16, 0, 2, 2, extra_actions=[np.linspace(-1, 1, 48), np.full(48, 1e-7)], flavor=flavor),
    "signed-zeros": lambda flavor: _signed_zeros(
        build_counterexample_game(2, "1/4", 1, 2, refinement=2, flavor=flavor)),
}


@pytest.mark.parametrize("budget", [None, 1])
@pytest.mark.parametrize("flavor", NORM_FLAVORS)
@pytest.mark.parametrize("case", sorted(TABLE_GAMES))
def test_ctables_equal_the_per_row_loop(monkeypatch, case, flavor, budget):
    # at the default chunk budget and at one (cell, action) pair a chunk
    if budget is not None:
        monkeypatch.setattr(_kernels, "_CHUNK_BYTES", budget)
    g = TABLE_GAMES[case](flavor)
    assert _hexes(_ctables(g)) == _hexes(_ctables_loop(g))


def _dropped_mixed_points(g):
    # no action for the first mixed point of any cell
    return _with_actions(g, np.delete(g.actions, np.arange(1, g.nact, g.payoff.k), axis=0))


TIE_GAMES = {
    "k2": lambda: build_counterexample_game(2, 0, 2, 2, refinement=3),
    "gamma-quarter": lambda: build_counterexample_game(3, "1/4", 2, 2, refinement=2),
    "reversed": lambda: (lambda g: _with_actions(g, g.actions[::-1]))(
        build_counterexample_game(2, 0, 2, 2)),
    # every mixed point twice: the first copy names it
    "duplicated": lambda: (lambda g: _with_actions(g, np.concatenate([g.actions, g.actions])))(
        build_counterexample_game(2, 0, 1, 1, refinement=2)),
    "signed-zeros": lambda: _signed_zeros(build_counterexample_game(2, "1/4", 1, 2)),
    "dropped": lambda: _dropped_mixed_points(build_counterexample_game(2, 0, 2, 2)),
    # no zero action, so the first action stands in for it
    "no-zero-action": lambda: (lambda g: _with_actions(g, g.actions[1:]))(
        build_counterexample_game(1, 0, 1, 2)),
}


@pytest.mark.parametrize("budget", [None, 1])
@pytest.mark.parametrize("case", sorted(TIE_GAMES))
def test_canonical_tie_sets_equal_the_array_equal_loop(monkeypatch, case, budget):
    if budget is not None:
        monkeypatch.setattr(_kernels, "_CHUNK_BYTES", budget)
    g = TIE_GAMES[case]()
    # one row per cell and a last one for the atomic atom, read through cells
    assert _canonical_tie_sets(g).shape == (g.payoff.bundle.model.ncells + 1, g.nact)
    assert tie_sets(g) == _canonical_tie_sets_loop(g)


def test_game_refuses_actions_of_another_length():
    # such actions equal no mixed point, and the payoff cannot weigh them
    g = build_counterexample_game(1, 0, 1, 2)
    for d in (g.payoff.bundle.d - 1, g.payoff.bundle.d + 1):
        with pytest.raises(StructureError, match="actions of length"):
            _with_actions(g, np.full((3, d), 0.25))


def _aggregate_at_mean(g):
    e_mean = g.payoff.bundle.e_mean()
    if g.externality == EXTERNALITY_CONDITIONAL:
        return [e_mean] * len(g.f_alg.blocks)
    return e_mean


def _response_tables(g, rng):
    """Payoff tables with no tie, partial ties and full candidate ties.

    Tables at the mean aggregate (theta = 0: every candidate ties) and at
    random profiles' aggregates, then those tables with random actions of
    random rows lifted to within 0, 0.5, 0.999, 1, 1.001 or 2 ``TIE_TOL``
    of the row's best, and random small-integer tables.
    """
    natoms = len(g.space.ids)
    tables = [_payoffs_at_aggregate(g, _aggregate_at_mean(g))]
    for _ in range(3):
        play = tuple(rng.integers(0, g.nact, natoms).tolist())
        tables.append(_payoffs_at_aggregate(g, aggregate_of(g, StrategyProfile(play))))
    cands = g.round_robin[0]
    gaps = np.array([0.0, 0.5, 0.999, 1.0, 1.001, 2.0]) * TIE_TOL
    for base in tables[1:]:
        for _ in range(4):
            t = base.copy()
            top = t.max(axis=1, keepdims=True)
            lift = rng.random(t.shape) < 0.3
            lift |= cands & (rng.random((natoms, 1)) < 0.5)
            t = np.where(lift, top - rng.choice(gaps, size=t.shape), t)
            tables.append(t)
    tables += [rng.integers(0, 3, (natoms, g.nact)).astype(float) for _ in range(4)]
    return tables


BR_GAMES = {
    **TIE_GAMES,
    "gamma-quarter-k2": lambda: build_counterexample_game(2, "1/4", 2, 2, refinement=3),
    "conditional": lambda: build_counterexample_game(2, 0, 2, 2, refinement=3,
                                                     externality=EXTERNALITY_CONDITIONAL),
}


@pytest.mark.parametrize("case", sorted(BR_GAMES))
def test_best_responses_equal_the_per_atom_loop(case):
    g = BR_GAMES[case]()
    rng = np.random.default_rng(81)
    cands = g.round_robin[0]
    kinds = set()
    for table in _response_tables(g, rng):
        got = _best_responses(g, table)
        assert got.dtype == np.int64
        assert got.tolist() == list(best_response_loop(g, table))
        ties = table >= table.max(axis=1, keepdims=True) - TIE_TOL
        full = (ties.sum(axis=1) > 1) & (ties >= cands).all(axis=1)
        kinds |= {"full" if f else "partial" if n > 1 else "none"
                  for f, n in zip(full, ties.sum(axis=1))}
    assert kinds == {"none", "partial", "full"}


@pytest.mark.parametrize("case", sorted(BR_GAMES))
def test_balanced_profile_is_the_round_robin_play(case):
    g = BR_GAMES[case]()
    cands, rr = g.round_robin
    assert balanced_profile(g).play == tuple(rr.tolist())
    assert [np.flatnonzero(row).tolist() for row in cands] == tie_sets(g)
    assert not cands.flags.writeable and not rr.flags.writeable


def _br_iterate_loop(g, max_iter, tol, start=None):
    """Best-response iteration with the per-atom loop: (profile, trace)."""
    profile = start or StrategyProfile(tuple([0] * len(g.space.ids)))
    trace, best = [], None
    for it in range(max_iter + 1):
        res, agg, _ = residual_of(g, profile)
        trace.append(res)
        if best is None or res < best[0]:
            best = (res, profile)
        if res <= tol or it == max_iter:
            break
        profile = StrategyProfile(best_response_loop(g, _payoffs_at_aggregate(g, agg)))
    return best[1], trace


@pytest.mark.parametrize("game", [
    lambda: build_counterexample_game(2, 0, 2, 3, refinement=3),
    # these two do not converge: the iteration cycles
    lambda: build_counterexample_game(2, "1/4", 2, 2, refinement=3),
    lambda: build_counterexample_game(2, 0, 2, 3, refinement=3, flavor="max",
                                      externality=EXTERNALITY_CONDITIONAL),
])
def test_br_iteration_equals_the_per_atom_loop(game):
    g = game()
    prof, rep = find_equilibrium(g, max_iter=30, tol=1e-9)
    want_prof, want_trace = _br_iterate_loop(g, 30, 1e-9)
    assert prof == want_prof
    assert rep.trace == want_trace
    assert rep.iterations == len(want_trace) - 1


def test_game_refuses_a_payoff_that_is_not_the_explicit_one():
    g = build_counterexample_game(1, 0, 1, 1)
    with pytest.raises(StructureError):
        LargeGame(f_alg=g.f_alg, t_alg=g.t_alg, actions=g.actions,
                  payoff=lambda t, a, agg: 0.0)


def test_ctables_memory_stays_with_the_tables():
    # 4,096 atoms, 65 actions, k = 4 and d = 64: a model of 1.3 million
    # atom values, a twelfth of MODEL_CAP.  dn takes 8.5 MB, while the full
    # (atoms, actions, k, d) array of differences would take 545 MB
    g = build_counterexample_game(4, 0, 15, 4, refinement=256)
    b = g.payoff.bundle
    natoms = len(g.space.ids)
    assert (b.k + 1) * b.d * natoms <= MODEL_CAP
    tracemalloc.start()
    try:
        tables = _ctables(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(np.asarray(t).nbytes for t in tables) + sum(a.nbytes for a in g.cell_mixes)
    assert peak <= held + 4 * _kernels._CHUNK_BYTES
    assert 8 * natoms * g.nact * b.k * b.d > 40 * peak
