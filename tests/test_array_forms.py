"""The label and array forms of spaces, correspondences, selections and
kernels against the per-atom code they replaced (``_oracles``).

Spaces are drawn with ids that are not 0..n-1, masses whose common
denominator may pass 2**53, partitions with blocks of more than 8 atoms,
and rows of dimension 1 to 3 taken from a pool with signed zeros, repeats
and extreme scales, so that bit-level differences would show.  Kernel
weights are drawn over denominators past 2**53 (where the numerators are
Python ints), 2**62 and 2**63, with zero weights and up to 48 entries a
block.
"""
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    barycenters_loop,
    block_averages_loop,
    block_choice_sets_loop,
    cell_of,
    conditional_set_loop,
    correspondence_dict,
    correspondence_loop,
    is_nowhere_equivalent_loop,
    is_refinement_loop,
    kernel_mix_loop,
    lyapunov_mix_loop,
    merge_rows_copysign,
    outcome,
    rcd_loop,
    same_rows,
    selection_index_loop,
    space_numerators_loop,
    transition_kernel_loop,
)
from corrint.correspondences import (
    Correspondence,
    Selection,
    _merge_rows,
    block_choice_sets,
    build_counterexample,
)
from corrint.errors import DivisibilityError, StructureError
from corrint.rcd import TransitionKernel, kernel_mix, rcd_of_selection
from corrint.set_integration import conditional_set, lyapunov_mix
from corrint.spaces import (
    DiscreteSpace,
    SigmaPartition,
    block_averages,
    inner_blocks,
    is_nowhere_equivalent,
    is_refinement,
)

SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)
POOL = [0.0, -0.0, 1.0, -1.0, 0.5, 3.25, -2.0, 1e300, -1e-300, 7.0]


@st.composite
def spaces(draw, min_size=1, max_size=30):
    ids = sorted(draw(st.lists(st.integers(0, 10 ** 6), min_size=min_size,
                               max_size=max_size, unique=True)))
    top = draw(st.sampled_from([1, 50, 10 ** 18]))  # 10**18: past 2**53
    weights = draw(st.lists(st.integers(1, top), min_size=len(ids), max_size=len(ids)))
    total = sum(weights)
    return DiscreteSpace(tuple(ids), tuple(Fraction(w, total) for w in weights))


def _partition(ids, labels) -> SigmaPartition:
    blocks: dict[int, set] = {}
    for a, lab in zip(ids, labels):
        blocks.setdefault(lab, set()).add(a)
    return SigmaPartition(list(blocks.values()))


@st.composite
def partitions(draw, space, most=None):
    """A partition of the space's atoms; few labels make blocks of many atoms."""
    most = draw(st.integers(0, len(space.ids) - 1)) if most is None else most
    labels = draw(st.lists(st.integers(0, most), min_size=len(space.ids),
                           max_size=len(space.ids)))
    return _partition(space.ids, labels)


def coarsening(draw, fine: SigmaPartition) -> SigmaPartition:
    merge = draw(st.lists(st.integers(0, 3), min_size=len(fine.blocks),
                          max_size=len(fine.blocks)))
    blocks: dict[int, frozenset] = {}
    for b, lab in zip(fine.blocks, merge):
        blocks[lab] = blocks.get(lab, frozenset()) | b
    return SigmaPartition(list(blocks.values()))


def rows(draw, n: int, d: int) -> np.ndarray:
    flat = draw(st.lists(st.sampled_from(POOL) | st.floats(-10, 10), min_size=n * d,
                         max_size=n * d))
    return np.array(flat, dtype=float).reshape(n, d)


def _bits(arrays) -> list[bytes]:
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


@SETTINGS
@given(data=st.data())
def test_block_averages_equal_the_per_atom_loop(data):
    space = data.draw(spaces())
    alg = data.draw(partitions(space))
    values = rows(data.draw, len(space.ids), data.draw(st.integers(1, 3)))
    assert _bits(block_averages(space, alg, values)) == \
        _bits(block_averages_loop(space, alg, values))


def test_block_averages_past_2_53_and_in_large_blocks():
    # the quotient path for den >= 2**53 and a 12-atom block of signed zeros
    space = DiscreteSpace(tuple(range(3, 39, 3)),
                          tuple(Fraction(w, 2 ** 60) for w in [2 ** 60 - 11] + [1] * 11))
    assert space.den >= 2 ** 53
    values = np.array([[-0.0], [0.0], [-0.0], [1e-300], [-1e-300], [3.0]] * 2)
    for alg in (SigmaPartition.trivial(space), SigmaPartition([space.ids[:1], space.ids[1:]])):
        assert _bits(block_averages(space, alg, values)) == \
            _bits(block_averages_loop(space, alg, values))


def test_labels_follow_ascending_atoms():
    p = SigmaPartition([{40, 7}, {3}, {12, 90, 5}])
    assert [sorted(b) for b in p.blocks] == [[3], [5, 12, 90], [7, 40]]
    assert p.labels.tolist() == [0, 1, 2, 1, 2, 1]  # atoms 3, 5, 7, 12, 40, 90
    order, sizes = p.layout
    assert order.tolist() == [0, 1, 3, 5, 2, 4] and sizes.tolist() == [1, 3, 2]
    assert not any(a.flags.writeable for a in (p.labels, order, sizes))


@SETTINGS
@given(data=st.data())
def test_refinement_inner_blocks_and_nowhere_equivalence_equal_the_subset_loops(data):
    space = data.draw(spaces(min_size=2))
    fine = data.draw(partitions(space))
    for coarse in (coarsening(data.draw, fine), data.draw(partitions(space))):
        assert is_refinement(fine, coarse) is is_refinement_loop(fine, coarse)
        inner = inner_blocks(fine, coarse)
        if is_refinement_loop(fine, coarse):
            assert [g.tolist() for g in inner] == [
                [j for j, fb in enumerate(fine.blocks) if fb <= cb] for cb in coarse.blocks]
        else:
            assert inner is None
        assert outcome(is_nowhere_equivalent, fine, coarse) == \
            outcome(is_nowhere_equivalent_loop, fine, coarse)


@st.composite
def correspondences(draw, space):
    """A value map in which some atoms repeat another's rows, and rows repeat."""
    d = draw(st.integers(1, 3))
    maps = {}
    for a in space.ids:
        if maps and draw(st.booleans()):
            maps[a] = maps[draw(st.sampled_from(sorted(maps)))]
        else:
            # one (m, d) array, or a list of its rows
            given = rows(draw, draw(st.integers(1, 4)), d)
            maps[a] = given if draw(st.booleans()) else list(given)
    return maps


def _runs(order, starts, rank) -> list[list[int]]:
    """The rows of each run, in the order given, runs taken in ``rank``."""
    bounds = np.append(starts, order.shape[0])
    return [order[bounds[r]:bounds[r + 1]].tolist() for r in rank.tolist()]


@SETTINGS
@given(data=st.data())
def test_merge_rows_equals_the_copysign_sorts(data):
    # d past 8 packs more than one sign byte, past 64 more than one sign key;
    # rows made of a few values repeat, and -0.0 sits beside 0.0
    n = data.draw(st.integers(1, 40))
    d = data.draw(st.sampled_from([1, 2, 3, 7, 8, 9, 16, 63, 64, 65, 70]))
    values = np.array(data.draw(st.lists(st.sampled_from(POOL) | st.floats(-10, 10),
                                         min_size=1, max_size=4)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
    distinct = values[rng.integers(0, len(values), (data.draw(st.integers(1, 6)), d))]
    # and a twin of the first row, equal in value, its zero at j of the other sign
    j = data.draw(st.sampled_from([0, d // 2, d - 1]))  # d - 1 is past 64 where d is
    distinct[0, j] = 0.0
    distinct = np.concatenate((distinct, distinct[:1]))
    distinct[-1, j] = -0.0
    # the first row, its twin, the first row again: bit-equal rows apart
    given = distinct[np.concatenate(([0, -1, 0], rng.integers(0, len(distinct), n)))]
    owner = rng.integers(-3, 4, n + 3)  # unsorted
    owner[:3] = 0
    if data.draw(st.booleans()):
        owner = owner.astype(float)
    assert _runs(*_merge_rows(given, owner)) == _runs(*merge_rows_copysign(given, owner))


@st.composite
def faulty_values(draw, space):
    """A value map, now and then with one fault: an atom missing, an empty
    set, a value that is not finite, or a value of another length."""
    value_map = dict(draw(correspondences(space)))
    fault = draw(st.sampled_from(["none"] * 6 + ["missing", "empty", "nan", "inf", "length"]))
    a = draw(st.sampled_from(space.ids))
    d = np.shape(value_map[a][0])[0]
    if fault == "missing":
        del value_map[a]
    elif fault == "empty":
        value_map[a] = []
    elif fault == "length":
        value_map[a] = [np.zeros(d + 1)]
    elif fault != "none":
        value_map[a] = [np.full(d, np.nan if fault == "nan" else -np.inf)]
    return value_map, fault


def _from_stack(space, value_map):
    """``Correspondence.from_stack`` on the mapping's rows end to end; a
    missing atom gives no rows."""
    sets = [value_map.get(a, []) for a in space.ids]
    counts = [len(vs) for vs in sets]
    return Correspondence.from_stack(space, np.array([v for vs in sets for v in vs]), counts)


@SETTINGS
@given(data=st.data())
def test_correspondence_equals_the_per_set_dict_loop(data):
    space = data.draw(spaces(max_size=12))
    value_map, fault = data.draw(faulty_values(space))
    want = outcome(correspondence_dict, space, value_map)
    # rows of two lengths make no stack
    for build in (Correspondence,) + ((_from_stack,) if fault != "length" else ()):
        got = outcome(build, space, value_map)
        assert got[0] == want[0]
        if got[0] == "raised":
            assert got[1] is want[1] is StructureError
            continue
        corr, (values, stack, size) = got[1], want[1]
        sets = correspondence_loop(space, value_map)
        assert [v.tobytes() for v in corr.values] == [np.array(s).tobytes() for s in sets] \
            == [v.tobytes() for v in values]
        assert corr._stack.tobytes() == stack.tobytes() and not corr._stack.flags.writeable
        assert corr._size.tolist() == size.tolist()


def test_counterexample_sets_are_ragged():
    # gamma > 0: the atomic atom's {0} of one row before sets of k + 1 rows
    bundle = build_counterexample(2, Fraction(1, 4), 1, 3, refinement=3)
    model, space = bundle.model, bundle.model.space
    cell_sets = np.concatenate((np.zeros((model.ncells, 1, bundle.d)), bundle.psi), axis=1)
    value_map = {a: cell_sets[0, :1] if cell_of(model, a) is None
                 else cell_sets[cell_of(model, a)] for a in space.ids}
    values, stack, size = correspondence_dict(space, value_map)
    assert bundle.corr._size.tolist() == size.tolist() == [1] + [3] * 24
    assert bundle.corr._stack.tobytes() == stack.tobytes()
    assert [v.tobytes() for v in bundle.corr.values] == [v.tobytes() for v in values]


@SETTINGS
@given(data=st.data())
def test_block_choice_sets_equal_the_bytes_loop(data):
    space = data.draw(spaces(max_size=16))
    d = data.draw(st.integers(1, 3))
    pool = rows(data.draw, data.draw(st.integers(1, 5)), d)  # few rows, so sets meet
    value_map = {a: pool[data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                                            max_size=4))] for a in space.ids}
    corr = Correspondence(space, value_map)
    alg = data.draw(partitions(space))
    got, want = block_choice_sets(corr, alg), block_choice_sets_loop(corr, alg)
    assert [g.shape for g in got] == [w.shape for w in want]
    assert _bits(got) == _bits(want)
    assert not any(g.flags.writeable for g in got)


@SETTINGS
@given(data=st.data())
def test_from_labels_equals_the_blocks_constructor(data):
    space = data.draw(spaces())
    labels = data.draw(st.lists(st.integers(-2 ** 40, 2 ** 40) | st.integers(0, 3),
                                min_size=len(space.ids), max_size=len(space.ids)))
    got = SigmaPartition.from_labels(space.ids, labels)
    want = _partition(space.ids, labels)
    assert got == want and hash(got) == hash(want) and got.blocks == want.blocks
    # the canonical order, labels and layout, found block by block
    blocks = sorted(want.blocks, key=min)
    assert list(got.blocks) == blocks
    assert got.labels.tolist() == [next(j for j, b in enumerate(blocks) if a in b)
                                   for a in space.ids]
    assert got.layout[0].tolist() == [space.position(a) for b in blocks for a in sorted(b)]
    assert got.layout[1].tolist() == [len(b) for b in blocks]
    assert got.atom_set == want.atom_set == space.atom_set
    for a, b in ((got.labels, want.labels), *zip(got.layout, want.layout)):
        assert a.dtype == b.dtype == np.int64 and a.tobytes() == b.tobytes()
        assert not a.flags.writeable and not b.flags.writeable
    assert got.to_json() == want.to_json()


def test_from_labels_refuses_ids_that_do_not_ascend_and_labels_that_do_not_fit():
    for ids, labels in (([3, 1], [0, 0]), ([1, 1], [0, 1]), ([1, 2], [0]),
                        ([1, 2], [0.0, 1.0]), ([2 ** 63, 2 ** 64], [0, 0])):
        with pytest.raises(StructureError):
            SigmaPartition.from_labels(ids, labels)


@SETTINGS
@given(data=st.data())
def test_selection_index_equals_the_tuple_lookup(data):
    space = data.draw(spaces(max_size=12))
    corr = Correspondence(space, data.draw(correspondences(space)))
    alg = data.draw(partitions(space))
    choice = {}
    for a, vset in zip(space.ids, corr.values):
        row = vset[data.draw(st.integers(0, len(vset) - 1))]
        # a value-equal row with other zero signs, or a row off the set
        choice[a] = data.draw(st.sampled_from([row, row + 0.0, -(-row), row + 0.25]))
    got = outcome(lambda: Selection(corr, alg, choice).index)
    assert got == outcome(selection_index_loop, space, corr.values, alg, choice)


@SETTINGS
@given(data=st.data())
def test_lyapunov_mix_equals_the_subset_loop(data):
    space = data.draw(spaces(min_size=2, max_size=16))
    t_alg = data.draw(partitions(space))
    f_alg = coarsening(data.draw, t_alg)
    k = data.draw(st.integers(2, 3))
    basis = list(np.eye(k))
    corr = Correspondence(space, {a: basis for a in space.ids})
    sels = []
    for _ in range(k):
        plays = {b: data.draw(st.integers(0, k - 1)) for b in f_alg.blocks}
        sels.append(Selection(corr, f_alg, {a: basis[j] for b, j in plays.items() for a in b}))
    weights = data.draw(st.sampled_from([[Fraction(1, k)] * k,
                                        [Fraction(1, 2)] + [Fraction(1, 2 * (k - 1))] * (k - 1),
                                        [Fraction(1)] + [Fraction(0)] * (k - 1)]))
    got = outcome(lambda: lyapunov_mix(sels, weights, f_alg, t_alg).choice.tobytes())
    want = outcome(lambda: np.array(
        [lyapunov_mix_loop(sels, weights, f_alg, t_alg)[a] for a in space.ids]).tobytes())
    assert got == want
    assert got[0] == "ok" or got[1] is DivisibilityError


_E = Fraction(1, 1 << 52)
# name: (atom masses, f-blocks, t-blocks, the basis vector each selection
# plays on each f-block, weights, the basis vector each atom's mix plays)
MIX_CASES = {
    "eight-uniform-atoms-two-equal-weights": (
        [Fraction(1, 8)] * 8, [range(8)], [[a] for a in range(8)], [[0], [1]],
        [Fraction(1, 2)] * 2, ("ok", [0, 0, 0, 0, 1, 1, 1, 1])),
    "zero-weight-between": (
        [Fraction(1, 4)] * 4, [range(4)], [[a] for a in range(4)], [[0], [1], [2]],
        [Fraction(1, 2), 0, Fraction(1, 2)], ("ok", [0, 0, 2, 2])),
    "zero-weight-first": (
        [Fraction(1, 4)] * 4, [range(4)], [[a] for a in range(4)], [[0], [1], [2]],
        [0, Fraction(1, 2), Fraction(1, 2)], ("ok", [1, 1, 2, 2])),
    # {0, 1} is one t-block, which no split could halve, but both play e_0 there
    "agreed-block-beside-a-split-one": (
        [Fraction(1, 4)] * 4, [[0, 1], [2, 3]], [[0, 1], [2], [3]], [[0, 0], [0, 1]],
        [Fraction(1, 2)] * 2, ("ok", [0, 0, 0, 1])),
    # atom 1 spans [1/4, 3/4) of the block, across the boundary at 1/2
    "straddling-block-raises": (
        [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)], [range(3)], [[0], [1], [2]],
        [[0], [1]], [Fraction(1, 2)] * 2, ("raised", DivisibilityError)),
    # space.den = 2**52, so spans and boundaries are Python ints
    "past-2**53": (
        [Fraction(1, 8) - _E, Fraction(1, 8) + _E, Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)],
        [[0, 1, 2], [3, 4]], [[a] for a in range(5)], [[0, 0], [1, 1]],
        [Fraction(1, 2)] * 2, ("ok", [0, 0, 1, 0, 1])),
}


@pytest.mark.parametrize("case", sorted(MIX_CASES))
def test_lyapunov_mix_cases_equal_the_subset_loop(case):
    masses, f_blocks, t_blocks, values, weights, want = MIX_CASES[case]
    space = DiscreteSpace.from_masses(masses)
    f_alg, t_alg = SigmaPartition(f_blocks), SigmaPartition(t_blocks)
    basis = list(np.eye(len(values)))
    corr = Correspondence(space, {a: basis for a in space.ids})
    sels = [Selection(corr, f_alg, {a: basis[j] for b, j in zip(f_alg.blocks, row) for a in b})
            for row in values]
    assert (2 * space.den >= 1 << 53) == (case == "past-2**53")
    got = outcome(lambda: lyapunov_mix(sels, weights, f_alg, t_alg).choice.argmax(axis=1).tolist())
    loop = outcome(lambda: [int(lyapunov_mix_loop(sels, weights, f_alg, t_alg)[a].argmax())
                            for a in space.ids])
    assert got == loop == want


def test_lyapunov_mix_plays_selection_0_where_the_selections_agree():
    # -0.0 and 0.0 agree as values, so the block is not split and keeps
    # selection 0's bits, though atom 1's span lies in selection 1's part
    space = DiscreteSpace.uniform(2)
    corr = Correspondence(space, {a: [np.zeros(1)] for a in space.ids})
    trivial, singles = SigmaPartition.trivial(space), SigmaPartition.singletons(space)
    sels = [Selection.from_rows(corr, trivial, np.full((2, 1), z)) for z in (-0.0, 0.0)]
    mix = lyapunov_mix(sels, [Fraction(1, 2)] * 2, trivial, singles)
    loop = lyapunov_mix_loop(sels, [Fraction(1, 2)] * 2, trivial, singles)
    assert mix.choice.tobytes() == sels[0].choice.tobytes() == np.array([loop[0], loop[1]]).tobytes()


@SETTINGS
@given(data=st.data())
def test_conditional_set_equals_the_subset_loop(data):
    space = data.draw(spaces(min_size=2, max_size=8))
    t_alg = data.draw(partitions(space))
    g_alg = coarsening(data.draw, t_alg)
    d = data.draw(st.integers(1, 2))
    pool = st.sampled_from([v for v in POOL if abs(v) < 1e3])

    def draw_rows(n):
        return list(np.array(data.draw(st.lists(pool, min_size=n * d, max_size=n * d))
                             ).reshape(n, d))

    shared = draw_rows(data.draw(st.integers(1, 2)))  # every block admits these
    corr = Correspondence(space, {a: shared + draw_rows(data.draw(st.integers(0, 1)))
                                  for a in space.ids})
    got = outcome(lambda: _bits(conditional_set(corr, t_alg, g_alg).block_sets))
    want = outcome(lambda: _bits(conditional_set_loop(corr, t_alg, g_alg, 2_000_000)))
    assert got == want


@SETTINGS
@given(data=st.data())
def test_barycenters_equal_the_point_loop(data):
    space = data.draw(spaces(max_size=16))
    d = data.draw(st.integers(1, 3))
    pool = rows(data.draw, 3, d)
    picks = data.draw(st.lists(st.integers(0, 2), min_size=len(space.ids),
                               max_size=len(space.ids)))
    choice = {a: pool[j] for a, j in zip(space.ids, picks)}
    corr = Correspondence(space, {a: list(pool) for a in space.ids})
    sel = Selection(corr, SigmaPartition.singletons(space), choice)
    kern = rcd_of_selection(sel, data.draw(partitions(space)))
    assert _bits(kern.barycenters()) == _bits(barycenters_loop(kern))


@pytest.mark.parametrize("d", [1, 3])
def test_block_averages_padding_stays_linear(d):
    # one block of half the atoms and the rest singletons: a padded array
    # of (blocks x largest block) would need 50,001 x 50,001 x d floats
    n = 100_000
    space = DiscreteSpace.uniform(n)
    alg = SigmaPartition([range(n // 2)] + [{a} for a in range(n // 2, n)])
    values = np.random.default_rng(5).normal(size=(n, d))
    alg.layout  # built once per partition, before the measured call
    tracemalloc.start()
    try:
        out = block_averages(space, alg, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the list of 50,001 row views dominates: about 9 MB at d = 1
    assert peak < n * (128 + 32 * d)
    assert np.array_equal(out[0], block_averages_loop(space, SigmaPartition(
        [range(n // 2)]), values[: n // 2])[0])
    assert np.array_equal(np.array(out[1:]), values[n // 2:])


DENOMINATORS = [1, 6, 360, 2 ** 53 + 1, 3 * 2 ** 53, 2 ** 62 + 3, 2 ** 63 + 5, 2 ** 70 + 1]


@st.composite
def block_weights(draw, n: int, faults: bool) -> list[Fraction]:
    """n weights over one drawn denominator, summing to 1, some zero; with
    ``faults``, now and then one is off by 1/den, so the sum is not 1."""
    den = draw(st.sampled_from(DENOMINATORS))
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=n - 1, max_size=n - 1)))
    parts = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, den])]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        j = 0 if i == n - 1 else n - 1  # weight i moves to an end entry
        if i != j:
            parts[j] += parts[i]
            parts[i] = 0
    if faults and draw(st.integers(0, 19)) == 0:
        parts[draw(st.integers(0, n - 1))] += 1
    return [Fraction(part, den) for part in parts]


@st.composite
def kernel_entries(draw, g_alg, d: int, faults: bool = True, most: int = 48) -> list[list]:
    per_block = []
    for _ in g_alg.blocks:
        n = draw(st.integers(1, most))
        pool = rows(draw, draw(st.integers(1, 4)), d)  # few points, so they repeat
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        per_block.append(list(zip((pool[j] for j in picks), draw(block_weights(n, faults)))))
    return per_block


def _kernel_bits(kern) -> tuple:
    return ([s.tobytes() for s in kern.supports], kern.weights,
            _bits(kern.barycenters()), _bits(barycenters_loop(kern)))


def _same(kern, want) -> bool:
    supports, weights = want
    return (len(kern.supports) == len(supports)
            and all(same_rows(s, t) for s, t in zip(kern.supports, supports))
            and kern.weights == weights
            and all(type(w) is Fraction for ws in kern.weights for w in ws)
            and _bits(kern.barycenters()) == _bits(barycenters_loop(kern)))


@SETTINGS
@given(data=st.data())
def test_kernel_core_equals_the_entry_loop(data):
    space = data.draw(spaces(max_size=8))
    g_alg = data.draw(partitions(space))
    per_block = data.draw(kernel_entries(g_alg, data.draw(st.integers(1, 3))))
    got = outcome(TransitionKernel, g_alg, per_block)
    want = outcome(transition_kernel_loop, g_alg, per_block)
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got[1] is want[1] is StructureError
        return
    kern = got[1]
    assert _same(kern, want[1])
    assert all(not s.flags.writeable for s in kern.supports)
    rebuilt = TransitionKernel(g_alg, [list(zip(*sw)) for sw in zip(*want[1])])
    assert kern.equals_exactly(rebuilt) and rebuilt.equals_exactly(kern)


@SETTINGS
@given(data=st.data())
def test_kernel_mix_equals_the_product_loop(data):
    space = data.draw(spaces(max_size=6))
    g_alg = data.draw(partitions(space))
    d = data.draw(st.integers(1, 2))
    k1, k2 = (TransitionKernel(g_alg, data.draw(kernel_entries(g_alg, d, False, 12)))
              for _ in range(2))
    q = data.draw(st.sampled_from([1, 2, 3, 64, 2 ** 61 + 1, 2 ** 64 + 1]))
    alpha = Fraction(data.draw(st.integers(0, q)), q)
    mixed = kernel_mix(k1, k2, alpha)
    assert _same(mixed, transition_kernel_loop(g_alg, kernel_mix_loop(k1, k2, alpha)))
    # equal as distributions exactly when their supports and weights agree
    for a, b in ((mixed, k1), (mixed, k2), (k1, k2), (mixed, kernel_mix(k2, k1, 1 - alpha))):
        same = _kernel_bits(a)[:2] == _kernel_bits(b)[:2]
        assert a.equals_exactly(b) == b.equals_exactly(a) == same


@SETTINGS
@given(data=st.data())
def test_rcd_of_selection_equals_the_atom_loop(data):
    # masses near a drawn top share little, so block denominators pass
    # 2**53 and 2**63 with it
    n = data.draw(st.integers(1, 24))
    top = data.draw(st.sampled_from([50, 2 ** 60, 2 ** 70]))
    weights = [top - k for k in data.draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))]
    space = DiscreteSpace(tuple(range(0, 3 * n, 3)),
                          tuple(Fraction(w, sum(weights)) for w in weights))
    d = data.draw(st.integers(1, 3))
    pool = rows(data.draw, 3, d)
    picks = data.draw(st.lists(st.integers(0, 2), min_size=len(space.ids),
                               max_size=len(space.ids)))
    corr = Correspondence(space, {a: pool for a in space.ids})
    sel = Selection(corr, SigmaPartition.singletons(space),
                    {a: pool[j] for a, j in zip(space.ids, picks)})
    g_alg = data.draw(partitions(space))
    assert _same(rcd_of_selection(sel, g_alg), transition_kernel_loop(g_alg, rcd_loop(sel, g_alg)))


@SETTINGS
@given(data=st.data())
def test_space_numerators_equal_the_per_atom_loop(data):
    n = data.draw(st.integers(1, 30))
    top = data.draw(st.sampled_from([1, 50, 10 ** 18, 10 ** 30]))  # past 2**53 and 2**63
    weights = data.draw(st.lists(st.integers(1, top), min_size=n, max_size=n))
    total = sum(weights)
    masses = [Fraction(w, total) for w in weights]
    fault = data.draw(st.sampled_from(["none", "zero", "negative", "sum"]))
    if fault != "none":
        i = data.draw(st.integers(0, n - 1))
        masses[i] = {"zero": Fraction(0), "negative": -masses[i],
                     "sum": masses[i] + Fraction(1, 3)}[fault]
    got = outcome(lambda: DiscreteSpace(tuple(range(n)), tuple(masses)))
    want = outcome(space_numerators_loop, masses)
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got[1] is want[1] is StructureError
        return
    space = got[1]
    den, nums = want[1]
    assert space.den == den and tuple(space._nums.tolist()) == nums
    assert space._nums.dtype == (np.int64 if den < 2 ** 53 else object)
