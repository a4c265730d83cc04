import math
from fractions import Fraction

import numpy as np
import pytest

from _oracles import (
    block_choice_sets as oracle_block_choice_sets,
    check_measurable as oracle_check_measurable,
    constant_on,
    correspondence_values,
    dyadic_convexify,
    enumerate_selections,
    integrals_loop,
    outcome,
    psi_loop,
    same_rows,
    selection_choice,
)
from corrint.correspondences import (
    Correspondence,
    Selection,
    block_choice_sets,
    build_counterexample,
)
from corrint.errors import (
    CapacityError,
    PreconditionError,
    StructureError,
)
from corrint.spaces import DiscreteSpace, SigmaPartition
from corrint.vectors import basis_vector, norm, zero_vector


@pytest.fixture
def simple_corr():
    space = DiscreteSpace.uniform(4)
    v = basis_vector(0, 2)
    w = basis_vector(1, 2)
    vmap = {a: [zero_vector(2), v, w] for a in space.ids}
    return Correspondence(space, vmap)


def test_constructor_invariants():
    space = DiscreteSpace.uniform(2)
    with pytest.raises(StructureError):
        Correspondence(space, {0: [], 1: [zero_vector(2)]})
    with pytest.raises(StructureError):
        Correspondence(space, {0: [np.array([np.inf, 0.0])], 1: [zero_vector(2)]})
    with pytest.raises(StructureError):
        Correspondence(space, {0: [zero_vector(2)]})  # missing atom 1


def test_selection_contract(simple_corr):
    space = simple_corr.space
    singles = SigmaPartition.singletons(space)
    v = basis_vector(0, 2)
    sel = Selection(simple_corr, singles, {a: v for a in space.ids})
    assert np.array_equal(sel.at(2), v)
    with pytest.raises(StructureError):
        Selection(simple_corr, singles, {a: 2.0 * v for a in space.ids})
    blocks = SigmaPartition([{0, 1}, {2, 3}])
    cmap = {0: v, 1: basis_vector(1, 2), 2: v, 3: v}
    with pytest.raises(StructureError):
        Selection(simple_corr, blocks, cmap)  # not block constant


def _selection_count(corr, alg):
    return math.prod(len(cs) for cs in block_choice_sets(corr, alg))


def test_enumeration_counts_and_order(simple_corr):
    blocks = SigmaPartition([{0, 1}, {2, 3}])
    assert _selection_count(simple_corr, blocks) == 9
    sels = list(enumerate_selections(simple_corr, blocks, cap=100))
    assert len(sels) == 9
    # lexicographic: first selection plays the canonically smallest value
    first = sels[0]
    assert np.array_equal(first.at(0), zero_vector(2))
    # distinctness
    keys = {tuple(np.concatenate(s.choice)) for s in sels}
    assert len(keys) == 9
    with pytest.raises(CapacityError) as exc:
        list(enumerate_selections(simple_corr, blocks, cap=8))
    assert exc.value.count == 9


def test_enumeration_singleton_values():
    space = DiscreteSpace.uniform(3)
    vmap = {a: [basis_vector(0, 2)] for a in space.ids}
    corr = Correspondence(space, vmap)
    sels = list(enumerate_selections(corr, SigmaPartition.trivial(space), cap=10))
    assert len(sels) == 1


def test_enumeration_empty_intersection():
    space = DiscreteSpace.uniform(2)
    vmap = {0: [basis_vector(0, 2)], 1: [basis_vector(1, 2)]}
    corr = Correspondence(space, vmap)
    assert not len(block_choice_sets(corr, SigmaPartition.trivial(space))[0])
    assert list(enumerate_selections(corr, SigmaPartition.trivial(space), cap=10)) == []


def test_counterexample_count_matches_product(simple_corr):
    b = build_counterexample(2, 0, 2, 3)
    singles = SigmaPartition.singletons(b.model.space)
    assert _selection_count(b.corr, singles) == 3 ** 8


def test_enumeration_count_cross_check_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        natoms = int(rng.integers(2, 6))
        space = DiscreteSpace.uniform(natoms)
        vmap = {
            a: [rng.normal(size=2) for _ in range(int(rng.integers(1, 4)))]
            for a in space.ids
        }
        corr = Correspondence(space, vmap)
        singles = SigmaPartition.singletons(space)
        want = _selection_count(corr, singles)
        got = len(list(enumerate_selections(corr, singles, cap=10_000)))
        assert got == want


def test_bundle_examples():
    b = build_counterexample(2, Fraction(1, 4), 2, 5)
    assert abs(norm(b.e_list[0], "euclid") - 0.75) <= 1e-12
    for j in (1, 2):
        expect = 0.75 * basis_vector(j - 1, b.d)
        assert np.max(np.abs(b.e_list[j - 1] - expect)) <= 1e-12
    # correspondence is cell-measurable by construction
    assert oracle_check_measurable(b.model.space, b.corr.values, b.f_alg)
    # vanishes on the atomic part: the atomic atom carries only the zero vector
    assert b.model.atomic_atom == 0 and len(b.corr.values[0]) == 1
    assert not np.any(b.corr.values[0])


def test_bundle_degenerate_base_case():
    b = build_counterexample(1, 0, 0, 0)
    assert b.d == 1
    vals = b.corr.values[0]
    got = sorted(float(v[0]) for v in vals)
    assert got == [0.0, 1.0]
    assert np.array_equal(b.e_list[0], basis_vector(0, 1))


@pytest.mark.parametrize("gamma", [Fraction(0), Fraction(1, 4)])
@pytest.mark.parametrize("k, N, L, d", [(1, 0, 0, None), (2, 2, 3, None), (3, 1, 2, 9)])
def test_bundle_integrals_equal_the_walsh_integral_loop(gamma, k, N, L, d):
    b = build_counterexample(k, gamma, N, L, d=d)
    assert b.e_list.tobytes() == integrals_loop(k, gamma, N, L, b.d).tobytes()


def test_bundle_dimension_validation():
    with pytest.raises(PreconditionError):
        build_counterexample(2, 0, 2, 3, d=5)  # needs k(N+1) = 6
    with pytest.raises(PreconditionError):
        build_counterexample(2, 0, 4, 2)  # level 2 cannot resolve index 4


@pytest.mark.parametrize("gamma", [Fraction(0), Fraction(1, 4)])
@pytest.mark.parametrize("k, N, L, d", [(1, 1, 2, None), (2, 2, 3, None), (3, 1, 2, None),
                                        (2, 1, 2, 9)])
def test_bundle_psi_equals_the_basis_vector_loop(gamma, k, N, L, d):
    # bit for bit, signed zeros included; d = 9 > k(N+1) leaves padding
    # coordinates, as uhc-decay's d = limit.d does
    b = build_counterexample(k, gamma, N, L, d=d)
    want = psi_loop(k, N, L, d)
    assert b.psi.shape == want.shape == (1 << L, k, b.d)
    assert b.psi.tobytes() == want.tobytes()
    assert not b.psi.flags.writeable


def test_psi_matches_bundle_and_integrals():
    # each map's integral, its cell rows times the cell mass, is its e_j
    k, N, L = 2, 2, 4
    gamma = Fraction(1, 2)
    b = build_counterexample(k, gamma, N, L)
    integrals = b.psi.sum(axis=0) * float((1 - gamma) / (1 << L))
    assert np.max(np.abs(integrals - b.e_list)) <= 1e-12


def test_dyadic_convexify_counts():
    space = DiscreteSpace.uniform(1)
    v = basis_vector(0, 2)
    corr = Correspondence(space, {0: [zero_vector(2), v]})
    conv2 = dyadic_convexify(corr, 2)
    assert len(conv2.values[0]) == 3  # 0, v/2, v
    conv4 = dyadic_convexify(corr, 4)
    assert len(conv4.values[0]) == 5


def test_correspondence_json(simple_corr):
    doc = simple_corr.to_json()
    assert set(doc.keys()) == {"0", "1", "2", "3"}
    assert doc["0"][0] == [0.0, 0.0]


# few coordinates, so that value sets repeat rows and hold -0.0 beside 0.0
_COORDS = np.array([0.0, -0.0, 1.0, -1.0, 0.5])


def _random_vector(rng, d, special=0.0):
    v = rng.choice(_COORDS, size=d)
    if rng.random() < special:
        v[rng.integers(d)] = rng.choice([np.nan, np.inf, -np.inf])
    return v if rng.random() < 0.8 else v.tolist()


def _random_partition(rng, ids):
    labels = rng.integers(0, len(ids), len(ids))
    groups: dict[int, set] = {}
    for a, lab in zip(ids, labels):
        groups.setdefault(int(lab), set()).add(a)
    return SigmaPartition(list(groups.values()))


def _random_value_map(rng, space, d):
    vmap = {}
    for a in space.ids:
        draw = rng.random()
        if draw < 0.03:
            continue  # a missing atom
        size = 0 if draw < 0.06 else int(rng.integers(1, 6))
        vmap[a] = [_random_vector(rng, d, special=0.03) for _ in range(size)]
    return vmap


def _random_instances(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        space = DiscreteSpace.uniform(int(rng.integers(1, 7)))
        d = int(rng.integers(1, 4))
        yield rng, space, d, _random_value_map(rng, space, d)


def test_correspondence_matches_the_per_vector_oracle():
    built = 0
    for rng, space, d, vmap in _random_instances(3, 400):
        got = outcome(Correspondence, space, vmap)
        want = outcome(correspondence_values, space, vmap)
        assert got[0] == want[0]
        if got[0] == "raised":
            assert got[1] is want[1] is StructureError
            continue
        built += 1
        corr, old = got[1], want[1]
        assert len(corr.values) == len(old)
        for vs, tup in zip(corr.values, old):
            assert vs.shape == (len(tup), d) and not vs.flags.writeable
            assert same_rows(vs, tup)
        for _ in range(3):
            alg = _random_partition(rng, space.ids)
            for cs, tup in zip(block_choice_sets(corr, alg),
                               oracle_block_choice_sets(space, old, alg)):
                assert cs.shape == (len(tup), d) and same_rows(cs, tup)
    assert built > 200


def _random_choice(rng, vset, d):
    """A member row, a member with its zeros' signs flipped, or an arbitrary vector."""
    draw = rng.random()
    v = vset[int(rng.integers(len(vset)))]
    if draw < 0.5:
        return v
    if draw < 0.7:
        return np.where(v == 0, -np.copysign(0.0, v), v)
    if draw < 0.75:
        return np.zeros(d + 1)  # another length
    return _random_vector(rng, d, special=0.2)


def test_selection_matches_the_per_vector_oracle():
    checked = built = 0
    for rng, space, d, vmap in _random_instances(4, 400):
        state, corr = outcome(Correspondence, space, vmap)
        if state == "raised":
            continue
        old = correspondence_values(space, vmap)
        for _ in range(4):
            alg = _random_partition(rng, space.ids)
            cmap = {}
            for b in alg.blocks:
                shared = _random_choice(rng, old[space.position(min(b))], d)
                for a in b:
                    pick = rng.random()
                    if pick < 0.1:
                        continue  # no choice at this atom
                    cmap[a] = shared if pick < 0.8 else \
                        _random_choice(rng, old[space.position(a)], d)
            got = outcome(Selection, corr, alg, cmap)
            want = outcome(selection_choice, space, old, alg, cmap)
            assert got[0] == want[0]
            checked += 1
            if got[0] == "raised":
                assert got[1] is want[1] is StructureError
                continue
            built += 1
            sel, choices = got[1], want[1]
            assert sel.choice.shape == (len(space.ids), d) and not sel.choice.flags.writeable
            assert same_rows(sel.choice, choices)
            for i, j in enumerate(sel.index):
                assert np.array_equal(corr.values[i][j], sel.choice[i])
            other = _random_partition(rng, space.ids)
            choice_of = dict(zip(space.ids, choices))
            assert sel.is_measurable_against(other) == all(
                constant_on(choice_of, b) for b in other.blocks)
    assert checked > 900 and built > 150


def test_signed_zeros_are_two_values_and_equal_choices():
    space = DiscreteSpace.uniform(2)
    pz, nz = np.array([0.0, 1.0]), np.array([-0.0, 1.0])
    corr = Correspondence(space, {0: [pz, nz, pz], 1: [nz]})
    assert len(corr.values[0]) == 2 and np.signbit(corr.values[0][1, 0])
    sel = Selection(corr, SigmaPartition.singletons(space), {0: nz, 1: pz})
    assert np.signbit(sel.choice[0, 0]) and not np.signbit(sel.choice[1, 0])
    assert sel.index == (0, 0)
    # equal in value, not in bits: not constant on a block
    with pytest.raises(StructureError):
        Selection(corr, SigmaPartition.trivial(space), {0: nz, 1: pz})
    nan = np.array([np.nan, 1.0])
    with pytest.raises(StructureError):
        Selection(corr, SigmaPartition.singletons(space), {0: nan, 1: pz})


def test_correspondence_refuses_values_that_are_not_vectors():
    space = DiscreteSpace.uniform(2)
    with pytest.raises(StructureError):
        Correspondence(space, {0: [np.zeros((2, 2))], 1: [np.zeros((2, 2))]})
    with pytest.raises(StructureError):
        Correspondence(space, {0: [np.zeros(2)], 1: [np.zeros((2, 2))]})
    with pytest.raises(StructureError):
        Correspondence(space, {0: [np.zeros(2)], 1: [np.zeros(3)]})
    with pytest.raises(StructureError):
        Correspondence(space, {0: [1.0], 1: [2.0]})


def test_constructors_leave_the_callers_arrays_writeable():
    space = DiscreteSpace.uniform(2)
    given = [np.array([1.0, 2.0]), np.array([0.0, 0.0])]
    corr = Correspondence(space, {a: given for a in space.ids})
    choice = np.array([1.0, 2.0])
    Selection(corr, SigmaPartition.trivial(space), {a: choice for a in space.ids})
    assert all(v.flags.writeable for v in given + [choice])
