import math
from fractions import Fraction

import numpy as np
import pytest

from _oracles import cell_atoms, model_phi
from corrint.errors import (
    DivisibilityError,
    PreconditionError,
    StructureError,
)
from corrint.correspondences import Correspondence, Selection
from corrint.set_integration import lyapunov_mix
from corrint.spaces import (
    DiscreteSpace,
    DyadicModel,
    SigmaPartition,
    block_averages,
    is_nowhere_equivalent,
    is_refinement,
)


@pytest.fixture
def uniform4():
    return DiscreteSpace.uniform(4)


def _mix_parts(space, f_alg, n, t_alg=None):
    """The parts of a ``lyapunov_mix`` of n constant selections with equal
    weights, t_alg the singletons unless given: part j is where the mix
    plays selection j's value, the j-th basis vector."""
    t_alg = t_alg or SigmaPartition.singletons(space)
    basis = np.eye(n)
    corr = Correspondence(space, {a: list(basis) for a in space.ids})
    sels = [Selection(corr, f_alg, {a: e for a in space.ids}) for e in basis]
    mix = lyapunov_mix(sels, [Fraction(1, n)] * n, f_alg, t_alg)
    return [frozenset(a for a in space.ids if mix.at(a)[j] == 1) for j in range(n)]


def _independent(space, s, d) -> bool:
    """Exact independence of two events: mass(s & d) = mass(s) mass(d)."""
    return space.mass(set(s) & set(d)) == space.mass(s) * space.mass(d)


def test_space_invariants():
    with pytest.raises(StructureError):
        DiscreteSpace.from_masses([Fraction(1, 2), Fraction(1, 3)])  # sum != 1
    with pytest.raises(StructureError):
        DiscreteSpace.from_masses([Fraction(1), Fraction(0)])  # zero mass
    with pytest.raises(StructureError):
        DiscreteSpace.from_masses([0.5, 0.5])  # floats rejected


def test_atom_lookups_follow_ids(uniform4):
    # ids need not be contiguous, so id and position differ
    sub = DiscreteSpace((1, 3), (Fraction(1, 2), Fraction(1, 2)))
    assert sub.position(3) == 1
    assert sub.mass_of(3) == Fraction(1, 2)
    assert sub.mass([1, 3, 3]) == 1
    for lookup in (lambda: sub.position(0), lambda: sub.mass_of(2),
                   lambda: sub.mass([1, 4])):
        with pytest.raises(StructureError):
            lookup()


def test_partition_canonical_order_and_overlap():
    p = SigmaPartition([{2, 3}, {0, 1}])
    assert [sorted(b) for b in p.blocks] == [[0, 1], [2, 3]]
    with pytest.raises(StructureError):
        SigmaPartition([{0, 1}, {1, 2}])


def test_partition_atom_set_is_the_union_and_not_compared():
    p = SigmaPartition([{2, 3}, {0, 1}, {5}])
    assert p.atom_set == frozenset({0, 1, 2, 3, 5})
    assert p.atom_set is p.atom_set  # built once, in the constructor
    q = SigmaPartition([frozenset({5}), [0, 1], (3, 2)])
    assert p == q and hash(p) == hash(q)
    assert repr(p) == repr(q) and "_atom_set" not in repr(p)


def test_is_refinement_examples(uniform4):
    singles = SigmaPartition.singletons(uniform4)
    trivial = SigmaPartition.trivial(uniform4)
    assert is_refinement(singles, trivial)
    assert is_refinement(singles, singles)
    a = SigmaPartition([{0, 1}, {2, 3}])
    b = SigmaPartition([{0, 2}, {1, 3}])
    assert not is_refinement(a, b)
    with pytest.raises(StructureError):
        is_refinement(a, SigmaPartition([{0, 1}, {2, 3}, {4}]))


def test_nowhere_equivalence_examples():
    two = DiscreteSpace.uniform(2)
    assert is_nowhere_equivalent(
        SigmaPartition.singletons(two), SigmaPartition.trivial(two)
    )
    four = DiscreteSpace.uniform(4)
    f = SigmaPartition([{0, 1}, {2, 3}])
    assert not is_nowhere_equivalent(f, f)
    three = DiscreteSpace.uniform(3)
    f3 = SigmaPartition([{0, 1}, {2}])
    assert not is_nowhere_equivalent(SigmaPartition.singletons(three), f3)
    with pytest.raises(PreconditionError):
        is_nowhere_equivalent(f, SigmaPartition([{0, 2}, {1, 3}]))


def test_nowhere_equivalence_monotone_under_refinement():
    space = DiscreteSpace.uniform(8)
    f = SigmaPartition([{0, 1, 2, 3}, {4, 5, 6, 7}])
    mid = SigmaPartition([{0, 1}, {2, 3}, {4, 5}, {6, 7}])
    fine = SigmaPartition.singletons(space)
    assert is_nowhere_equivalent(mid, f)
    assert is_nowhere_equivalent(fine, f)  # refining mid further keeps it true


def test_supplement_examples(uniform4):
    trivial = SigmaPartition.trivial(uniform4)
    assert [sorted(p) for p in _mix_parts(uniform4, trivial, 2)] == [[0, 1], [2, 3]]
    f = SigmaPartition([{0, 1}, {2, 3}])
    parts = _mix_parts(uniform4, f, 2)
    assert [sorted(p) for p in parts] == [[0, 2], [1, 3]]
    for part in parts:
        assert uniform4.mass(part) == Fraction(1, 2)
        for b in f.blocks:
            assert uniform4.mass(part & b) == uniform4.mass(b) / 2
    three = DiscreteSpace.uniform(3)
    with pytest.raises(DivisibilityError):
        _mix_parts(three, SigmaPartition.trivial(three), 2)


def test_supplement_independence_is_exact():
    # strictly increasing n over a space fine enough for each
    space = DiscreteSpace.uniform(24)
    f = SigmaPartition([set(range(i, i + 6)) for i in range(0, 24, 6)])
    for n in (2, 3, 6):
        for part in _mix_parts(space, f, n):
            for b in f.blocks:
                assert _independent(space, part, b)


def test_supplement_nonuniform_masses():
    space = DiscreteSpace.from_masses(
        [Fraction(1, 4), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8),
         Fraction(1, 8), Fraction(1, 8)]
    )
    f = SigmaPartition([{0, 2, 3}, {1, 4, 5}])  # each block mass 1/2
    for part in _mix_parts(space, f, 2):
        assert space.mass(part) == Fraction(1, 2)
        for b in f.blocks:
            assert space.mass(part & b) == Fraction(1, 4)


def test_nowhere_equivalence_implies_supplement():
    # divisible uniform blocks: the constructive equivalent must succeed
    space = DiscreteSpace.uniform(12)
    f = SigmaPartition([set(range(0, 6)), set(range(6, 12))])
    t = SigmaPartition.singletons(space)
    assert is_nowhere_equivalent(t, f)
    for n in (2, 3, 6):
        parts = _mix_parts(space, f, n, t)
        assert all(space.mass(p) == Fraction(1, n) for p in parts)


def test_dyadic_model_layout():
    m = DyadicModel(Fraction(1, 4), 2, refinement=2)
    assert m.space.mass_of(0) == Fraction(1, 4)
    assert m.atomic_atom == 0
    assert len(m.space.ids) == 9  # the atomic atom and 8 interval atoms
    assert model_phi(m, 0) == Fraction(1, 8)
    assert cell_atoms(m, 0) == (1, 2) and cell_atoms(m, 3) == (7, 8)
    # interval atoms evenly tile (gamma, 1]
    assert model_phi(m, 1) == Fraction(1, 4) + Fraction(3, 4) * Fraction(1, 16)
    assert m.cells.tolist() == [4, 0, 0, 1, 1, 2, 2, 3, 3] and not m.cells.flags.writeable
    blocks = m.cell_partition.blocks
    assert len(blocks) == 5
    m0 = DyadicModel(Fraction(0), 3)
    assert m0.atomic_atom is None
    assert len(m0.space.ids) == 8


def test_dyadic_model_walsh_blocks():
    m = DyadicModel(Fraction(0), 3, refinement=2)
    d1 = m.walsh_block(1)
    assert m.space.mass(d1) == Fraction(1, 2)
    # independence of the equal-mass split against every Walsh block
    parts = _mix_parts(m.space, m.cell_partition, 2)
    for n in range(1, 8):
        dn = m.walsh_block(n)
        for p in parts:
            assert _independent(m.space, p, dn)


# -- oracle for block_averages: the conditional-average loops it replaced -----

def _block_averages_fraction_loop(space, alg, values):
    """E(f|alg) as conditional_expectation, the conditional aggregate and
    the tower check each wrote it: Fraction block masses summed per call,
    and float(mass(t) / mass(B)) * row added atom by atom in id order."""
    out = []
    for b in alg.blocks:
        bmass = sum((space.mass_of(a) for a in b), Fraction(0))
        acc = np.zeros(len(values[0]))
        for a in sorted(b):
            acc += float(space.mass_of(a) / bmass) * values[space.position(a)]
        out.append(acc)
    return out


def _integral_fraction_loop(space, values):
    """The integral as integrate_selection and the integral aggregate wrote
    it: float(mass) * row, atoms in id order."""
    total = np.zeros(len(values[0]))
    for m, v in zip(space.masses, values):
        total += float(m) * v
    return total


def _hex(rows):
    return [[float(x).hex() for x in row] for row in rows]


def _random_masses(rng, n, max_weight):
    weights = [int(w) for w in rng.integers(1, max_weight + 1, n)]
    return [Fraction(w, sum(weights)) for w in weights]


def _random_partition(rng, atoms):
    """Random partition of the atoms into 1..len(atoms) non-empty blocks."""
    atoms = list(atoms)
    m = int(rng.integers(1, len(atoms) + 1))
    assign = rng.integers(0, m, len(atoms))
    assign[rng.permutation(len(atoms))[:m]] = np.arange(m)  # no empty blocks
    return SigmaPartition([
        {a for a, j in zip(atoms, assign) if j == i} for i in range(m)
    ])


def _random_coarsening(rng, fine):
    """Random partition whose blocks are unions of the fine blocks."""
    merged = _random_partition(rng, range(len(fine.blocks)))
    return SigmaPartition([
        frozenset().union(*(fine.blocks[i] for i in b)) for b in merged.blocks
    ])


def _oracle_spaces(rng):
    yield DiscreteSpace.from_masses(["1/3", "1/7", "11/21"])
    yield DiscreteSpace.from_masses(["1/3", "1/3", "1/7", "4/21"])
    yield DyadicModel(Fraction(1, 3), 2, refinement=3).space
    yield DyadicModel(Fraction(1, 3), 3).space
    for _ in range(12):
        n = int(rng.integers(2, 14))
        space = DiscreteSpace.from_masses(_random_masses(rng, n, 50))
        yield space
        # a subset of the atoms with rescaled masses: ids and positions differ
        keep = sorted(int(a) for a in rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
        total = space.mass(keep)
        yield DiscreteSpace(tuple(keep), tuple(space.mass_of(a) / total for a in keep))
        # numerators past 2**53, where a float division would round twice
        yield DiscreteSpace.from_masses(_random_masses(rng, n, 10 ** 18))


def test_block_averages_equal_the_fraction_loops():
    rng = np.random.default_rng(7)
    for space in _oracle_spaces(rng):
        d = int(rng.integers(1, 5))
        rows = rng.normal(size=(len(space.ids), d)) * 10.0 ** rng.integers(-3, 4)
        fine = _random_partition(rng, space.ids)
        algs = [SigmaPartition.trivial(space), SigmaPartition.singletons(space),
                fine, _random_coarsening(rng, fine)]
        for alg in algs:
            want = _hex(_block_averages_fraction_loop(space, alg, rows))
            assert _hex(block_averages(space, alg, rows)) == want
            # a list of rows, as selections and lifted maps hold them
            assert _hex(block_averages(space, alg, list(rows))) == want
        trivial = block_averages(space, algs[0], rows)[0]
        assert _hex([trivial]) == _hex([_integral_fraction_loop(space, rows)])


def test_integer_weights_equal_fraction_weights():
    # int true division and float(Fraction) both round correctly
    rng = np.random.default_rng(11)
    for trial in range(200):
        n = int(rng.integers(2, 9))
        space = DiscreteSpace.from_masses(_random_masses(rng, n, 10 ** int(rng.integers(1, 19))))
        assert space.den == math.lcm(*(m.denominator for m in space.masses))
        nums = space._nums.tolist()
        assert sum(nums) == space.den
        for alg in (_random_partition(rng, space.ids), SigmaPartition.trivial(space)):
            for b in alg.blocks:
                big = space.numerator(b)
                block_mass = sum((Fraction(space.mass_of(a)) for a in b), Fraction(0))
                assert space.mass(b) == block_mass
                for a in b:
                    nt = nums[space.position(a)]
                    assert nt / big == float(Fraction(space.mass_of(a)) / block_mass)


def test_block_averages_refuses_foreign_partition(uniform4):
    with pytest.raises(StructureError):
        block_averages(uniform4, SigmaPartition([{0, 1}, {2}]), np.ones((4, 2)))


def test_block_averages_refuses_rows_that_are_not_one_per_atom(uniform4):
    alg = SigmaPartition([{0, 1}, {2, 3}])
    for shape in [(5, 2), (3, 2), (4,)]:
        with pytest.raises(StructureError):
            block_averages(uniform4, alg, np.ones(shape))


def test_partition_refuses_ids_outside_int64():
    for big in (2 ** 63, -(2 ** 63) - 1):
        with pytest.raises(StructureError):
            SigmaPartition([{big}, {0}])
