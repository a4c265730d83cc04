import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from _oracles import kernel_blocks, outcome, same_rows
from corrint import scenarios
from corrint.correspondences import Correspondence, Selection
from corrint.errors import StructureError
from corrint.rcd import TransitionKernel, kernel_mix, rcd_of_selection
from corrint.set_integration import conditional_expectation, lyapunov_mix
from corrint.spaces import DiscreteSpace, DyadicModel, SigmaPartition
from corrint.vectors import basis_vector, zero_vector

PINNED_KERNELS = json.loads((Path(__file__).parent / "kernel_sha256.json").read_text())
KERNEL_TOWER = {f"tower-seed{seed}-instances{n}": (seed, n)
                for seed in (0, 1, 2, 3, 7, 20240) for n in (1, 2, 50, 600)}
KERNEL_MIXTURE = {f"mixture-resolution{r}-d{d}": (r, d)
                  for r in (1, 2, 3, 4, 7, 64) for d in (1, 2, 3)}


def _single_valued(space, vals):
    corr = Correspondence(space, {a: [vals[a]] for a in space.ids})
    sel = Selection(corr, SigmaPartition.singletons(space),
                    {a: vals[a] for a in space.ids})
    return corr, sel


def test_constant_selection_point_mass():
    space = DiscreteSpace.uniform(4)
    v = basis_vector(0, 2)
    _, sel = _single_valued(space, {a: v for a in space.ids})
    kern = rcd_of_selection(sel, SigmaPartition([{0, 1}, {2, 3}]))
    for sup, ws in zip(kern.supports, kern.weights):
        assert len(sup) == 1
        assert ws == (Fraction(1),)
        assert np.array_equal(sup[0], v)


def test_half_half_distribution():
    space = DiscreteSpace.uniform(4)
    v = basis_vector(0, 2)
    w = basis_vector(1, 2)
    vals = {0: v, 1: w, 2: v, 3: w}
    _, sel = _single_valued(space, vals)
    kern = rcd_of_selection(sel, SigmaPartition([{0, 1}, {2, 3}]))
    for ws in kern.weights:
        assert ws == (Fraction(1, 2), Fraction(1, 2))


def test_barycenter_identity_random():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(4, 12))
        space = DiscreteSpace.uniform(n)
        vals = {a: rng.normal(size=3) for a in space.ids}
        _, sel = _single_valued(space, vals)
        cut = n // 2
        g_alg = SigmaPartition([set(range(cut)), set(range(cut, n))])
        kern = rcd_of_selection(sel, g_alg)
        ce = conditional_expectation(sel, g_alg)
        for bc, direct in zip(kern.barycenters(), ce):
            assert np.max(np.abs(bc - direct)) <= 1e-12


def test_measurable_selection_gives_point_masses():
    space = DiscreteSpace.uniform(4)
    f_alg = SigmaPartition([{0, 1}, {2, 3}])
    v = basis_vector(0, 2)
    w = basis_vector(1, 2)
    vals = {0: v, 1: v, 2: w, 3: w}
    corr = Correspondence(space, {a: [vals[a]] for a in space.ids})
    sel = Selection(corr, f_alg, vals)
    kern = rcd_of_selection(sel, f_alg)
    assert all(len(sup) == 1 for sup in kern.supports)


def test_kernel_mix_examples():
    space = DiscreteSpace.uniform(2)
    v = basis_vector(0, 2)
    w = basis_vector(1, 2)
    g_alg = SigmaPartition.trivial(space)
    k1 = TransitionKernel(g_alg, [[(v, Fraction(1))]])
    k2 = TransitionKernel(g_alg, [[(w, Fraction(1))]])
    assert kernel_mix(k1, k2, Fraction(1)).equals_exactly(k1)
    assert kernel_mix(k1, k1, Fraction(1, 3)).equals_exactly(k1)
    mixed = kernel_mix(k1, k2, Fraction(1, 4))
    # canonical support order sorts w = e_1 before v = e_0
    assert mixed.weights[0] == (Fraction(3, 4), Fraction(1, 4))


def test_mixture_realized_by_refined_selection():
    # 2 blocks x 2 values; alpha = 1/4 realized through the mixing construction
    space = DiscreteSpace.uniform(8)
    f_alg = SigmaPartition([set(range(4)), set(range(4, 8))])
    singles = SigmaPartition.singletons(space)
    v0 = zero_vector(2)
    v1 = basis_vector(0, 2)
    corr = Correspondence(space, {a: [v0, v1] for a in space.ids})
    s0 = Selection(corr, f_alg, {a: v0 for a in space.ids})
    s1 = Selection(corr, f_alg, {a: v1 for a in space.ids})
    alpha = Fraction(1, 4)
    target = kernel_mix(
        rcd_of_selection(s0, f_alg), rcd_of_selection(s1, f_alg), alpha
    )
    g = lyapunov_mix([s0, s1], [alpha, 1 - alpha], f_alg, singles)
    got = rcd_of_selection(g, f_alg)
    assert got.equals_exactly(target)


def test_kernel_refuses_fewer_distributions_than_blocks():
    g_alg = SigmaPartition([{0}, {1}])
    with pytest.raises(StructureError):
        TransitionKernel(g_alg, [[(np.zeros(2), Fraction(1))]])


def test_kernel_refuses_more_distributions_than_blocks():
    g_alg = SigmaPartition.trivial(DiscreteSpace.uniform(2))
    point = [(np.zeros(2), Fraction(1))]
    with pytest.raises(StructureError):
        TransitionKernel(g_alg, [point, point])


def test_kernel_weight_validation():
    space = DiscreteSpace.uniform(2)
    g_alg = SigmaPartition.trivial(space)
    v = basis_vector(0, 2)
    with pytest.raises(StructureError):
        TransitionKernel(g_alg, [[(v, Fraction(1, 2))]])


def test_kernel_json():
    space = DiscreteSpace.uniform(2)
    g_alg = SigmaPartition.trivial(space)
    v = basis_vector(0, 2)
    kern = TransitionKernel(g_alg, [[(v, Fraction(1, 3)),
                                     (zero_vector(2), Fraction(2, 3))]])
    doc = kern.to_json()
    assert doc[0]["block"] == [0, 1]
    assert doc[0]["weights"] == ["2/3", "1/3"]


# few coordinates, so that entries repeat and hold -0.0 beside 0.0; a
# non-finite one now and then, which both forms refuse
_COORDS = np.array([0.0, -0.0, 1.0])
_NON_FINITE = np.array([np.nan, np.inf, -np.inf])


def _random_weights(rng, n):
    """n weights summing to 1, some zero, as Fractions, ints or floats;
    sometimes one negative, or a sum other than 1."""
    nums = [int(x) for x in rng.integers(0, 4, n)]
    if n and not any(nums):
        nums[0] = 1
    total = sum(nums)
    ws = [Fraction(m, total) if total else Fraction(0) for m in nums]
    draw = rng.random()
    if n and draw < 0.05:
        ws[int(rng.integers(n))] *= -1
    elif n and draw < 0.1:
        ws[int(rng.integers(n))] += Fraction(1, 7)
    out = []
    for w in ws:
        form = rng.random()
        if form < 0.2 and w.denominator == 1:
            out.append(int(w))
        elif form < 0.4 and w.denominator & (w.denominator - 1) == 0:
            out.append(float(w))
        else:
            out.append(w)
    return out


def _random_kernel_input(rng):
    n = int(rng.integers(1, 7))
    space = DiscreteSpace.uniform(n)
    labels = rng.integers(0, n, n)
    groups: dict[int, set] = {}
    for a, lab in zip(space.ids, labels):
        groups.setdefault(int(lab), set()).add(a)
    g_alg = SigmaPartition(list(groups.values()))
    d = int(rng.integers(1, 4))
    per_block = []
    for _ in g_alg.blocks:
        size = int(rng.integers(0, 6)) if rng.random() < 0.05 else int(rng.integers(1, 6))
        vectors = [rng.choice(_COORDS, size=d) for _ in range(size)]
        if vectors and rng.random() < 0.02:
            vectors[0][int(rng.integers(d))] = rng.choice(_NON_FINITE)
        per_block.append(list(zip(vectors, _random_weights(rng, size))))
    return g_alg, per_block


def _same_kernel(kern, supports, weights):
    return (
        all(same_rows(s, t) for s, t in zip(kern.supports, supports))
        and len(kern.supports) == len(supports)
        and kern.weights == weights
        and all(type(w) is Fraction for ws in kern.weights for w in ws)
        and all(not s.flags.writeable for s in kern.supports)
    )


def test_kernel_matches_the_per_vector_oracle():
    rng = np.random.default_rng(8)
    built = 0
    for _ in range(600):
        g_alg, per_block = _random_kernel_input(rng)
        got = outcome(TransitionKernel, g_alg, per_block)
        want = outcome(kernel_blocks, g_alg, per_block)
        assert got[0] == want[0]
        if got[0] == "raised":
            assert got[1] is want[1] is StructureError
            continue
        built += 1
        kern = got[1]
        assert _same_kernel(kern, *want[1])
        alpha = Fraction(int(rng.integers(0, 5)), 4)
        mixed = kernel_mix(kern, kern, alpha)
        dist = [[(v, alpha * w) for v, w in zip(sup, ws)]
                + [(v, (1 - alpha) * w) for v, w in zip(sup, ws)]
                for sup, ws in zip(*want[1])]
        assert _same_kernel(mixed, *kernel_blocks(g_alg, dist))
        assert mixed.equals_exactly(kern)
    assert built > 300


def test_rcd_of_selection_matches_the_per_vector_oracle():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        space = DiscreteSpace.uniform(n)
        vals = {a: rng.choice(_COORDS[:3], size=2) for a in space.ids}
        _, sel = _single_valued(space, vals)
        cut = int(rng.integers(1, n + 1))
        g_alg = SigmaPartition([b for b in (set(range(cut)), set(range(cut, n))) if b])
        dist = [[(vals[a], space.mass_of(a) / space.mass(b)) for a in sorted(b)]
                for b in g_alg.blocks]
        assert _same_kernel(rcd_of_selection(sel, g_alg), *kernel_blocks(g_alg, dist))


def test_kernel_refuses_support_points_of_different_lengths():
    space = DiscreteSpace.uniform(2)
    g_alg = SigmaPartition.trivial(space)
    half = Fraction(1, 2)
    with pytest.raises(StructureError):
        TransitionKernel(g_alg, [[(np.zeros(2), half), (np.ones(3), half)]])
    with pytest.raises(StructureError):
        TransitionKernel(g_alg, [[(np.zeros((2, 2)), Fraction(1))]])
    k2 = TransitionKernel(g_alg, [[(np.zeros(2), Fraction(1))]])
    k3 = TransitionKernel(g_alg, [[(np.zeros(3), Fraction(1))]])
    for alpha in (Fraction(0), Fraction(1, 3), Fraction(1)):
        with pytest.raises(StructureError):
            kernel_mix(k2, k3, alpha)


def test_kernel_leaves_the_callers_arrays_writeable():
    space = DiscreteSpace.uniform(2)
    v = np.array([1.0, 2.0])
    kern = TransitionKernel(SigmaPartition.trivial(space), [[(v, Fraction(1))]])
    assert v.flags.writeable and not kern.supports[0].flags.writeable


def _kernel_docs(name: str) -> list:
    """The ``to_json`` of the kernels a pinned check builds.

    tower-barycenter: per batch, the rcd of the selection given G and its
    mixture with itself at 1/3.  rcd-mixture: per alpha, the mixture of the
    two constant selections' kernels and the rcd of the selection that
    realizes it.
    """
    if name in KERNEL_TOWER:
        seed, instances = KERNEL_TOWER[name]
        rng = np.random.default_rng(seed)
        docs = []
        for lo in range(0, instances, scenarios.TOWER_BATCH):
            batch = min(scenarios.TOWER_BATCH, instances - lo)
            _, sel, _, g_alg = scenarios._tower_union(rng, batch)
            kern = rcd_of_selection(sel, g_alg)
            docs.append([kern.to_json(), kernel_mix(kern, kern, Fraction(1, 3)).to_json()])
        return docs
    resolution, d = KERNEL_MIXTURE[name]
    model = DyadicModel(Fraction(0), 1, refinement=resolution)
    space = model.space
    v0, v1 = np.zeros(d), basis_vector(0, d)
    corr = Correspondence(space, {a: [v0, v1] for a in space.ids})
    f_alg, t_alg = model.cell_partition, SigmaPartition.singletons(space)
    sel0 = Selection(corr, f_alg, {a: v0 for a in space.ids})
    sel1 = Selection(corr, f_alg, {a: v1 for a in space.ids})
    k0, k1 = rcd_of_selection(sel0, f_alg), rcd_of_selection(sel1, f_alg)
    docs = []
    for num in range(resolution + 1):
        alpha = Fraction(num, resolution)
        g = sel0 if alpha == 1 else sel1 if alpha == 0 else \
            lyapunov_mix([sel0, sel1], [alpha, 1 - alpha], f_alg, t_alg)
        docs.append([kernel_mix(k0, k1, alpha).to_json(), rcd_of_selection(g, f_alg).to_json()])
    return docs


def test_every_kernel_check_is_pinned():
    assert sorted(PINNED_KERNELS) == sorted({**KERNEL_TOWER, **KERNEL_MIXTURE})


@pytest.mark.parametrize("name", sorted({**KERNEL_TOWER, **KERNEL_MIXTURE}))
def test_kernel_json_is_pinned(name):
    """The sha256 of ``json.dumps`` of ``_kernel_docs(name)``, generated by
    the per-entry kernel constructor that the array core replaced.
    Regenerate ``kernel_sha256.json`` from the root of the checkout with

        PYTHONPATH=src:tests python -c "import hashlib, json; from test_rcd import KERNEL_TOWER, KERNEL_MIXTURE, _kernel_docs; print(json.dumps({n: hashlib.sha256(json.dumps(_kernel_docs(n)).encode()).hexdigest() for n in {**KERNEL_TOWER, **KERNEL_MIXTURE}}, indent=2, sort_keys=True), file=open('tests/kernel_sha256.json', 'w'))"

    and justify the regeneration in CHANGES.md.
    """
    digest = hashlib.sha256(json.dumps(_kernel_docs(name)).encode()).hexdigest()
    assert digest == PINNED_KERNELS[name]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernel_refuses_non_finite_support_points(bad):
    g_alg = SigmaPartition.trivial(DiscreteSpace.uniform(2))
    half = Fraction(1, 2)
    per_block = [[(np.array([0.0, bad]), half), (np.array([1.0, 0.0]), half)]]
    for build in (TransitionKernel, kernel_blocks):
        with pytest.raises(StructureError):
            build(g_alg, per_block)
    # a zero weight does not excuse the point
    with pytest.raises(StructureError):
        TransitionKernel(g_alg, [[(np.array([bad, 0.0]), 0), (np.ones(2), 1)]])
