import hashlib
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import (
    DEDUP_TOL,
    compositions,
    dyadic_convexify,
    enumerate_selections,
    gap_probes,
    grid_aumann_points,
    grid_conditional_blocks,
    grid_dedup,
    outcome,
    support_directions,
    support_vertices,
    support_vertices_runs,
)
from corrint import _kernels, set_integration
from corrint.correspondences import (
    Correspondence,
    Selection,
    block_choice_sets,
    build_counterexample,
)
from corrint.errors import (
    CapacityError,
    ConfigError,
    DivisibilityError,
    PreconditionError,
    StructureError,
)
from corrint.scenarios import read_check, render_report, run_scenario_dict, strip_csv
from corrint.set_integration import (
    PointCloudSet,
    aumann_integral_set,
    conditional_expectation,
    conditional_set,
    convexity_gap,
    dedup_points,
    float_keys,
    hausdorff_semidistance,
    integrate_selection,
    lyapunov_mix,
)
from corrint.spaces import DiscreteSpace, SigmaPartition
from corrint.vectors import Workspace, basis_vector, norm, zero_vector


# -- oracles: the materialized product ----------------------------------------

def _product_functions(cs):
    """All functions of a conditional set, shape (count, nblocks, d), in
    canonical order (the first block varies slowest)."""
    counts = [bs.shape[0] for bs in cs.block_sets]
    total = int(np.prod(counts))
    funcs = np.zeros((total, len(counts), cs.block_sets[0].shape[1]))
    rep = total
    for j, bs in enumerate(cs.block_sets):
        rep //= counts[j]
        tile = total // (rep * counts[j])
        idx = np.tile(np.repeat(np.arange(counts[j]), rep), tile)
        funcs[:, j, :] = bs[idx]
    return funcs


def _coarse_dedup(points: np.ndarray, tol: float = DEDUP_TOL) -> np.ndarray:
    """Fast intermediate dedup on the tol-quantized grid (exact values merge).

    Refuses points whose grid coordinates leave the int64 range, where the
    cast would wrap and merge distinct points.
    """
    q = np.round(points / tol)
    # reductions only, so the check adds no array of the points' size
    if q.size and not -2.0 ** 63 < q.min() <= q.max() < 2.0 ** 63:
        raise PreconditionError(
            f"coordinates from {float(points.min())!r} to {float(points.max())!r} do not fit "
            f"the int64 dedup grid of step {tol!r}"
        )
    q = q.astype(np.int64)
    _, idx = np.unique(q, axis=0, return_index=True)
    return points[np.sort(idx)]


def _grid_oracle(points):
    """``_coarse_dedup``'s rows, put in lexicographic order of their grid keys."""
    rows = _coarse_dedup(points)
    keys = np.round(rows / DEDUP_TOL).astype(np.int64)
    return rows[np.lexsort(keys.T[::-1])]


def _exact_integrals(corr, alg, within=None):
    """The averages over ``within`` (a union of alg's blocks, by default the
    whole space) of all alg-measurable selections, as exact Fraction tuples."""
    space = corr.space
    within = space.atom_set if within is None else within
    inner = [(space.mass(b) / space.mass(within), cs)
             for b, cs in zip(alg.blocks, block_choice_sets(corr, alg)) if b <= within]
    out = set()
    for pick in itertools.product(*(cs for _, cs in inner)):
        out.add(tuple(
            sum((m * Fraction(float(v[j])) for (m, _), v in zip(inner, pick)), Fraction(0))
            for j in range(corr.dim)
        ))
    return out


def _const_corr(space, values):
    return Correspondence(space, {a: values for a in space.ids})


def _selection_of(corr, alg, value_fn):
    return Selection(corr, alg, {a: value_fn(a) for a in corr.space.ids})


def test_integrate_constant_selection():
    space = DiscreteSpace.uniform(5)
    v = basis_vector(0, 3)
    corr = _const_corr(space, [v])
    sel = _selection_of(corr, SigmaPartition.singletons(space), lambda a: v)
    assert np.max(np.abs(integrate_selection(sel) - v)) <= 1e-15


def test_integrate_half_mass():
    space = DiscreteSpace.uniform(4)
    v = basis_vector(0, 2)
    corr = _const_corr(space, [zero_vector(2), v])
    sel = _selection_of(
        corr, SigmaPartition.singletons(space),
        lambda a: v if a < 2 else zero_vector(2),
    )
    assert np.max(np.abs(integrate_selection(sel) - v / 2)) <= 1e-15


def test_integrate_bundle_map_gives_exact_e():
    b = build_counterexample(2, 0, 2, 3)
    sel = _selection_of(
        b.corr, b.f_alg,
        lambda a: b.f_list[0].values[b.model.cell_of(a)],
    )
    assert np.max(np.abs(integrate_selection(sel) - b.e_list[0])) <= 1e-12


def test_conditional_expectation_reductions():
    space = DiscreteSpace.uniform(4)
    rng = np.random.default_rng(31)
    vals = rng.normal(size=(4, 3))
    corr = Correspondence(space, {a: [vals[a]] for a in space.ids})
    sel = _selection_of(corr, SigmaPartition.singletons(space), lambda a: vals[a])
    trivial = SigmaPartition.trivial(space)
    ce = conditional_expectation(sel, trivial)
    assert len(ce) == 1
    assert np.max(np.abs(ce[0] - integrate_selection(sel))) <= 1e-15
    # already measurable: projection is the identity
    blocks = SigmaPartition([{0, 1}, {2, 3}])
    bvals = {0: vals[0], 1: vals[0], 2: vals[2], 3: vals[2]}
    corr2 = Correspondence(space, {a: [bvals[a]] for a in space.ids})
    sel2 = Selection(corr2, blocks, bvals)
    ce2 = conditional_expectation(sel2, blocks)
    assert np.max(np.abs(ce2[0] - vals[0])) <= 1e-15
    assert np.max(np.abs(ce2[1] - vals[2])) <= 1e-15


def test_tower_property_random():
    rng = np.random.default_rng(32)
    for _ in range(50):
        n = int(rng.integers(4, 10))
        space = DiscreteSpace.uniform(n)
        vals = rng.normal(size=(n, 2))
        corr = Correspondence(space, {a: [vals[a]] for a in space.ids})
        sel = _selection_of(corr, SigmaPartition.singletons(space), lambda a: vals[a])
        # F: pairs (last block may be bigger), G: trivial
        cut = n // 2
        f_alg = SigmaPartition([set(range(cut)), set(range(cut, n))])
        g_alg = SigmaPartition.trivial(space)
        ef = conditional_expectation(sel, f_alg)
        lift = {}
        for blk, v in zip(f_alg.blocks, ef):
            for a in blk:
                lift[a] = v
        outer = np.zeros(2)
        for a in space.ids:
            outer += float(space.mass_of(a)) * lift[a]
        direct = conditional_expectation(sel, g_alg)[0]
        assert np.max(np.abs(outer - direct)) <= 1e-12


def test_aumann_two_atom_example():
    space = DiscreteSpace.uniform(2)
    v = basis_vector(0, 2)
    corr = _const_corr(space, [zero_vector(2), v])
    cloud = aumann_integral_set(corr, SigmaPartition.singletons(space), cap=10)
    assert len(cloud) == 3
    for point in (zero_vector(2), v / 2, v):
        assert cloud.contains(point, 1e-12)


def test_aumann_single_atom_is_value_set():
    space = DiscreteSpace.uniform(1)
    vs = [zero_vector(2), basis_vector(0, 2), basis_vector(1, 2)]
    corr = _const_corr(space, vs)
    cloud = aumann_integral_set(corr, SigmaPartition.singletons(space), cap=10)
    assert len(cloud) == 3


def test_aumann_capacity_and_modes_agree():
    # the fold refuses a cloud past its cap; within it, it holds exactly the
    # integrals of the 3**8 selections, enumerated one by one
    b = build_counterexample(2, 0, 1, 2, refinement=2)
    singles = SigmaPartition.singletons(b.model.space)
    fold = aumann_integral_set(b.corr, singles, cap=10 ** 5)
    with pytest.raises(CapacityError):
        aumann_integral_set(b.corr, singles, cap=len(fold) - 1)
    selections = list(enumerate_selections(b.corr, singles, cap=10 ** 5))
    assert len(selections) == 3 ** 8
    enum = PointCloudSet(np.array([integrate_selection(s) for s in selections])).points
    assert enum.shape == fold.points.shape
    assert np.max(np.abs(enum - fold.points)) <= 1e-12


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(k=st.integers(1, 3), gamma=st.sampled_from(["0", "1/4", "1/2"]),
       N=st.integers(0, 3), extra=st.integers(0, 2), cap=st.integers(0, 300_000))
def test_necessity_gap_sizes_keep_every_selection_within_cap(k, gamma, N, extra, cap):
    # the check's cloud has no enumeration refusal of its own: SIZES refuses
    # any config whose selections exceed cap before the check runs
    L = N.bit_length() + extra
    check = {"k": k, "gamma": gamma, "N": N, "L": L, "cap": cap}
    try:
        read_check("necessity-gap", check)
    except (CapacityError, ConfigError):
        return
    b = build_counterexample(k, gamma, N, L)
    sets = block_choice_sets(b.corr, SigmaPartition.singletons(b.model.space))
    assert math.prod(len(s) for s in sets) <= cap


def test_aumann_oracle_agreement_with_direct_enumeration():
    b = build_counterexample(2, 0, 1, 2)
    singles = SigmaPartition.singletons(b.model.space)
    cloud = aumann_integral_set(b.corr, singles, cap=10 ** 4)
    direct = [
        integrate_selection(s)
        for s in enumerate_selections(b.corr, singles, cap=10 ** 4)
    ]
    dd = PointCloudSet(np.array(direct)).points
    assert dd.shape[0] == len(cloud)
    assert np.max(np.abs(dd - cloud.points)) <= 1e-12


def test_necessity_midpoint_absent():
    b = build_counterexample(2, 0, 2, 3)
    singles = SigmaPartition.singletons(b.model.space)
    cloud = aumann_integral_set(b.corr, singles, cap=10 ** 4)
    mid = b.e_mean()
    delta = cloud.nearest_distance(mid)
    assert not cloud.contains(mid, 1e-9)
    assert delta > 1e-9
    assert cloud.nearest_distance(mid) >= delta  # oracle self-consistency


def test_conditional_set_trivial_reduces_to_integral_set():
    b = build_counterexample(2, 0, 1, 2)
    singles = SigmaPartition.singletons(b.model.space)
    trivial = SigmaPartition.trivial(b.model.space)
    cloud = aumann_integral_set(b.corr, singles, cap=10 ** 4)
    cs = conditional_set(b.corr, singles, trivial, cap=10 ** 4)
    assert len(cs) == len(cloud)
    flat = PointCloudSet(cs.block_sets[0]).points
    assert np.max(np.abs(flat - cloud.points)) <= 1e-12


def _random_nested_instance(rng, d):
    """A space of 3-5 atoms with random rational masses, G with 2-3 blocks,
    T refining G, and two T-measurable correspondences of 1-2 values per
    T-block (integer grids half the time, so distances tie; otherwise
    normal draws rounded to multiples of 2**-20, which the exact fold keys
    fit)."""
    n = int(rng.integers(3, 6))
    weights = rng.integers(1, 8, size=n)
    space = DiscreteSpace.from_masses([Fraction(int(w), int(weights.sum())) for w in weights])
    nb = int(rng.integers(2, min(3, n - 1) + 1))
    cuts = sorted(rng.choice(np.arange(1, n), size=nb - 1, replace=False).tolist())
    bounds = [0, *cuts, n]
    g_blocks, t_blocks = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        g_blocks.append(set(range(lo, hi)))
        split = int(rng.integers(lo, hi + 1))
        t_blocks += [set(range(lo, split)), set(range(split, hi))]
    t_alg = SigmaPartition([b for b in t_blocks if b])
    grid = rng.random() < 0.5

    def corr():
        value_map = {}
        for tb in t_alg.blocks:
            m = int(rng.integers(1, 3))
            vals = rng.integers(-2, 3, size=(m, d)).astype(float) if grid \
                else np.round(rng.normal(size=(m, d)) * 2.0 ** 20) / 2.0 ** 20
            for a in tb:
                value_map[a] = list(vals)
        return Correspondence(space, value_map)

    return space, t_alg, SigmaPartition(g_blocks), corr(), corr()


def test_conditional_set_is_the_product_of_its_blocks():
    rng = np.random.default_rng(41)
    for trial in range(36):
        d = 1 + trial % 3
        space, t_alg, g_alg, ca, cb = _random_nested_instance(rng, d)
        for corr in (ca, cb):
            cs = conditional_set(corr, t_alg, g_alg, cap=10 ** 4)
            funcs = _product_functions(cs)
            assert len(cs) == cs.size == funcs.shape[0]
            assert all(cs.contains_function(f, 0.0) for f in funcs)


def test_conditional_set_single_valued():
    space = DiscreteSpace.uniform(4)
    rng = np.random.default_rng(33)
    vals = rng.normal(size=(4, 2))
    corr = Correspondence(space, {a: [vals[a]] for a in space.ids})
    f_alg = SigmaPartition([{0, 1}, {2, 3}])
    cs = conditional_set(corr, SigmaPartition.singletons(space), f_alg, cap=100)
    assert len(cs) == 1
    sel = _selection_of(corr, SigmaPartition.singletons(space), lambda a: vals[a])
    expect = conditional_expectation(sel, f_alg)
    assert cs.contains_function(np.array(expect), 1e-12)


def test_conditional_set_requires_nesting():
    b = build_counterexample(2, 0, 1, 2)
    crossed = SigmaPartition([{0, 2}, {1, 3}])
    with pytest.raises(PreconditionError):
        conditional_set(b.corr, crossed, b.f_alg, cap=100)


def test_lyapunov_mix_degenerate_weight():
    b = build_counterexample(2, 0, 1, 2, refinement=2)
    singles = SigmaPartition.singletons(b.model.space)
    zero = zero_vector(b.d)
    s0 = _selection_of(b.corr, b.f_alg, lambda a: zero)
    s1 = _selection_of(
        b.corr, b.f_alg, lambda a: b.f_list[0].values[b.model.cell_of(a)]
    )
    g = lyapunov_mix([s0, s1], [Fraction(1), Fraction(0)], b.f_alg, singles)
    assert g is s0


def test_lyapunov_mix_half_half_exact():
    b = build_counterexample(2, 0, 1, 2, refinement=2)
    singles = SigmaPartition.singletons(b.model.space)
    zero = zero_vector(b.d)
    s0 = _selection_of(b.corr, b.f_alg, lambda a: zero)
    s1 = _selection_of(
        b.corr, b.f_alg, lambda a: b.f_list[0].values[b.model.cell_of(a)]
    )
    g = lyapunov_mix([s0, s1], [Fraction(1, 2), Fraction(1, 2)], b.f_alg, singles)
    ce = conditional_expectation(g, b.f_alg)
    for blk, v in zip(b.f_alg.blocks, ce):
        rep = min(blk)
        target = (s0.at(rep) + s1.at(rep)) / 2
        assert np.max(np.abs(v - target)) == 0.0


def test_lyapunov_mix_uniform_weights_hit_mean():
    k = 2
    b = build_counterexample(k, 0, 2, 2, refinement=3)
    singles = SigmaPartition.singletons(b.model.space)
    zero = zero_vector(b.d)
    sels = [_selection_of(b.corr, b.f_alg, lambda a: zero)]
    for j in range(k):
        sels.append(_selection_of(
            b.corr, b.f_alg,
            lambda a, j=j: b.f_list[j].values[b.model.cell_of(a)],
        ))
    w = [Fraction(1, k + 1)] * (k + 1)
    g = lyapunov_mix(sels, w, b.f_alg, singles)
    assert np.max(np.abs(integrate_selection(g) - b.e_mean())) <= 1e-12


def test_lyapunov_mix_divisibility_error():
    b = build_counterexample(2, 0, 1, 2, refinement=2)  # 2 sub-blocks per block
    singles = SigmaPartition.singletons(b.model.space)
    zero = zero_vector(b.d)
    s0 = _selection_of(b.corr, b.f_alg, lambda a: zero)
    s1 = _selection_of(
        b.corr, b.f_alg, lambda a: b.f_list[0].values[b.model.cell_of(a)]
    )
    s2 = _selection_of(
        b.corr, b.f_alg, lambda a: b.f_list[1].values[b.model.cell_of(a)]
    )
    with pytest.raises(DivisibilityError):
        lyapunov_mix(
            [s0, s1, s2], [Fraction(1, 3)] * 3, b.f_alg, singles
        )


def test_lyapunov_mix_precondition_errors():
    b = build_counterexample(2, 0, 1, 2, refinement=2)
    singles = SigmaPartition.singletons(b.model.space)
    # not f_alg-measurable: a selection varying within a cell
    cmap = {}
    for a in b.model.space.ids:
        c = b.model.cell_of(a)
        cmap[a] = b.f_list[0].values[c] if a % 2 else zero_vector(b.d)
    jagged = Selection(b.corr, singles, cmap)
    with pytest.raises(PreconditionError):
        lyapunov_mix([jagged, jagged], [Fraction(1, 2), Fraction(1, 2)],
                     b.f_alg, singles)
    with pytest.raises(PreconditionError):
        lyapunov_mix([jagged], [Fraction(1, 2)], b.f_alg, singles)


def test_convexity_gap_examples():
    singleton = PointCloudSet(np.zeros((1, 2)))
    assert convexity_gap(singleton, samples=16) == 0.0
    v = basis_vector(0, 2)
    pair = PointCloudSet(np.vstack([zero_vector(2), v]))
    gap = convexity_gap(pair, samples=64)
    assert abs(gap - 0.5) <= 1e-12
    # a midpoint-closed cloud has a small gap
    grid = PointCloudSet(np.array([[i / 8, 0.0] for i in range(9)]))
    assert convexity_gap(grid, samples=64) <= 1 / 16 + 1e-12


def test_convexity_gap_monotone_under_refinement():
    gaps = []
    for m in (1, 2, 3):
        b = build_counterexample(1, 0, 1, 2, refinement=1 << m)
        singles = SigmaPartition.singletons(b.model.space)
        cloud = aumann_integral_set(b.corr, singles, cap=10 ** 5)
        gaps.append(convexity_gap(cloud, samples=64, seed=1))
    assert gaps[1] <= gaps[0] + 1e-15
    assert gaps[2] <= gaps[1] + 1e-15


# -- support vertices and probes against their projection forms -------------

# dyadic values tie exactly; sums of 0.1, 0.2 and 0.3 tie only up to rounding
_support_values = st.one_of(
    st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]),
    st.sampled_from([0.1, 0.2, 0.3, 0.7, -0.3]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), d=st.integers(1, 4), seed=st.integers(0, 50),
       ndirs=st.sampled_from([0, 3, 64]))
def test_support_vertices_equal_projection_oracle(data, n, d, seed, ndirs):
    # unsorted rows, repeated values and rows, both zeros, and boxes whose
    # faces lie along the +-e_m directions, so that many rows tie
    pts = data.draw(arrays(float, (n, d), elements=_support_values))
    if data.draw(st.booleans()):
        pts = np.floor(pts)  # a lattice box: whole faces on the axes
    got = set_integration._support_vertices(pts, seed, ndirs)
    want = support_vertices(pts, seed, ndirs)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), d=st.integers(1, 4), seed=st.integers(0, 50),
       ndirs=st.sampled_from([0, 3, 64]), budget=st.sampled_from([8, 64, 1 << 16]),
       scale=st.sampled_from([1.0, 2.0 ** 20]))
def test_support_vertices_equal_run_loop_oracle(data, n, d, seed, ndirs, budget, scale):
    # the segmented pass against the loop over falling runs, in chunks of
    # one row, of eight and of the default budget; at d = 1 the whole
    # cloud is one run.  Scaled by 2**20, a top score less 1e-12 rounds
    # back to the top, so the threshold admits exactly the rows at the top.
    pts = data.draw(arrays(float, (n, d), elements=_support_values))
    if data.draw(st.booleans()):
        pts = np.floor(pts)
    pts *= scale
    with mock.patch.object(_kernels, "_CHUNK_BYTES", budget):
        got = set_integration._support_vertices(pts, seed, ndirs)
    assert got.tobytes() == support_vertices_runs(pts, seed, ndirs).tobytes()


def test_support_vertices_pick_the_largest_row_of_a_face():
    # each axis direction meets the square in a whole edge and keeps the
    # edge's largest row, whatever the input order: +e_0 and +e_1 keep
    # (1, 1), -e_0 keeps (0, 1) and -e_1 keeps (1, 0); (0, 0) is never kept
    square = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.5, 1.0]])
    for pts in (square, square[::-1], square[np.lexsort(square.T[::-1])]):
        got = set_integration._support_vertices(pts, 0, 0)
        assert got.tolist() == [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        assert got.tobytes() == support_vertices(pts, 0, 0).tobytes()


@pytest.mark.parametrize("gamma", ["0", "1/3"])
def test_support_vertices_equal_projection_oracle_on_decay_clouds(gamma):
    for m in range(1, 7):
        b = build_counterexample(1, Fraction(gamma), 1, 4, refinement=1 << m)
        pts = aumann_integral_set(b.corr, SigmaPartition.singletons(b.model.space)).points
        for seed in ((0, 1, 2, 7) if m < 6 else (0,)):
            got = set_integration._support_vertices(pts, seed)
            assert got.tobytes() == support_vertices(pts, seed).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 17, 48])
def test_directions_and_probes_equal_scalar_radical_inverses(d):
    rng = np.random.default_rng(d)
    for seed in (0, 1, 1000, 2 ** 62, 2 ** 63 + 3):
        want = np.array(support_directions(d, seed))
        assert set_integration._directions(d, seed, 64).tobytes() == want.tobytes()
        verts = rng.normal(size=(d + 2, 3))
        for samples in (0, 1, 128):
            got = set_integration._probes(verts, seed, samples)
            assert got.tobytes() == gap_probes(verts, seed, samples).tobytes()


def test_radical_inverses_refuse_negative_indices():
    # the digit loop never ends on a negative index
    with pytest.raises(PreconditionError):
        set_integration._vdc_table(-1, 2, 2)


def test_compositions_equal_the_recursive_generator():
    for run in range(13):
        for m in range(1, 7):
            got = set_integration._compositions(run, m)
            want = np.array(list(compositions(run, m)), dtype=np.int64).reshape(-1, m)
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want)


def test_hausdorff_examples():
    v = basis_vector(0, 2)
    a = PointCloudSet(np.vstack([zero_vector(2), v]))
    z = PointCloudSet(np.zeros((1, 2)))
    assert hausdorff_semidistance(a, a) == 0.0
    assert hausdorff_semidistance(z, a) == 0.0
    assert hausdorff_semidistance(a, z) == 1.0


def _uhc_series(family, limit, t_alg, cap):
    """Semidistance of each member's integral set to the limit's, as the
    uhc-decay check computes it."""
    limit_cloud = aumann_integral_set(limit, t_alg, cap)
    return [hausdorff_semidistance(aumann_integral_set(fy, t_alg, cap), limit_cloud)
            for fy in family]


def test_uhc_constant_family_zero():
    b = build_counterexample(2, 0, 1, 2)
    singles = SigmaPartition.singletons(b.model.space)
    out = _uhc_series([b.corr, b.corr], b.corr, singles, cap=10 ** 4)
    assert out == [0.0, 0.0]


def test_uhc_shrinking_family():
    space = DiscreteSpace.uniform(2)
    v = basis_vector(0, 2)
    limit = _const_corr(space, [zero_vector(2)])
    family = [
        _const_corr(space, [zero_vector(2), v / n]) for n in (1, 2, 4, 8)
    ]
    singles = SigmaPartition.singletons(space)
    sig = _uhc_series(family, limit, singles, cap=100)
    for n, s in zip((1, 2, 4, 8), sig):
        assert s <= 1.0 / n + 1e-12
    assert all(b <= a for a, b in zip(sig, sig[1:]))


def test_convexified_cloud_approaches_hull_and_mix_attains():
    # 2 blocks, 2 values: the convexified correspondence's integral cloud
    # closes in on the convex hull while mixing attains dyadic hull points
    b = build_counterexample(1, 0, 1, 1, refinement=4)
    singles = SigmaPartition.singletons(b.model.space)
    base_cloud = aumann_integral_set(b.corr, singles, cap=10 ** 5)
    dists = []
    for r in (1, 2, 4):
        conv = dyadic_convexify(b.corr, r)
        cloud_r = aumann_integral_set(conv, singles, cap=10 ** 6)
        dists.append(convexity_gap(cloud_r, samples=64, seed=2))
    assert dists[1] <= dists[0] and dists[2] <= dists[1]
    zero = zero_vector(b.d)
    s0 = _selection_of(b.corr, b.f_alg, lambda a: zero)
    s1 = _selection_of(
        b.corr, b.f_alg, lambda a: b.f_list[0].values[b.model.cell_of(a)]
    )
    g = lyapunov_mix([s0, s1], [Fraction(3, 4), Fraction(1, 4)], b.f_alg, singles)
    mixed = integrate_selection(g)
    target = 0.75 * integrate_selection(s0) + 0.25 * integrate_selection(s1)
    assert np.max(np.abs(mixed - target)) <= 1e-12


def test_cloud_merges_equal_values_only():
    # 0.0 and -0.0 are one value; rows 5e-13 apart are two points
    pts = np.array([[0.0, 0.0], [-0.0, 5e-13], [0.0, 5e-13], [1.0, -0.0], [1.0, 0.0]])
    cloud = PointCloudSet(pts)
    assert cloud.points.tobytes() == pts[[0, 1, 3]].tobytes()
    assert np.array_equal(cloud.points, [[0.0, 0.0], [0.0, 5e-13], [1.0, 0.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(PreconditionError):
            PointCloudSet(np.array([[0.0, 1.0], [bad, 0.0]]))
    with pytest.raises(StructureError):
        PointCloudSet(np.zeros(3))


def test_float_keys_order_rows_as_their_values():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n, d = int(rng.integers(1, 40)), int(rng.integers(1, 4))
        pts = _fuzz_chain(rng, n, d) * rng.choice([1.0, 1e-300, 1e300])
        pts[rng.random(size=pts.shape) < 0.1] *= -0.0
        got = PointCloudSet(pts).points
        want = sorted({tuple((row + 0.0).tolist()) for row in pts})
        assert np.array_equal(got, np.array(want).reshape(-1, d))
        assert np.array_equal(dedup_points(float_keys(got)), np.arange(got.shape[0]))


def _fuzz_chain(rng, n, d):
    """Rows that step from their predecessor by offsets near the dedup tol."""
    steps = np.array([0.0, 0.4, 0.999, 1.0, 1.001, 2.5]) * DEDUP_TOL
    offsets = rng.choice(steps, size=(n, d)) * rng.choice([-1.0, 1.0], size=(n, d))
    return rng.integers(-1, 2, size=d) + np.cumsum(offsets, axis=0)


def test_dedup_matches_grid_oracle():
    rng = np.random.default_rng(91)
    for _ in range(600):
        n, d = int(rng.integers(1, 40)), int(rng.integers(1, 4))
        pts = _fuzz_chain(rng, n, d)
        got = grid_dedup(pts)
        assert np.array_equal(got, _grid_oracle(pts))
        assert np.array_equal(grid_dedup(got), got)
    for n in (7, 8, 9, 100, 1000, 1001):
        pts = np.zeros((n, 2))
        pts[:, 1] = np.arange(n) * (0.9 * DEDUP_TOL / n)
        pts[n // 2:, 0] += 2 * DEDUP_TOL * (n % 2)
        assert np.array_equal(grid_dedup(pts), _grid_oracle(pts))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), d=st.integers(1, 3))
def test_dedup_property_equals_grid_oracle(data, n, d):
    steps = st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 3.0, -0.5, -1.0, -1.001])
    offsets = data.draw(arrays(float, (n, d), elements=steps)) * DEDUP_TOL
    base = data.draw(arrays(float, d, elements=st.sampled_from([0.0, -1.0, 0.5, 1e3])))
    pts = base + np.cumsum(offsets, axis=0)
    pts = pts[data.draw(st.permutations(range(n)))]
    assert np.array_equal(grid_dedup(pts), _grid_oracle(pts))


def test_coarse_dedup_refuses_int64_overflow():
    # 1e7 / 1e-12 = 1e19 leaves the grid's int64 range: the cast would wrap
    # and the three distinct rows would come out as the single row 1e7
    pts = np.array([[1e7], [2e7], [3e7]])
    for dedup in (_coarse_dedup, grid_dedup):
        with pytest.raises(PreconditionError):
            dedup(pts)
    assert grid_dedup(pts / 1e4).shape == (3, 1)
    # float keys have no range to leave
    assert np.array_equal(PointCloudSet(pts).points, pts)
    # a fold of integer values merges on exact keys, which these fit
    space = DiscreteSpace.uniform(2)
    corr = Correspondence(space, {a: [np.array([2e7]), np.array([4e7])] for a in space.ids})
    cloud = aumann_integral_set(corr, SigmaPartition.singletons(space))
    assert np.array_equal(cloud.points, [[2e7], [3e7], [4e7]])


def test_aumann_set_equals_exact_fraction_enumeration():
    # non-dyadic masses put float fuzz on equal rational sums; the cloud
    # must hold exactly one row per distinct exact integral
    rng = np.random.default_rng(7)
    for _ in range(400):
        n = int(rng.integers(2, 6))
        w = rng.integers(1, 6, size=n)
        space = DiscreteSpace.from_masses([Fraction(int(x), int(w.sum())) for x in w])
        d = int(rng.integers(2, 4))
        corr = Correspondence(space, {
            a: list(rng.integers(-2, 3, size=(int(rng.integers(1, 4)), d)).astype(float))
            for a in space.ids
        })
        singles = SigmaPartition.singletons(space)
        want = np.array(sorted(_exact_integrals(corr, singles)), dtype=float)
        got = aumann_integral_set(corr, singles, cap=10 ** 4).points
        assert got.shape == want.shape
        gaps = np.max(np.abs(got[:, None, :] - want[None, :, :]), axis=2)
        assert gaps.min(axis=0).max() <= 1e-12
        assert gaps.min(axis=1).max() <= 1e-12


def test_metric_selection_weak_topology():
    ws = Workspace(d=2, norm_flavor="euclid", topology="weak")
    v = basis_vector(1, 2)  # second coordinate: weight 1/4 in the weak metric
    a = PointCloudSet(np.vstack([v]))
    z = PointCloudSet(np.zeros((1, 2)))
    assert abs(hausdorff_semidistance(a, z, ws) - 0.25) <= 1e-15
    assert abs(norm(v, "euclid") - 1.0) <= 1e-15


# -- the fold on exact keys against the grid fold and Fraction sums --------------

def _record_keys(monkeypatch):
    """Widths of the keys each fold step sorts, and the rows handed to
    ``dedup_points``, recorded while the test runs."""
    seen = {"widths": [], "rows": []}
    fold_step, dedup = set_integration._fold_step, set_integration.dedup_points

    def _fold_step(key_of, *args):
        def keyed(r):
            keys = key_of(r)
            seen["widths"].append(keys.shape[1])
            return keys
        return fold_step(keyed, *args)

    def dedup_points(keys):
        seen["rows"].append(keys.shape[0])
        return dedup(keys)

    monkeypatch.setattr(set_integration, "_fold_step", _fold_step)
    monkeypatch.setattr(set_integration, "dedup_points", dedup_points)
    return seen


def _assert_fold_agrees(corr, t_alg, g_alg, cap):
    """The keyed Aumann cloud over t_alg and conditional set over g_alg
    equal the grid fold byte for byte and the Fraction sums in order."""
    cloud = outcome(aumann_integral_set, corr, t_alg, cap)
    grid = outcome(grid_aumann_points, corr, t_alg, cap)
    assert cloud[0] == grid[0]
    if cloud[0] == "raised":
        assert cloud[1] is grid[1] is CapacityError
        return
    got = cloud[1].points
    assert got.shape == grid[1].shape and got.tobytes() == grid[1].tobytes()
    want = np.array(sorted(_exact_integrals(corr, t_alg)), dtype=float).reshape(-1, corr.dim)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
    cs = outcome(conditional_set, corr, t_alg, g_alg, cap)
    grid_blocks = outcome(grid_conditional_blocks, corr, t_alg, g_alg, cap)
    assert cs[0] == grid_blocks[0]
    if cs[0] == "raised":
        assert cs[1] is grid_blocks[1] is CapacityError
        return
    for gb, bs, ref in zip(g_alg.blocks, cs[1].block_sets, grid_blocks[1]):
        assert bs.shape == ref.shape and bs.tobytes() == ref.tobytes()
        want = np.array(sorted(_exact_integrals(corr, t_alg, gb)), dtype=float)
        assert bs.shape == want.shape
        assert np.max(np.abs(bs - want)) <= 1e-12


@st.composite
def _lattice_instances(draw):
    """Singleton T and a coarser G on 2-6 atoms whose masses have
    denominators 3, 5, 6, 10 or 15 (equal masses half the time), and a
    correspondence of 1-3 values per atom in quarter steps, an atom often
    repeating its neighbour's values so that runs of equal blocks occur.

    Equal sums differ by float fuzz only, far inside a grid cell: no sum
    lies near a cell boundary, whose dyadic denominator would need 2**13."""
    total = draw(st.sampled_from([3, 5, 6, 10, 15]))
    if draw(st.booleans()):
        n = draw(st.sampled_from([k for k in (2, 3, 5, 6) if total % k == 0 and k < total]
                                 or [total]))
        masses = [Fraction(1, n)] * n
    else:
        n = draw(st.integers(2, min(6, total)))
        cuts = sorted(draw(st.lists(st.integers(1, total - 1), min_size=n - 1,
                                    max_size=n - 1, unique=True)))
        bounds = [0, *cuts, total]
        masses = [Fraction(hi - lo, total) for lo, hi in zip(bounds, bounds[1:])]
    space = DiscreteSpace.from_masses(masses)
    d = draw(st.integers(1, 3))
    value = arrays(float, d, elements=st.integers(-8, 8).map(lambda k: k / 4))
    value_map, prev = {}, None
    for a in space.ids:
        if prev is None or not draw(st.booleans()):
            prev = draw(st.lists(value, min_size=1, max_size=3))
        value_map[a] = prev
    cuts = draw(st.lists(st.integers(1, n - 1), max_size=2, unique=True))
    bounds = [0, *sorted(cuts), n]
    g_alg = SigmaPartition([set(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])])
    return Correspondence(space, value_map), SigmaPartition.singletons(space), g_alg


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(inst=_lattice_instances(), tight=st.booleans())
def test_keyed_fold_equals_grid_fold_and_fraction_sums(inst, tight):
    # a tight cap, the cloud's own size, keys steps in chunks and merges them
    corr, t_alg, g_alg = inst
    cap = len(aumann_integral_set(corr, t_alg, 10 ** 6)) if tight else 10 ** 6
    with pytest.MonkeyPatch.context() as mp:
        seen = _record_keys(mp)
        _assert_fold_agrees(corr, t_alg, g_alg, cap)
    assert set(seen["widths"]) <= {1}


def test_fold_in_chunks_keeps_the_same_rows(monkeypatch):
    # at cap 1071, the cloud's size, the last step's 216 x 6 sums are keyed
    # in two chunks, neither more than 1071 sums
    b = build_counterexample(2, 0, 2, 2, refinement=2)
    singles = SigmaPartition.singletons(b.model.space)
    seen = _record_keys(monkeypatch)
    whole = aumann_integral_set(b.corr, singles, cap=10 ** 5).points
    assert seen["rows"] == [6, 36, 216, 1296]
    tight = aumann_integral_set(b.corr, singles, cap=len(whole)).points
    assert tight.tobytes() == whole.tobytes()
    # chunks of 1071 // 6 = 178 accumulated rows; the second merges the 893
    # rows kept of the first with its 38 x 6 sums
    assert seen["rows"][4:] == [6, 36, 216, 178 * 6, 893 + 38 * 6]
    with pytest.raises(CapacityError):
        aumann_integral_set(b.corr, singles, cap=len(whole) - 1)


def test_fold_keys_columns_where_packing_overflows(monkeypatch):
    # keys 0..600 in each of 8 coordinates fit int64, but packed they
    # need 601**8 > 2**63 values: the sort takes the 8 columns
    space = DiscreteSpace.uniform(2)
    values = [np.zeros(8), np.full(8, 150.0), np.full(8, 300.0), np.arange(8) * 37.0]
    corr = Correspondence(space, {a: values for a in space.ids})
    singles = SigmaPartition.singletons(space)
    seen = _record_keys(monkeypatch)
    _assert_fold_agrees(corr, singles, SigmaPartition.trivial(space), 100)
    assert 8 in seen["widths"]
    assert len(aumann_integral_set(corr, singles)) == 9


def test_fold_off_the_lattice_is_refused():
    # a coordinate holding normal draws near 1 and near 1e-6 needs a scale
    # near 2**73 for the small ones, which puts the large ones' keys past
    # int64: neither fold has keys for it
    rng = np.random.default_rng(5)
    space = DiscreteSpace.from_masses([Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)])
    corr = Correspondence(space, {a: list(rng.normal(size=(2, 2)) * [[1.0], [1e-6]])
                                  for a in space.ids})
    singles = SigmaPartition.singletons(space)
    with pytest.raises(PreconditionError, match="exact fold keys leave int64"):
        aumann_integral_set(corr, singles)
    with pytest.raises(PreconditionError, match="exact fold keys leave int64"):
        conditional_set(corr, singles, SigmaPartition([{0, 1}, {2}]))


def test_fold_keys_each_coordinate_on_its_own_scale(monkeypatch):
    # normal draws near 1 in one coordinate and near 1e-6 in the other need
    # scales near 2**53 and 2**73: one for both put the keys past int64,
    # one per coordinate fits them, as two columns that do not pack
    rng = np.random.default_rng(5)
    space = DiscreteSpace.from_masses([Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)])
    corr = Correspondence(space, {a: list(rng.normal(size=(2, 2)) * [1.0, 1e-6])
                                  for a in space.ids})
    singles = SigmaPartition.singletons(space)
    seen = _record_keys(monkeypatch)
    _assert_fold_agrees(corr, singles, SigmaPartition([{0, 1}, {2}]), 100)
    assert seen["widths"] and set(seen["widths"]) == {2}
    # at N = 61 the same holds for the 62 coordinates of lyapunov-exactness,
    # and the report keeps its bytes
    check = {"kind": "lyapunov-exactness", "k": 1, "N": 61, "L": 6, "refinement": 2}
    text = render_report(strip_csv(run_scenario_dict(
        {"schema": 1, "name": "x", "seed": 0, "checks": [check]})))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a36d695a5b3483fa70be976294040d184721ce64c5da5bfbf7da5520ce718454")


def test_fold_keys_near_int64_are_exact_or_refused():
    # two atoms of mass 1/2: values up to 2**60 sum to keys up to 2**61 and
    # fold exactly; at 2**62 the keys' sums would reach 2**63, so the fold
    # refuses them instead of wrapping
    space = DiscreteSpace.uniform(2)
    singles = SigmaPartition.singletons(space)
    fits = Correspondence(space, {a: [np.zeros(1), np.array([2.0 ** 60])] for a in space.ids})
    assert np.array_equal(aumann_integral_set(fits, singles).points,
                          [[0.0], [2.0 ** 59], [2.0 ** 60]])
    past = Correspondence(space, {a: [np.zeros(1), np.array([2.0 ** 62])] for a in space.ids})
    with pytest.raises(PreconditionError):
        aumann_integral_set(past, singles)


def test_fold_merges_equal_sums_the_grid_splits():
    # 2/5 * -12 + 3/5 * -39 and 2/5 * -39 + 3/5 * -21 are both -28.2 / 2**13,
    # which lies on a cell boundary of the grid (-3442382812.5 steps); their
    # float fuzz falls on either side, so the grid fold keeps both
    space = DiscreteSpace.from_masses([Fraction(2, 5), Fraction(3, 5)])
    u = 2.0 ** -13
    corr = Correspondence(space, {0: [np.array([-39 * u]), np.array([-12 * u])],
                                  1: [np.array([-39 * u]), np.array([-21 * u])]})
    singles = SigmaPartition.singletons(space)
    want = np.array(sorted(_exact_integrals(corr, singles)), dtype=float)
    got = aumann_integral_set(corr, singles).points
    assert got.shape == want.shape == (3, 1)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert len(grid_aumann_points(corr, singles, 100)) == 4
