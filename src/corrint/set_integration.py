"""Aumann integral sets, conditional-expectation sets, mixing, and the
convexity / hemicontinuity diagnostics.

All set computations are exact Minkowski accumulations over finite value
sets.  Every finite double is a dyadic rational, so a fold keys each
block's mass-weighted values as exact integers, one power-of-two scale per
coordinate over the masses' common denominator: two sums are equal exactly
when their keys are, and a fold whose keys could leave int64 is refused.
Float rows given to ``PointCloudSet`` merge only where they are equal as
numbers.  No tolerance decides a dedup; membership questions use
``MEMBERSHIP_TOL``.  Nothing here samples: the only randomness-flavored
ingredient, the gap prober's weight sequence, is a deterministic
low-discrepancy stream.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .correspondences import Correspondence, Selection, block_choice_sets
from .errors import (
    CapacityError,
    DivisibilityError,
    PreconditionError,
    StructureError,
)
from .spaces import (
    SigmaPartition,
    _int_dtype,
    block_averages,
    block_numerators,
    block_starts,
    coarse_labels,
    inner_blocks,
)
from .vectors import NORM_EUCLID, Workspace, norm_mode

MEMBERSHIP_TOL = 1e-9


def _mode_for(metric, d: int) -> tuple[int, np.ndarray]:
    """Kernel (mode, weights) of a Workspace, or of the Euclidean norm on
    R^d when ``metric`` is None."""
    if metric is None:
        return norm_mode(NORM_EUCLID, d)
    if isinstance(metric, Workspace):
        return metric.metric_mode()
    raise PreconditionError(f"metric must be a Workspace or None, got {metric!r}")


def dedup_points(keys: np.ndarray) -> np.ndarray:
    """Indices of the first row of each distinct key, in lexicographic key order.

    ``keys`` is an (n, c) int64 array, its first column most significant.
    Of the rows sharing a key, the first in input order is kept: one stable
    sort, of one column where the keys are packed.  The sort merges runs
    that are in order already, so keys made of ascending runs sort in a
    fraction of the time of keys in no order.  Beside the sort order it
    holds one gathered column at a time and a flag per row, and it releases
    the column before it gathers the result.  Indexing the keys with the
    result gives distinct rows, so a second call returns ``arange`` of them.
    """
    keys = np.asarray(keys)
    n = keys.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    order = np.lexsort(keys.T[::-1])
    keep = np.zeros(n, dtype=bool)
    keep[0] = True
    for col in keys.T:
        k = col.take(order)
        keep[1:] |= k[1:] != k[:-1]
        del k
    return order[keep]


def float_keys(points: np.ndarray) -> np.ndarray:
    """Order-preserving int64 keys of finite float rows, one per coordinate.

    A key is the bits of ``x + 0.0`` with the magnitude bits flipped where
    the sign bit is set, so equal values share a key (0.0 and -0.0
    included) and key order is value order.  Refuses rows that are not
    finite.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise StructureError(f"expected (n, d) points, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise PreconditionError("point coordinates must be finite")
    bits = (pts + 0.0).view(np.int64)
    return bits ^ ((bits >> 63) & np.int64(2 ** 63 - 1))


@dataclass(frozen=True, init=False)
class PointCloudSet:
    """Finite set of distinct vectors in lexicographic order.

    Built from finite float rows, it keeps one row per distinct point
    (``float_keys``): rows merge only where they are equal as numbers.
    ``aumann_integral_set`` builds it from a fold's output, whose rows are
    already one per exact sum and in order, and deduplicates nothing twice.
    """

    points: np.ndarray

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        self._freeze(pts[dedup_points(float_keys(pts))])

    @classmethod
    def _canonical(cls, rows: np.ndarray) -> "PointCloudSet":
        """The set of rows that are distinct and ordered already, taken as given."""
        cloud = object.__new__(cls)
        cloud._freeze(rows)
        return cloud

    def _freeze(self, rows: np.ndarray) -> None:
        rows.setflags(write=False)
        object.__setattr__(self, "points", rows)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    def nearest_distance(self, v, metric=None) -> float:
        """Distance from v to its nearest point of the set."""
        mode, weights = _mode_for(metric, self.ambient_dim)
        target = np.asarray(v, dtype=float).reshape(1, -1)
        return _kernels.min_dists(target, self.points, mode, weights, canonical=True)


def cloud_metadata(corr: Correspondence, alg: SigmaPartition, cap: int) -> dict:
    """Provenance block for cloud exports: correspondence hash, algebra,
    cap, and capacity mode (always ``"enumerate"``)."""
    import hashlib
    import json as _json

    digest = hashlib.sha256(
        _json.dumps(corr.to_json(), sort_keys=True).encode()
    ).hexdigest()
    return {
        "corr_sha256": digest,
        "blocks": alg.to_json(),
        "cap": cap,
        "mode": "enumerate",
    }


def integrate_selection(sel: Selection) -> np.ndarray:
    """Mass-weighted sum of the selection: E(f) over the trivial algebra."""
    space = sel.corr.space
    return block_averages(space, SigmaPartition.trivial(space), sel.choice)[0]


def conditional_expectation(sel: Selection, g_alg: SigmaPartition) -> list[np.ndarray]:
    """Per-block averages of the selection, blocks in canonical order
    (see :func:`~corrint.spaces.block_averages`)."""
    return block_averages(sel.corr.space, g_alg, sel.choice)


def _lattice_keys(vals: np.ndarray, starts: list[int], nums: list[int]) -> np.ndarray:
    """Exact int64 keys n_B * v_m * 2**e_m of the blocks' stacked value rows.

    Block B's rows start at ``starts[B]`` and its mass numerator is
    ``nums[B]``.  Every finite double is a dyadic rational, and e_m is the
    least exponent that makes every value of coordinate m an integer.  Each
    column has one positive scale, so the key of a sum of choices is the sum
    of their keys, two sums of mass-weighted values are equal exactly when
    their keys are, and key order is the lexicographic order of the sums.
    Refuses input where a sum of keys over all blocks could leave int64.
    """
    mant, expo = np.frexp(vals)
    ints = (mant * 2.0 ** 53).astype(np.int64)  # exact, as |mant| < 1
    low_bit = np.frexp((ints & -ints).astype(float))[1] - 1
    # bits after the binary point of each value; a zero has none
    e = np.where(ints != 0, 53 - expo - low_bit, 0).max(axis=0, initial=0)
    # the float bound errs by far less than the factor 2 left below 2**63,
    # in any order of summation; a column sum, not a BLAS product
    tops = np.maximum.reduceat(np.abs(vals), starts, axis=0)
    tops *= np.array(nums, dtype=float)[:, None]
    if max(nums) >= 2 ** 62 or not (tops.sum(axis=0) < np.ldexp(1.0, 62 - e)).all():
        raise PreconditionError(
            f"exact fold keys leave int64: mass numerators up to {max(nums)}, "
            f"values scaled by up to 2**{int(e.max())}"
        )
    sizes = np.diff(starts, append=vals.shape[0])
    return np.ldexp(vals, e).astype(np.int64) * np.repeat(np.array(nums, dtype=np.int64), sizes)[:, None]


def _packed_key_maker(acc_keys: np.ndarray, step_keys: np.ndarray):
    """Keys of one fold step's sums on exact keys: ``key_of`` for ``_fold_step``.

    The keys of the sums are packed by mixed radix into one int64: digit m
    is coordinate m less its least value in the step, the first coordinate
    most significant and each radix the coordinate's range in the step
    plus one.  Packing is linear, so each side is packed once and a chunk's
    keys are an outer sum of two vectors, in the order of the exact keys.
    Where the product of the radices leaves int64, the keys are columns.
    """
    lo_a, lo_s = acc_keys.min(axis=0), step_keys.min(axis=0)
    # sums of keys stay within 2**62 (``_lattice_keys``), so no range wraps
    ranges = (acc_keys.max(axis=0) + step_keys.max(axis=0)) - (lo_a + lo_s)
    weights, size = [], 1
    for r in reversed(ranges.tolist()):
        weights.append(size)
        size *= r + 1
    if size > 2 ** 63:
        d = acc_keys.shape[1]
        return lambda r: (acc_keys[r, None, :] + step_keys[None]).reshape(-1, d)
    w = np.array(weights[::-1], dtype=np.int64)
    packed_a, packed_s = (acc_keys - lo_a) @ w, (step_keys - lo_s) @ w
    return lambda r: (packed_a[r, None] + packed_s[None, :]).reshape(-1, 1)


def _fold_step(key_of, na: int, ns: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """(accumulated row, step row) of each kept sum of one fold step, in key order.

    ``key_of(r)`` keys the sums of the accumulated rows in slice ``r`` with
    every step row, accumulated-row major.  Chunks of accumulated rows hold
    at most max(cap, ns) sums each; a chunk's kept sums merge into the
    running set with earlier rows winning ties, so each key keeps its first
    sum in input order, and the set is refused as soon as it passes ``cap``.
    Where the step rows are in key order, each accumulated row's sums are
    one ascending run of keys, and the dedup's sort merges those runs.  A
    kept sum is the pair i * ns + j: the dedup's indices become the pairs
    and the pairs become (i, j) in place, so past the keys and the dedup
    the step holds only the two arrays it returns.
    """
    chunk = max(cap, ns) // ns
    kept_keys = kept = None
    for lo in range(0, na, chunk):
        keys = key_of(slice(lo, lo + chunk))
        nk = 0
        if kept is not None:
            nk = kept.shape[0]
            keys = np.concatenate([kept_keys, keys])
        idx = dedup_points(keys)
        if idx.shape[0] > cap:
            raise CapacityError(idx.shape[0], cap)
        if lo + chunk < na:
            kept_keys = keys.take(idx, axis=0)
        del keys
        # place p >= nk of the keys is this chunk's pair lo * ns + p - nk,
        # and place p < nk the carried pair kept[p]
        shift = lo * ns - nk
        idx += shift
        if nk:
            carried = idx < shift + nk
            idx[carried] = kept.take(idx[carried] - shift)
        kept = idx
    # i * ns + j into (i, j); a division by one scalar is far faster than divmod
    ia = kept // ns
    ia *= ns
    kept -= ia
    ia //= ns
    return ia, kept


def _compositions(total: int, parts: int) -> np.ndarray:
    """Every tuple of ``parts`` non-negative integers summing to ``total``,
    one int64 row each, in lexicographic order.

    A row is the gaps between its cut points 0 <= s_1 <= ... <= s_{parts-1}
    <= total, and rows are in lexicographic order exactly when their cut
    points are.  The cut sequences of length q that start at c are c
    followed by each sequence of length q - 1 whose entries are all >= c:
    a suffix of those, in their order.  So each length is one gather.
    """
    cuts = np.zeros((1, 0), dtype=np.int64)
    for q in range(1, parts):
        # sequences of length q - 1 over [c, total], for each start c
        sizes = np.array([math.comb(total - c + q - 1, q - 1) for c in range(total + 1)])
        skip = np.repeat(cuts.shape[0] - sizes - block_starts(sizes), sizes)
        cuts = np.column_stack([np.repeat(np.arange(total + 1), sizes),
                                cuts[np.arange(skip.shape[0]) + skip]])
    out = np.empty((cuts.shape[0], parts), dtype=np.int64)
    out[:, :-1] = cuts
    out[:, -1] = total
    out[:, 1:] -= cuts
    return out


def _minkowski_fold(sets: list[np.ndarray], weights: list[Fraction], cap: int,
                    d: int) -> np.ndarray:
    """Exact Minkowski sum over blocks B of the weighted choices w_B * v.

    Block by block, every accumulated row is added to every choice of the
    block; of the sums equal in ``_lattice_keys`` the first in that order is
    kept, and the kept rows are in key order.  Consecutive blocks with
    identical choices are one step of multiset sums (compositions of the
    run length), which keeps the refined-uniform case polynomial.  A run
    whose sums with the accumulated rows number more than 64 * cap is
    refused before it is built; otherwise a step takes as many of its
    blocks as have at most ``cap`` compositions, and the rest fold as
    further steps.

    Every step's rows are in key order: a block's choices are in
    lexicographic order, and a run's multiset sums are put in key order by
    one stable sort, which keeps equal keys in the compositions' order and
    so leaves each key's first sum first.  The kept accumulated rows are
    gathered once and the step rows added to them in place, a chunk of
    rows at a time (``_add_rows``), so the fold peaks at about twice the
    rows it returns: those rows and the step's two index arrays.
    """
    sizes = [s.shape[0] for s in sets]
    starts = [0, *itertools.accumulate(sizes)][:-1]
    vals = np.concatenate(sets)
    # rows of block B are w_B * v, the weight correctly rounded
    contribs = vals * np.repeat([float(w) for w in weights], sizes)[:, None]
    den = math.lcm(*(w.denominator for w in weights))
    keys = _lattice_keys(vals, starts, [w.numerator * (den // w.denominator) for w in weights])
    # a run needs equal rows, and equal keys should distinct sums round alike
    blocks = [contribs[a:a + m].tobytes() + keys[a:a + m].tobytes()
              for a, m in zip(starts, sizes)]
    acc = np.zeros((1, d))
    acc_keys = np.zeros((1, d), dtype=np.int64)
    i, nb = 0, len(sets)
    while i < nb:
        a, m = starts[i], sizes[i]
        run = 1
        while i + run < nb and blocks[i + run] == blocks[i]:
            run += 1
        total = acc.shape[0] * math.comb(run + m - 1, m - 1)
        if total > max(cap, 1) * 64:
            raise CapacityError(total, cap)
        while run > 1 and math.comb(run + m - 1, m - 1) > cap:
            run -= 1
        rows = math.comb(run + m - 1, m - 1)
        step, step_keys = contribs[a:a + m], keys[a:a + m]
        if run > 1:
            counts = _compositions(run, m)
            # each multiset's sum adds the block's values in order, one
            # product per term, as no BLAS build reorders it
            sums = counts[:, :1] * step[0]
            for c in range(1, m):
                sums += counts[:, c, None] * step[c]
            step, step_keys = sums, counts @ step_keys
            if m > 1:  # a run of one value is one sum
                order = np.lexsort(step_keys.T[::-1])
                step, step_keys = step.take(order, axis=0), step_keys.take(order, axis=0)
        ia, js = _fold_step(_packed_key_maker(acc_keys, step_keys), acc.shape[0], rows, cap)
        i += run
        if i < nb:
            acc_keys = _add_rows(acc_keys.take(ia, axis=0), step_keys, js)
        acc = acc.take(ia, axis=0)
        del ia
        acc = _add_rows(acc, step, js)
    return acc


def _add_rows(out: np.ndarray, step: np.ndarray, js: np.ndarray) -> np.ndarray:
    """``out += step[js]`` in place, in chunks of rows within
    ``_kernels._CHUNK_BYTES``; returns ``out``."""
    per = max(1, _kernels._CHUNK_BYTES // max(1, step.itemsize * step.shape[1]))
    for lo in range(0, js.shape[0], per):
        out[lo:lo + per] += step.take(js[lo:lo + per], axis=0)
    return out


def aumann_integral_set(
    corr: Correspondence,
    alg: SigmaPartition,
    cap: int = 2_000_000,
) -> PointCloudSet:
    """The exact finite set of integrals of alg-measurable selections.

    The set is the Minkowski sum over blocks B of the mass-weighted choices
    mass(B) * v, folded block by block with dedup pruning, which is exact
    because value sets are finite; ``cap`` bounds the accumulated set.
    """
    space = corr.space
    sets = block_choice_sets(corr, alg)
    if not all(len(cs) for cs in sets):
        return PointCloudSet(np.zeros((0, corr.dim)))
    weights = [space.mass(b) for b in alg.blocks]
    return PointCloudSet._canonical(_minkowski_fold(sets, weights, cap, corr.dim))


@dataclass(frozen=True)
class ConditionalSet:
    """Exact set of conditional expectations, one vector per block.

    The per-block value sets are independent across blocks, so the set is
    their product and is kept as its factors: ``block_sets[j]`` holds the
    attainable averages on the j-th block of ``g_alg`` in canonical order.
    Membership and distances reduce block by block, and nothing builds the
    product itself.
    """

    g_alg: SigmaPartition
    block_sets: tuple[np.ndarray, ...]

    @property
    def size(self) -> int:
        """Number of functions: the product of the block sizes, exact at any size."""
        return math.prod(bs.shape[0] for bs in self.block_sets)

    def __len__(self) -> int:
        # len() itself refuses values past sys.maxsize; ``size`` does not
        return self.size

    def contains_function(self, func, tol: float = MEMBERSHIP_TOL, metric=None) -> bool:
        """Membership via the product structure: per block, a set hit.

        Each block's vector is one target of the nearest-distance search
        against that block's set.
        """
        func = np.asarray(func, dtype=float)
        if func.shape != (len(self.block_sets), self.block_sets[0].shape[1]):
            raise StructureError(
                f"expected ({len(self.block_sets)}, d) block-indexed vectors"
            )
        for target, bs in zip(func, self.block_sets):
            mode, weights = _mode_for(metric, bs.shape[1])
            if _kernels.min_dists(target.reshape(1, -1), bs, mode, weights) > tol:
                return False
        return True


def conditional_set(
    corr: Correspondence,
    t_alg: SigmaPartition,
    g_alg: SigmaPartition,
    cap: int = 2_000_000,
) -> ConditionalSet:
    """All conditional expectations E(f|g_alg) of t_alg-measurable selections.

    Requires t_alg to refine g_alg.  Per conditioning block the attainable
    averages form an exact Minkowski sum over the inner t-blocks, folded
    within ``cap``; the set is the product of these block sets, of any size.
    """
    inner_of = inner_blocks(t_alg, g_alg)
    if inner_of is None:
        raise PreconditionError("t_alg must refine g_alg")
    sets = block_choice_sets(corr, t_alg)
    for tb, cs in zip(t_alg.blocks, sets):
        if not len(cs):
            raise PreconditionError(
                f"no admissible value on block {sorted(tb)}"
            )
    t_nums = block_numerators(corr.space, t_alg).tolist()
    g_nums = block_numerators(corr.space, g_alg).tolist()
    block_sets = []
    for gnum, inner in zip(g_nums, inner_of):
        inner = inner.tolist()
        weights = [Fraction(t_nums[j], gnum) for j in inner]
        block_sets.append(_minkowski_fold([sets[j] for j in inner], weights, cap, corr.dim))
    return ConditionalSet(g_alg, tuple(block_sets))


def lyapunov_mix(
    selections: list[Selection],
    weights,
    f_alg: SigmaPartition,
    t_alg: SigmaPartition,
) -> Selection:
    """A finer-measurable selection whose conditional expectation is the
    weighted mixture of the inputs', exactly.

    This is the package's one equal-mass splitter.  Inside every f_alg
    block the t_alg sub-blocks, in canonical order, fill the weights one
    after another: a sub-block covers the span [lo, hi) of its block's
    mass, weight j owns [w_1 + ... + w_{j-1}, w_1 + ... + w_j) times that
    mass, and the sub-block plays the selection whose part holds lo (zero
    weights own nothing).  The mix exists iff no span crosses a part's
    boundary; all spans and boundaries are exact integers in units of
    1/(den * space.den), den the weights' common denominator, so the parts
    hit every f_alg block in exact proportion.  They are independent of
    f_alg, and E(g|G) mixes exactly for every sub-algebra G of f_alg; with
    n equal weights they are an n-part independent supplement of f_alg on
    every block they split.  A block where every selection plays one value
    takes it whole, unsplit, which mixes it just as exactly.  A unit weight
    returns its selection itself.
    """
    if not selections:
        raise PreconditionError("need at least one selection")
    ws = [Fraction(w) for w in weights]
    if len(ws) != len(selections):
        raise PreconditionError("one weight per selection required")
    if any(w < 0 for w in ws) or sum(ws) != 1:
        raise PreconditionError("weights must be non-negative and sum to 1")
    corr = selections[0].corr
    space = corr.space
    if any(s.corr is not corr for s in selections[1:]):
        raise PreconditionError("selections must share one correspondence")
    for s in selections:
        if not s.is_measurable_against(f_alg):
            raise PreconditionError("selections must be f_alg-measurable")
    lead = coarse_labels(t_alg, f_alg)
    if lead is None:
        raise PreconditionError("t_alg must refine f_alg")

    # degenerate mixture: a unit weight returns that selection itself
    for w, s in zip(ws, selections):
        if w == 1:
            return s

    # the t-blocks grouped by f-block, each group in canonical order: each
    # covers [lo, hi) of its f-block's mass, and weight j's part of that
    # f-block ends at bounds[:, j], all ints in units of 1/(den * space.den)
    den = math.lcm(*(w.denominator for w in ws))
    dtype = _int_dtype(den * space.den)
    by_f = np.argsort(lead, kind="stable")
    f_of = lead[by_f]
    sub = block_numerators(space, t_alg).astype(dtype)[by_f] * den
    f_nums = block_numerators(space, f_alg).astype(dtype)
    hi = np.cumsum(sub) - block_starts(f_nums)[f_of] * den
    lo = hi - sub
    cum = np.cumsum(np.array([w.numerator * (den // w.denominator) for w in ws[:-1]], dtype=dtype))
    bounds = (f_nums[:, None] * cum)[f_of]
    plays = (bounds <= lo[:, None]).sum(axis=1)
    f_order, f_sizes = f_alg.layout
    reps = f_order[block_starts(f_sizes)]  # position of each f-block's least atom
    stack = np.stack([s.choice for s in selections])
    agreed = (stack[:, reps] == stack[0, reps]).all(axis=(0, 2))[f_of]
    crossing = ~agreed & ((bounds < hi[:, None]).sum(axis=1) != plays)
    if crossing.any():
        fb = f_alg.blocks[f_of[crossing.argmax()]]
        raise DivisibilityError(
            f"block {sorted(fb)} cannot realize weights "
            f"{[str(w) for w in ws]} with its sub-block masses"
        )
    plays[agreed] = 0
    t_plays = np.empty_like(plays)
    t_plays[by_f] = plays
    rows = stack[t_plays[t_alg.labels], reps[f_alg.labels]]
    return Selection.from_rows(corr, t_alg, rows)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _vdc_table(first: int, count: int, width: int) -> np.ndarray:
    """Van der Corput radical inverses, shape (count, width): entry [j, m] is
    that of ``first + j`` in base ``_PRIMES[m % 16]``.

    The whole table is one array pass, and each entry takes the scalar
    loop's operations in its order: v += digit * f, then f /= base, from
    f = 1 / base; a finished entry only adds +0.0 after.  Indices past int64
    are kept as Python ints.
    """
    if first < 0:
        raise PreconditionError(f"radical inverses need indices >= 0, got {first}")
    small = first + count <= np.iinfo(np.int64).max
    i = np.arange(first, first + count, dtype=np.int64 if small else object)[:, None]
    base = np.array([_PRIMES[m % len(_PRIMES)] for m in range(width)], dtype=np.int64)
    v = np.zeros((count, width))
    f = 1.0 / base
    while i.any():
        v += (i % base).astype(float) * f
        i = i // base
        f /= base
    return v


def _directions(d: int, seed: int, ndirs: int) -> np.ndarray:
    """The support directions: +e_m and -e_m for each m, then up to ``ndirs``
    unit low-discrepancy directions (those of norm above 1e-9 before
    normalising)."""
    axes = np.eye(d)
    u = _vdc_table(seed + 1, ndirs, d) - 0.5
    nu = np.sqrt(np.sum(u * u, axis=1))
    keep = nu > 1e-9
    return np.concatenate([np.stack([axes, -axes], axis=1).reshape(2 * d, d),
                           u[keep] / nu[keep, None]])


def _support_vertices(cloud: PointCloudSet, seed: int, ndirs: int = 64) -> np.ndarray:
    """Deterministic extreme points of a cloud: support maximizers over a
    fixed low-discrepancy direction family (plus the coordinate directions).

    Of the rows whose score is within 1e-12 of the top, the lexicographically
    largest is kept, which is itself an extreme point of the cloud's hull.
    A score is summed coordinate by coordinate from the first, one product
    per term.  The cloud's rows are in lexicographic order, so they fall into
    groups that share their first d - 1 coordinates, and within a group the
    score is monotone in the last one: a group's best row is its last when
    u_last >= 0, else its first.  One (directions, groups) array of those
    scores gives each direction's top and the last group that reaches it,
    and the kept row is that group's last one at or above the threshold:
    its last row where u_last >= 0, and else the last row that a segmented
    pass over the rows of all those groups finds, in
    ``_kernels._segment_chunks``.
    """
    points = cloud.points
    n, d = points.shape
    dirs = _directions(d, seed, ndirs)
    fresh = np.zeros(n, dtype=bool)
    fresh[0] = True
    for m in range(d - 1):
        col = points[:, m]
        fresh[1:] |= col[1:] != col[:-1]
    starts = np.flatnonzero(fresh)
    del fresh
    ends = np.append(starts[1:], n) - 1
    heads, last = points[starts, :-1], points[:, -1]
    up = dirs[:, -1] >= 0
    # each direction's group, threshold, and its group's first d - 1 terms
    group = np.empty(dirs.shape[0], dtype=np.intp)
    thr, lead = np.empty(dirs.shape[0]), np.empty(dirs.shape[0])
    per = max(1, _kernels._CHUNK_BYTES // (8 * starts.shape[0]))
    for lo in range(0, dirs.shape[0], per):
        u, at = dirs[lo:lo + per], slice(lo, lo + per)
        # each group's score: the first d - 1 terms, then its best last term
        part = np.zeros((u.shape[0], starts.shape[0]))
        for m in range(d - 1):
            part += u[:, m, None] * heads[:, m]
        best = np.where(up[at, None], last[ends], last[starts]) * u[:, -1, None]
        best += part
        thr[at] = best.max(axis=1) - 1e-12
        g = starts.shape[0] - 1 - (best >= thr[at, None])[:, ::-1].argmax(axis=1)
        group[at] = g
        lead[at] = part[np.arange(u.shape[0]), g]
    chosen = ends[group]
    # a falling direction keeps the last row of its group at or above the
    # threshold: one segmented pass over those groups' rows
    fall = np.flatnonzero(~up)
    pick = np.full(fall.shape[0], -1)
    for k, rows in _kernels._segment_chunks(starts[group[fall]], chosen[fall] + 1):
        r = fall.take(k)
        score = last[rows] * dirs[r, -1]
        score += lead.take(r)
        np.maximum.at(pick, k, np.where(score >= thr.take(r), rows, -1))
    chosen[fall] = pick
    rows = points[chosen]
    return rows[dedup_points(float_keys(rows))]


def _probes(verts: np.ndarray, seed: int, samples: int) -> np.ndarray:
    """The gap's probes: every pairwise midpoint of the vertices, then
    ``samples`` low-discrepancy convex combinations of them, one row each.

    A combination's weights are -log of its radical inverses (at least
    1e-12), each over their sum, and the combination adds the weighted
    vertices.  All combinations are one array pass in a fixed order: the
    logs come from libm (``_kernels._libm_log``), and every sum runs over
    the vertices in order, one product per term, with no BLAS call.  So the
    probes do not depend on the BLAS build or on numpy's dispatched
    ``log``.
    """
    nv = verts.shape[0]
    i, j = np.triu_indices(nv, 1)
    w = _kernels._libm_log(np.maximum(_vdc_table(seed + 1, samples, nv), 1e-12)).astype(float)
    np.negative(w, out=w)
    total = w[:, 0].copy()
    for m in range(1, nv):
        total += w[:, m]
    w /= total[:, None]
    combos = w[:, :1] * verts[0]
    for m in range(1, nv):
        combos += w[:, m, None] * verts[m]
    return np.concatenate([(verts[i] + verts[j]) / 2.0, combos])


def convexity_gap(
    cloud: PointCloudSet,
    samples: int = 128,
    metric=None,
    seed: int = 0,
) -> float:
    """Distance from sampled convex combinations of cloud points back to the
    cloud: 0 for convex clouds, positive where midpoints are missing.

    Probes are all pairwise midpoints of the cloud's support vertices plus
    ``samples`` deterministic low-discrepancy convex combinations of them
    (``_probes``); the same seed reproduces the same probes bit for bit, on
    any BLAS build and SIMD level.  The gap is the directed Hausdorff
    distance from the probes to the cloud, one call of the nearest-distance
    search, which scans only the probes that can raise the maximum, in
    batches, each pair of probe and cloud row only until its partial
    distance reaches the probe's bound.
    """
    if len(cloud) == 0:
        raise PreconditionError("gap of an empty cloud is undefined")
    pts = cloud.points
    if len(cloud) == 1:
        return 0.0
    targets = _probes(_support_vertices(cloud, seed), seed, samples)
    mode, weights = _mode_for(metric, pts.shape[1])
    return _kernels.min_dists(targets, pts, mode, weights, canonical=True)


def hausdorff_semidistance(a: PointCloudSet, b: PointCloudSet, metric=None) -> float:
    """max over a of min over b of the pointwise distance (asymmetric).

    One call of the nearest-distance search, which scans only the points of
    a that can raise the maximum.
    """
    if len(a) == 0 or len(b) == 0:
        raise PreconditionError("semidistance needs non-empty clouds")
    mode, weights = _mode_for(metric, a.ambient_dim)
    return _kernels.min_dists(a.points, b.points, mode, weights, canonical=True)

