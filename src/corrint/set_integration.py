"""Aumann integral sets, conditional-expectation sets, mixing, and the
convexity / hemicontinuity diagnostics.

All set computations are exact Minkowski accumulations over finite value
sets; every point cloud is deduplicated by ``dedup_points`` on the
``DEDUP_TOL`` grid (collapsing float fuzz of equal rational combinations)
and membership questions use ``MEMBERSHIP_TOL``.  Nothing here samples: the
only randomness-flavored ingredient, the gap prober's weight sequence, is a
deterministic low-discrepancy stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .correspondences import Correspondence, Selection, _compositions, block_choice_sets
from .errors import (
    CapacityError,
    DivisibilityError,
    PreconditionError,
    StructureError,
)
from .spaces import SigmaPartition, block_averages, is_refinement
from .vectors import NORM_EUCLID, Workspace, norm_mode

DEDUP_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9


def _mode_for(metric, d: int) -> tuple[int, np.ndarray]:
    """Kernel (mode, weights) of a Workspace, or of the Euclidean norm on
    R^d when ``metric`` is None."""
    if metric is None:
        return norm_mode(NORM_EUCLID, d)
    if isinstance(metric, Workspace):
        return metric.metric_mode()
    raise PreconditionError(f"metric must be a Workspace or None, got {metric!r}")


def dedup_points(points: np.ndarray) -> np.ndarray:
    """One row per cell of the ``DEDUP_TOL`` grid, in lexicographic key order.

    A row's key is its coordinates divided by ``DEDUP_TOL`` and rounded to
    integers.  Rows with equal keys merge, and the first of them in input
    order is kept.  So float fuzz of equal rational combinations merges
    unless it straddles a cell boundary at (j + 1/2) ``DEDUP_TOL``, and rows
    more than ``DEDUP_TOL`` apart in some coordinate never merge.
    The output's keys are distinct, so a second call returns it unchanged.

    Refuses points whose keys leave the int64 range, where the cast would
    wrap and merge distinct points.
    """
    pts = np.ascontiguousarray(points, dtype=float)
    if pts.ndim != 2:
        raise StructureError(f"expected (n, d) points, got shape {pts.shape}")
    if pts.shape[0] == 0:
        return pts
    q = pts / DEDUP_TOL
    np.round(q, out=q)
    # reductions only, so the check adds no array of the points' size
    if not -2.0 ** 63 < q.min() <= q.max() < 2.0 ** 63:
        raise PreconditionError(
            f"coordinates from {float(pts.min())!r} to {float(pts.max())!r} do not fit "
            f"the int64 dedup grid of step {DEDUP_TOL!r}"
        )
    q = q.astype(np.int64)
    order = np.lexsort(q.T[::-1])
    q = q[order]
    keep = np.empty(q.shape[0], dtype=bool)
    keep[0] = True
    np.any(q[1:] != q[:-1], axis=1, out=keep[1:])
    return pts[order[keep]]


@dataclass(frozen=True, init=False)
class PointCloudSet:
    """Finite set of vectors, deduplicated by ``dedup_points`` and in its order."""

    points: np.ndarray

    def __init__(self, points):
        pts = dedup_points(points)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    def nearest_distance(self, v, metric=None) -> float:
        """Distance from v to its nearest point of the set."""
        mode, weights = _mode_for(metric, self.ambient_dim)
        target = np.asarray(v, dtype=float).reshape(1, -1)
        return _kernels.min_dists(target, self.points, mode, weights)

    def contains(self, v, tol: float = MEMBERSHIP_TOL, metric=None) -> bool:
        return self.nearest_distance(v, metric) <= tol


def cloud_metadata(
    corr: Correspondence, alg: SigmaPartition, cap: int, mode: str
) -> dict:
    """Provenance block for cloud exports: correspondence hash, algebra,
    cap, and capacity mode."""
    import hashlib
    import json as _json

    digest = hashlib.sha256(
        _json.dumps(corr.to_json(), sort_keys=True).encode()
    ).hexdigest()
    return {
        "corr_sha256": digest,
        "blocks": alg.to_json(),
        "cap": cap,
        "mode": mode,
    }


def integrate_selection(sel: Selection) -> np.ndarray:
    """Mass-weighted sum of the selection: E(f) over the trivial algebra."""
    space = sel.corr.space
    return block_averages(space, SigmaPartition.trivial(space), sel.choice)[0]


def conditional_expectation(sel: Selection, g_alg: SigmaPartition) -> list[np.ndarray]:
    """Per-block averages of the selection, blocks in canonical order
    (see :func:`~corrint.spaces.block_averages`)."""
    return block_averages(sel.corr.space, g_alg, sel.choice)


def _minkowski_fold(contribs: list[np.ndarray], cap: int, d: int) -> np.ndarray:
    """Exact Minkowski accumulation with dedup pruning after every block.

    Consecutive blocks with bit-identical contribution sets are folded as a
    single multiset sum (compositions of the run length), which keeps the
    refined-uniform case polynomial instead of exponential.
    """
    acc = np.zeros((1, d))
    i = 0
    nb = len(contribs)
    while i < nb:
        run = 1
        while i + run < nb and contribs[i + run].shape == contribs[i].shape \
                and contribs[i + run].tobytes() == contribs[i].tobytes():
            run += 1
        block_set = contribs[i]
        if run == 1:
            step = block_set
        else:
            step = _multiset_sums(block_set, run)
        total = acc.shape[0] * step.shape[0]
        if total > max(cap, 1) * 64:
            raise CapacityError(total, cap)
        acc = (acc[:, None, :] + step[None, :, :]).reshape(-1, d)
        acc = dedup_points(acc)
        if acc.shape[0] > cap:
            raise CapacityError(acc.shape[0], cap)
        i += run
    return acc


def _multiset_sums(options: np.ndarray, r: int) -> np.ndarray:
    """All sums of r choices (with repetition) from the option rows."""
    counts = np.array(list(_compositions(r, options.shape[0])), dtype=float)
    return counts @ options


def aumann_integral_set(
    corr: Correspondence,
    alg: SigmaPartition,
    cap: int = 2_000_000,
) -> PointCloudSet:
    """The exact finite set of integrals of alg-measurable selections.

    The set is accumulated block by block, from the mass-weighted choices
    mass(B) * v of each block B, with dedup pruning, which is exact because
    value sets are finite; ``cap`` bounds the accumulated set.
    """
    sets = block_choice_sets(corr, alg)
    if not all(len(cs) for cs in sets):
        return PointCloudSet(np.zeros((0, corr.dim)))
    contribs = [float(corr.space.mass(b)) * cs for b, cs in zip(alg.blocks, sets)]
    return PointCloudSet(_minkowski_fold(contribs, cap, corr.dim))


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
    if not is_refinement(t_alg, g_alg):
        raise PreconditionError("t_alg must refine g_alg")
    space = corr.space
    sets = block_choice_sets(corr, t_alg)
    inner_of = {id(gb): [] for gb in g_alg.blocks}
    for tb, cs in zip(t_alg.blocks, sets):
        if not len(cs):
            raise PreconditionError(
                f"no admissible value on block {sorted(tb)}"
            )
        for gb in g_alg.blocks:
            if tb <= gb:
                inner_of[id(gb)].append((tb, cs))
                break
    block_sets = []
    for gb in g_alg.blocks:
        gnum = space.numerator(gb)
        contribs = [(space.numerator(tb) / gnum) * cs for tb, cs in inner_of[id(gb)]]
        block_sets.append(_minkowski_fold(contribs, cap, corr.dim))
    return ConditionalSet(g_alg, tuple(block_sets))


def lyapunov_mix(
    selections: list[Selection],
    weights,
    f_alg: SigmaPartition,
    t_alg: SigmaPartition,
) -> Selection:
    """A finer-measurable selection whose conditional expectation is the
    weighted mixture of the inputs', exactly.

    Inside every f_alg block the t_alg sub-blocks are grouped into parts
    whose mass fractions equal the weights (round-robin when the sub-blocks
    are uniform and the weights equal, exact consecutive filling otherwise);
    the part assigned to weight j plays selection j's block value.  The
    parts hit every f_alg block in exact proportion, i.e. they are
    independent of f_alg, so E(g|G) mixes exactly for every sub-algebra G
    of f_alg.  This is the package's one equal-mass splitter: with n equal
    weights its parts are an n-part independent supplement of f_alg.
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
    if not is_refinement(t_alg, f_alg):
        raise PreconditionError("t_alg must refine f_alg")

    # degenerate mixture: a unit weight returns that selection itself
    for w, s in zip(ws, selections):
        if w == 1:
            return s

    choice_map: dict[int, np.ndarray] = {}
    for fb in f_alg.blocks:
        inner = [tb for tb in t_alg.blocks if tb <= fb]
        inner.sort(key=min)
        # masses in units of 1/space.den: exact ints
        fnum = space.numerator(fb)
        sub_nums = [space.numerator(tb) for tb in inner]
        uniform = len(set(sub_nums)) == 1
        rep = min(fb)
        if uniform and len(set(ws)) == 1:
            n = len(ws)
            if len(inner) % n:
                raise DivisibilityError(
                    f"block {sorted(fb)}: {len(inner)} sub-blocks not divisible by {n}"
                )
            for pos, tb in enumerate(inner):
                v = selections[pos % n].at(rep)
                for a in tb:
                    choice_map[a] = v
        else:
            quotas = [w * fnum for w in ws]
            gi = 0
            acc = 0
            for tb, tm in zip(inner, sub_nums):
                while gi < len(ws) and quotas[gi] == 0:
                    gi += 1
                if gi >= len(ws):
                    raise DivisibilityError(
                        f"block {sorted(fb)} cannot realize weights "
                        f"{[str(w) for w in ws]} with its sub-block masses"
                    )
                v = selections[gi].at(rep)
                for a in tb:
                    choice_map[a] = v
                acc += tm
                if acc == quotas[gi]:
                    acc = 0
                    gi += 1
                elif acc > quotas[gi]:
                    raise DivisibilityError(
                        f"block {sorted(fb)} cannot realize weights "
                        f"{[str(w) for w in ws]} with its sub-block masses"
                    )
            while gi < len(ws) and quotas[gi] == 0:
                gi += 1
            if gi != len(ws):
                raise DivisibilityError(
                    f"block {sorted(fb)} cannot realize weights "
                    f"{[str(w) for w in ws]} with its sub-block masses"
                )
    return Selection(corr, t_alg, choice_map)


def _vdc(i: int, base: int) -> float:
    v, f = 0.0, 1.0 / base
    while i:
        v += (i % base) * f
        i //= base
        f /= base
    return v


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _support_vertices(points: np.ndarray, seed: int, ndirs: int = 64) -> np.ndarray:
    """Deterministic extreme points: support maximizers over a fixed
    low-discrepancy direction family (plus the coordinate directions).

    Within a maximizing face the lexicographically largest point is kept,
    which is itself an extreme point of the cloud's hull.
    """
    n, d = points.shape
    dirs = []
    for m in range(d):
        e = np.zeros(d)
        e[m] = 1.0
        dirs.append(e)
        dirs.append(-e)
    for j in range(ndirs):
        u = np.array([
            _vdc(seed + j + 1, _PRIMES[m % len(_PRIMES)]) - 0.5 for m in range(d)
        ])
        nu = float(np.sqrt(np.sum(u * u)))
        if nu > 1e-9:
            dirs.append(u / nu)
    chosen: dict[bytes, np.ndarray] = {}
    for u in dirs:
        scores = points @ u
        top = scores.max()
        cand = points[np.flatnonzero(scores >= top - 1e-12)]
        order = np.lexsort(cand.T[::-1])
        v = cand[order[-1]]
        chosen.setdefault(v.tobytes(), v)
    vs = sorted(chosen.values(), key=lambda v: tuple(v.tolist()))
    return np.array(vs)


def convexity_gap(
    cloud: PointCloudSet,
    samples: int = 128,
    metric=None,
    seed: int = 0,
) -> float:
    """Distance from sampled convex combinations of cloud points back to the
    cloud: 0 for convex clouds, positive where midpoints are missing.

    Probes are all pairwise midpoints of the cloud's support vertices plus
    ``samples`` deterministic low-discrepancy convex combinations of them;
    the same seed reproduces the same probes bit for bit.  The gap is the
    directed Hausdorff distance from the probes to the cloud, one call of
    the nearest-distance search, which scans only the probes that can
    raise the maximum.
    """
    if len(cloud) == 0:
        raise PreconditionError("gap of an empty cloud is undefined")
    pts = cloud.points
    if len(cloud) == 1:
        return 0.0
    verts = _support_vertices(pts, seed)
    nv = verts.shape[0]
    targets = []
    for i in range(nv):
        for j in range(i + 1, nv):
            targets.append((verts[i] + verts[j]) / 2.0)
    for s in range(samples):
        raw = np.array([
            _vdc(seed + s + 1, _PRIMES[m % len(_PRIMES)]) for m in range(nv)
        ])
        w = -np.log(np.maximum(raw, 1e-12))
        w = w / w.sum()
        targets.append(w @ verts)
    mode, weights = _mode_for(metric, pts.shape[1])
    return _kernels.min_dists(np.array(targets), pts, mode, weights)


def hausdorff_semidistance(a: PointCloudSet, b: PointCloudSet, metric=None) -> float:
    """max over a of min over b of the pointwise distance (asymmetric).

    One call of the nearest-distance search, which scans only the points of
    a that can raise the maximum.
    """
    if len(a) == 0 or len(b) == 0:
        raise PreconditionError("semidistance needs non-empty clouds")
    mode, weights = _mode_for(metric, a.ambient_dim)
    return _kernels.min_dists(a.points, b.points, mode, weights)

