"""Reference implementations that tests compare the package against.

Two kinds live here.  The first are references the package no longer
needs itself: point evaluation of the Walsh functions, the scalar payoffs
h and G of the explicit game, the round-robin candidate profile, the
per-atom best-response loop, the per-atom partition of a profile, the
enumeration of measurable selections, the dyadic convexification, the
Minkowski fold on the ``DEDUP_TOL`` grid, the recursive composition
generator, the lexicographic order by tuple comparison, the support
vertices and gap probes taken one projection and one scalar radical
inverse at a time, the support vertices' loop over falling runs, and the
nearest-distance search that found its seed rows by a ``searchsorted`` of
the rows as records and scanned one target's window at a time.  Tests use
them as the reference for cell signs, payoff tables, best responses,
Aumann sets, fold steps, support vertices, probes and nearest distances,
or to build inputs.

The second kind is the one-vector-at-a-time construction logic.
``Correspondence``, ``Selection`` and ``TransitionKernel`` stack their
vectors into one array and key each row once.  The functions after the
first kind are the per-vector forms they replaced, kept so that tests can
compare the two on small instances: every value set made canonical
through a bytes dict and a sort of ``tuple(v.tolist())``, membership by
``np.array_equal``, block constancy and value-set intersection by bytes
keys, and kernel entries merged by bytes keys with ``Fraction`` sums.
Each raises ``StructureError`` where the constructor it mirrors did.
Unlike the old code, they copy every vector before freezing it, so the
caller's arrays stay writeable.

The third kind is the per-atom code that labels and array passes
replaced: the conditional average added atom by atom with int weights,
refinement and nowhere equivalence by subset tests between blocks, the
``Correspondence`` canonicalization through per-set dicts of row bytes,
``Selection``'s index lookup through a dict of row tuples and its block
constancy through a dict of row bytes, ``lyapunov_mix`` and
``conditional_set`` by subset filter and a mass sum per sub-block, the
exhaustive scan's arguments gathered block by block and atom by atom, the
kernel barycenter added point by
point, the game's per-atom ``phi`` and ``cell_of`` tables, the
tower-barycenter check as one small space per instance, and the kernel
constructor, ``rcd_of_selection`` and ``kernel_mix`` entry by entry: a
dict of row bytes per block, one ``Fraction`` division per atom and one
``Fraction`` product per mixed entry.  Last come the forms that flat
arrays replaced: the row merge as lexsorts over 2d + 1 ``copysign`` and
value keys and over d + 2 keys, ``Correspondence`` from a mapping with
one stack per atom and a dict of row bytes for set sharing, and
``block_choice_sets`` as a loop over blocks intersecting sets of row
bytes.
"""
import itertools
import math
from fractions import Fraction

import numpy as np

from corrint._kernels import MODE_EUCLID, MODE_WSUM, _lex_sorted, _row_dists
from corrint.correspondences import Correspondence, Selection, _stack_vectors
from corrint.correspondences import block_choice_sets as package_block_choice_sets
from corrint.errors import (
    CapacityError,
    DivisibilityError,
    PreconditionError,
    StructureError,
)
from corrint.game import TIE_TOL, StrategyProfile, _canonical_tie_sets, root_of_unity_gap
from corrint.rcd import rcd_of_selection
from corrint.set_integration import (
    _PRIMES,
    _directions,
    _minkowski_fold,
    dedup_points,
    float_keys,
)
from corrint.spaces import DiscreteSpace, SigmaPartition, block_starts
from corrint.vectors import NORM_EUCLID, norm, zero_vector

# the cell width of the grid that ``grid_dedup`` keys float rows on
DEDUP_TOL = 1e-12


def walsh_eval(n: int, l) -> int:
    """Evaluate W_n at l in [0,1]; returns +1 or -1.

    Dyadic rationals use their terminating expansion, so on a level-L cell
    with n < 2**L it agrees with ``walsh_sign_on_cell`` at every point.
    """
    if n < 0:
        raise PreconditionError(f"Walsh index must be >= 0, got {n}")
    lf = Fraction(l)
    if not 0 <= lf <= 1:
        raise PreconditionError(f"argument {l} outside [0,1]")
    if n == 0:
        return 1
    acc = 0
    frac = lf - int(lf)  # l = 1 uses the terminating expansion: all digits 0
    for j in range(n.bit_length()):
        frac *= 2
        digit = int(frac)
        frac -= digit
        acc += ((n >> j) & 1) & digit
    return -1 if acc & 1 else 1


def payoff_h(l, a, xs, theta: float, gamma=0, k: int | None = None,
             flavor: str = NORM_EUCLID) -> float:
    """The oscillating penalty h(l, a, x_1..x_k, theta); zero when theta = 0
    or l lies in the atomic part [0, gamma]."""
    gamma_f = float(Fraction(gamma))
    lf = float(Fraction(l))
    if k is None:
        k = len(xs)
    if len(xs) != k:
        raise PreconditionError(f"need k = {k} profile points, got {len(xs)}")
    if theta < 0:
        raise PreconditionError(f"theta must be >= 0, got {theta}")
    if theta == 0.0 or lf <= gamma_f:
        return 0.0
    a = np.asarray(a, dtype=float)
    xs = [np.asarray(x, dtype=float) for x in xs]
    total = np.zeros_like(a)
    for x in xs:
        total = total + x
    u = (lf - gamma_f) / theta
    rho = int(math.floor(u))
    val = theta * abs(math.sin(u * math.pi)) * (norm(a, flavor) + root_of_unity_gap(0, rho, k))
    for i in range(1, k + 1):
        mix_i = (xs[i - 1] + total) / (k + 1)
        val *= norm(a - mix_i, flavor) + root_of_unity_gap(i, rho, k)
    return val


def payoff_G(game, t: int, a, b) -> float:
    """Payoff of player t taking action a against societal aggregate b."""
    pay = game.payoff
    bnd = pay.bundle
    model = bnd.model
    a = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    theta = pay.beta * norm(bv - bnd.e_mean(), pay.flavor)
    cell = model.cell_of(t)
    if cell is None:
        xs = [zero_vector(bnd.d) for _ in range(bnd.k)]
    else:
        xs = [f.values[cell] for f in bnd.f_list]
    h = payoff_h(model.phi(t), a, xs, theta, bnd.gamma, bnd.k, pay.flavor)
    total = np.zeros(bnd.d)
    for x in xs:
        total = total + x
    prod = norm(a, pay.flavor)
    for i in range(bnd.k):
        prod *= norm(a - (xs[i] + total) / (bnd.k + 1), pay.flavor)
    return -h - prod


def _block_positions(game) -> dict[int, int]:
    """Atom -> position within its characteristic block (ascending ids)."""
    return {a: p for blk in game.f_alg.blocks for p, a in enumerate(sorted(blk))}


def balanced_profile(game) -> StrategyProfile:
    """The constructive candidate equilibrium: round-robin over each block.

    Atom at position p of its characteristic block plays the p-th canonical
    candidate (zero action, then the cell's mixed points).  When k+1 divides
    every block's atom count its aggregate is the mean of the e_i and the
    induced parts form the balanced independent partition.
    """
    tie_sets = _canonical_tie_sets(game)
    positions = _block_positions(game)
    play = []
    for ti, atom in enumerate(game.space.ids):
        cands = tie_sets[ti]
        play.append(cands[positions[atom] % len(cands)])
    return StrategyProfile(tuple(play))


def best_response_loop(game, table) -> tuple[int, ...]:
    """Every player's response to an (atoms, actions) payoff table, atom by atom.

    The ties are the actions within ``TIE_TOL`` of the atom's best payoff.
    More than one tie with the canonical candidate set among them plays
    round-robin by the atom's position in its characteristic block;
    anything else plays the first tie.
    """
    tie_sets = _canonical_tie_sets(game)
    positions = _block_positions(game)
    play = []
    for ti, atom in enumerate(game.space.ids):
        vals = table[ti]
        top = vals.max()
        ties = [int(i) for i in np.flatnonzero(vals >= top - TIE_TOL)]
        if len(ties) > 1 and set(tie_sets[ti]) <= set(ties):
            cands = tie_sets[ti]
            play.append(cands[positions[atom] % len(cands)])
        else:
            play.append(ties[0])
    return tuple(play)


def partition_loop(game, profile):
    """(parts, note): the atoms of each part of a profile, as
    ``verify_equilibrium_partition`` read them one atom at a time, or
    (None, the reason) when the profile is not applicable."""
    model = game.payoff.bundle.model
    k = game.payoff.k
    parts = [set() for _ in range(k + 1)]
    zero_idx = int(np.argmin(game.actions.any(axis=1)))
    mixes = game.cell_mixes[0]
    for atom, p in zip(model.space.ids, profile.play):
        cell = model.cell_of(atom)
        if cell is None:
            if p != zero_idx:
                return None, "atomic-part player does not play the zero action"
            continue
        if p == zero_idx:
            parts[0].add(atom)
            continue
        hit = next((i + 1 for i in range(k) if np.array_equal(game.actions[p], mixes[cell, i])),
                   None)
        if hit is None:
            return None, f"player {atom} plays outside the candidate set"
        parts[hit].add(atom)
    return parts, ""


def enumerate_selections(corr, alg, cap: int):
    """Yield every alg-measurable selection once, in lexicographic order.

    Blocks run in canonical order and per-block choices in canonical vector
    order; the last block varies fastest.  A block with no common value
    leaves nothing to yield.
    """
    sets = package_block_choice_sets(corr, alg)
    count = math.prod(len(cs) for cs in sets)
    if count > cap:
        raise CapacityError(count, cap)
    for combo in itertools.product(*sets):
        cmap = {}
        for b, v in zip(alg.blocks, combo):
            for a in b:
                cmap[a] = v
        yield Selection(corr, alg, cmap)


def compositions(total: int, parts: int):
    """All tuples of ``parts`` non-negative integers summing to ``total``,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def lex_sorted(rows) -> bool:
    """Whether each row is at most the next as a tuple of floats (-0.0 == 0.0)."""
    rows = [tuple(r) for r in np.asarray(rows, dtype=float).tolist()]
    return all(a <= b for a, b in zip(rows, rows[1:]))


def vdc(i: int, base: int) -> float:
    """The radical inverse of i in the base, digit by digit."""
    v, f = 0.0, 1.0 / base
    while i:
        v += (i % base) * f
        i //= base
        f /= base
    return v


def support_directions(d: int, seed: int, ndirs: int = 64) -> list[np.ndarray]:
    """+e_m and -e_m for each m, then each low-discrepancy direction of norm
    above 1e-9, normalised, one at a time."""
    dirs = []
    for m in range(d):
        e = np.zeros(d)
        e[m] = 1.0
        dirs.append(e)
        dirs.append(-e)
    for j in range(ndirs):
        u = np.array([vdc(seed + j + 1, _PRIMES[m % len(_PRIMES)]) - 0.5 for m in range(d)])
        nu = float(np.sqrt(np.sum(u * u)))
        if nu > 1e-9:
            dirs.append(u / nu)
    return dirs


def support_vertices(points, seed: int, ndirs: int = 64) -> np.ndarray:
    """The projection form: per direction, the whole cloud's scores
    ``points @ u``, the rows within 1e-12 of the top, and of those the
    lexicographically largest; the distinct rows chosen, in key order."""
    points = np.asarray(points, dtype=float)
    dirs = support_directions(points.shape[1], seed, ndirs)
    chosen = np.empty((len(dirs), points.shape[1]))
    for r, u in enumerate(dirs):
        scores = points @ u
        cand = points[np.flatnonzero(scores >= scores.max() - 1e-12)]
        chosen[r] = cand[np.lexsort(cand.T[::-1])[-1]]
    return chosen[dedup_points(float_keys(chosen))]


def support_vertices_runs(points, seed: int, ndirs: int = 64) -> np.ndarray:
    """The run form that the segmented pass replaced: the two ends of each
    run of rows sharing their first d - 1 coordinates scored in one
    (directions, runs) array, and each falling direction's run rescanned
    alone, in a loop over those directions, for its last row at or above
    the threshold."""
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    dirs = _directions(d, seed, ndirs)
    if not _lex_sorted(points):
        points = points[np.lexsort(points.T[::-1])]
    fresh = np.zeros(n, dtype=bool)
    fresh[0] = True
    for m in range(d - 1):
        col = points[:, m]
        fresh[1:] |= col[1:] != col[:-1]
    starts = np.flatnonzero(fresh)
    ends = np.append(starts[1:], n) - 1
    heads, last = points[starts, :-1], points[:, -1]
    up = dirs[:, -1] >= 0
    chosen = np.empty(dirs.shape[0], dtype=np.intp)
    part = np.zeros((dirs.shape[0], starts.shape[0]))
    for m in range(d - 1):
        part += dirs[:, m, None] * heads[:, m]
    best = np.where(up[:, None], last[ends], last[starts]) * dirs[:, -1, None]
    best += part
    thr = best.max(axis=1) - 1e-12
    g = starts.shape[0] - 1 - (best >= thr[:, None])[:, ::-1].argmax(axis=1)
    chosen[:] = ends[g]
    for r in np.flatnonzero(~up):
        span = slice(starts[g[r]], ends[g[r]] + 1)
        score = last[span] * dirs[r, -1]
        score += part[r, g[r]]
        chosen[r] = span.start + np.flatnonzero(score >= thr[r])[-1]
    rows = points[chosen]
    return rows[dedup_points(float_keys(rows))]


def gap_probes(verts, seed: int, samples: int) -> np.ndarray:
    """The gap's probes, each convex combination drawn one scalar radical
    inverse at a time: weights -log through libm's ``math.log``, their sum
    and the combination each added vertex by vertex, from the first."""
    nv = verts.shape[0]
    i, j = np.triu_indices(nv, 1)
    targets = [(verts[i] + verts[j]) / 2.0]
    for s in range(samples):
        w = [-math.log(max(vdc(seed + s + 1, _PRIMES[m % len(_PRIMES)]), 1e-12))
             for m in range(nv)]
        total = w[0]
        for x in w[1:]:
            total += x
        w = [x / total for x in w]
        probe = w[0] * verts[0]
        for m in range(1, nv):
            probe = probe + w[m] * verts[m]
        targets.append(probe[None])
    return np.concatenate(targets)


def lex_records(rows) -> np.ndarray:
    """C-contiguous float rows as records that compare lexicographically."""
    rows = np.ascontiguousarray(rows, dtype=float)
    fields = np.dtype([(f"c{m}", "f8") for m in range(rows.shape[1])])
    return rows.view(fields)[:, 0]


def lex_insertion_records(cloud, keys) -> np.ndarray:
    """Left insertion points of the key rows among the lexicographically
    sorted cloud rows, by one ``searchsorted`` of the rows as records."""
    return np.searchsorted(lex_records(cloud), lex_records(keys))


def window_scan_min_dists(targets, cloud, mode, weights) -> float:
    """The per-target form of ``_kernels.min_dists``: seed rows found by a
    ``searchsorted`` of the rows as records, then each target's window
    scanned alone, in descending order of the seed bounds, until a bound is
    at most the maximum found.  Takes valid input only."""
    targets = np.asarray(targets, dtype=float)
    cloud = np.asarray(cloud, dtype=float)
    nt, n = targets.shape[0], cloud.shape[0]
    w = np.asarray(weights, dtype=float) + 0.0
    if np.array_equal(targets, cloud):
        return 0.0
    if not _lex_sorted(cloud):
        cloud = cloud[np.lexsort(cloud.T[::-1])]
    cloud = np.ascontiguousarray(cloud)
    cols, tcols = np.ascontiguousarray(cloud.T), targets.T
    c0, t0 = cols[0], tcols[0]
    p = np.searchsorted(c0, t0)
    best = np.full(nt, np.inf)
    for v in (c0[np.maximum(p - 1, 0)], c0[np.minimum(p, n - 1)]):
        key = targets.copy()
        key[:, 0] = v
        q = lex_insertion_records(cloud, key)
        for s in (np.maximum(q - 1, 0), np.minimum(q, n - 1)):
            np.minimum(best, _row_dists(tcols, cols[:, s], mode, w), out=best)
    if mode == MODE_EUCLID:
        r = np.sqrt(best)
    elif mode == MODE_WSUM:
        with np.errstate(over="ignore"):
            r = best / w[0] if w[0] > 0 else np.full(nt, np.inf)
    else:
        r = best
    rho = np.nextafter(r, np.inf)
    lo = np.searchsorted(c0, t0 - rho, "left")
    hi = np.searchsorted(c0, t0 + rho, "right")
    top = -math.inf
    for i in np.argsort(-best, kind="stable"):
        if best[i] <= top:
            break
        window = cols[:, lo[i]:hi[i]]
        top = max(top, float(_row_dists(targets[i], window, mode, w).min(initial=best[i])))
    return math.sqrt(top) if mode == MODE_EUCLID else top


def dyadic_convexify(corr, resolution: int):
    """Replace each value set by its dyadic-weight mixtures at the resolution.

    Every atom's set becomes { sum_i (c_i/resolution) v_i : c_i >= 0 integers
    summing to resolution }, deduplicated.
    """
    if resolution < 1:
        raise PreconditionError("resolution must be >= 1")
    vmap = {}
    for a, tup in zip(corr.space.ids, corr.values):
        pts = []
        for counts in compositions(resolution, len(tup)):
            v = np.zeros(corr.dim)
            for c, vec in zip(counts, tup):
                v += (c / resolution) * vec
            pts.append(v)
        vmap[a] = pts
    return Correspondence(corr.space, vmap)


def grid_dedup(points) -> np.ndarray:
    """One row per cell of the ``DEDUP_TOL`` grid, in lexicographic key order.

    A row's key is its coordinates divided by ``DEDUP_TOL`` and rounded to
    int64; of the rows sharing a key the first in input order is kept.
    Refuses keys past the int64 range.
    """
    pts = np.ascontiguousarray(points, dtype=float)
    if pts.shape[0] == 0:
        return pts
    q = np.round(pts / DEDUP_TOL)
    if not -2.0 ** 63 < q.min() <= q.max() < 2.0 ** 63:
        raise PreconditionError("coordinates do not fit the int64 dedup grid")
    q = q.astype(np.int64)
    order = np.lexsort(q.T[::-1])
    q = q[order]
    keep = np.ones(q.shape[0], dtype=bool)
    keep[1:] = np.any(q[1:] != q[:-1], axis=1)
    return pts[order[keep]]


def grid_fold(contribs, cap: int, d: int) -> np.ndarray:
    """Minkowski sum of the blocks' weighted value sets, pruned by
    ``grid_dedup`` after every step of the whole outer sum.

    Consecutive bit-identical blocks are one step of multiset sums, cut
    after as many blocks as have at most ``cap`` compositions; a run past
    64 * cap sums or a pruned set past its cap raises ``CapacityError``, as
    in the package's fold.
    """
    acc = np.zeros((1, d))
    i = 0
    while i < len(contribs):
        m = contribs[i].shape[0]
        run = 1
        while i + run < len(contribs) and contribs[i + run].shape == contribs[i].shape \
                and contribs[i + run].tobytes() == contribs[i].tobytes():
            run += 1
        total = acc.shape[0] * math.comb(run + m - 1, m - 1)
        if total > max(cap, 1) * 64:
            raise CapacityError(total, cap)
        while run > 1 and math.comb(run + m - 1, m - 1) > cap:
            run -= 1
        step = contribs[i]
        if run > 1:
            # each multiset's sum in the package's order: value by value
            counts = np.array(list(compositions(run, m)), dtype=float)
            step = sum((counts[:, c, None] * step[c] for c in range(1, m)), counts[:, :1] * step[0])
        acc = grid_dedup((acc[:, None, :] + step[None, :, :]).reshape(-1, d))
        if acc.shape[0] > cap:
            raise CapacityError(acc.shape[0], cap)
        i += run
    return acc


def grid_aumann_points(corr, alg, cap: int) -> np.ndarray:
    """The points of ``aumann_integral_set`` by ``grid_fold``."""
    sets = package_block_choice_sets(corr, alg)
    if not all(len(cs) for cs in sets):
        return np.zeros((0, corr.dim))
    contribs = [float(corr.space.mass(b)) * cs for b, cs in zip(alg.blocks, sets)]
    return grid_fold(contribs, cap, corr.dim)


def grid_conditional_blocks(corr, t_alg, g_alg, cap: int) -> list[np.ndarray]:
    """The ``block_sets`` of ``conditional_set`` by ``grid_fold``."""
    space = corr.space
    sets = package_block_choice_sets(corr, t_alg)
    out = []
    for gb in g_alg.blocks:
        inner = [(tb, cs) for tb, cs in zip(t_alg.blocks, sets) if tb <= gb]
        gnum = space.numerator(gb)
        contribs = [(space.numerator(tb) / gnum) * cs for tb, cs in inner]
        out.append(grid_fold(contribs, cap, corr.dim))
    return out


def _freeze(v) -> np.ndarray:
    v = np.array(v, dtype=float)
    v.setflags(write=False)
    return v


def vec_key(v) -> bytes:
    return np.ascontiguousarray(v, dtype=float).tobytes()


def canonical_value_tuple(values) -> tuple[np.ndarray, ...]:
    """One atom's value set: finite, distinct bit for bit, in lexicographic order."""
    uniq: dict[bytes, np.ndarray] = {}
    for v in values:
        arr = _freeze(v)
        if not np.all(np.isfinite(arr)):
            raise StructureError("correspondence values must be finite")
        uniq.setdefault(vec_key(arr), arr)
    return tuple(sorted(uniq.values(), key=lambda a: tuple(a.tolist())))


def correspondence_values(space, value_map) -> tuple[tuple[np.ndarray, ...], ...]:
    """The value sets ``Correspondence(space, value_map)`` holds, aligned with ids."""
    vals = []
    for a in space.ids:
        if a not in value_map:
            raise StructureError(f"no value set for atom {a}")
        tup = canonical_value_tuple(value_map[a])
        if not tup:
            raise StructureError(f"empty value set at atom {a}")
        vals.append(tup)
    dims = {v.shape[0] for tup in vals for v in tup}
    if len(dims) != 1:
        raise StructureError(f"mixed value dimensions {sorted(dims)}")
    return tuple(vals)


def is_member(v, vset) -> bool:
    return any(np.array_equal(v, w) for w in vset)


def constant_on(choice_of: dict, block) -> bool:
    """True iff the atoms of ``block`` carry bit-identical choices."""
    return len({vec_key(choice_of[a]) for a in block}) == 1


def selection_choice(space, values, alg, choice_map) -> tuple[np.ndarray, ...]:
    """The choices ``Selection`` holds, given the oracle's value sets."""
    if alg.atom_set != space.atom_set:
        raise StructureError("selection algebra does not cover the space")
    choices = []
    for a, vset in zip(space.ids, values):
        if a not in choice_map:
            raise StructureError(f"no choice at atom {a}")
        v = _freeze(choice_map[a])
        if not is_member(v, vset):
            raise StructureError(f"choice at atom {a} is not a correspondence value")
        choices.append(v)
    choice_of = dict(zip(space.ids, choices))
    for b in alg.blocks:
        if not constant_on(choice_of, b):
            raise StructureError(f"choice not constant on block {sorted(b)}")
    return tuple(choices)


def check_measurable(space, values, alg) -> bool:
    sets = dict(zip(space.ids, values))
    return all(
        len({tuple(vec_key(v) for v in sets[a]) for a in b}) == 1 for b in alg.blocks
    )


def block_choice_sets(space, values, alg) -> list[tuple[np.ndarray, ...]]:
    sets = dict(zip(space.ids, values))
    out = []
    for b in alg.blocks:
        atoms = sorted(b)
        common = {vec_key(v): v for v in sets[atoms[0]]}
        for a in atoms[1:]:
            keys = {vec_key(v) for v in sets[a]}
            common = {k: v for k, v in common.items() if k in keys}
        out.append(tuple(sorted(common.values(), key=lambda v: tuple(v.tolist()))))
    return out


def kernel_blocks(g_alg, per_block):
    """(supports, weights) of ``TransitionKernel(g_alg, per_block)``, per block."""
    supports = []
    weights = []
    for b, dist in zip(g_alg.blocks, per_block):
        merged: dict[bytes, tuple[np.ndarray, Fraction]] = {}
        for v, w in dist:
            w = Fraction(w)
            if w < 0:
                raise StructureError(f"negative weight {w} in block {sorted(b)}")
            arr = _freeze(v)
            if not np.isfinite(arr).all():
                raise StructureError("kernel support points must be finite")
            key = vec_key(arr)
            if key in merged:
                merged[key] = (merged[key][0], merged[key][1] + w)
            elif w > 0:
                merged[key] = (arr, w)
        items = sorted(merged.values(), key=lambda it: tuple(it[0].tolist()))
        total = sum((w for _, w in items), Fraction(0))
        if total != 1:
            raise StructureError(f"weights in block {sorted(b)} sum to {total}, not 1")
        supports.append(tuple(v for v, _ in items))
        weights.append(tuple(w for _, w in items))
    return tuple(supports), tuple(weights)


def same_rows(stack: np.ndarray, rows) -> bool:
    """True iff the (m, d) ``stack`` holds exactly ``rows``, bit for bit, in order."""
    return len(stack) == len(rows) and all(
        r.shape == s.shape and r.tobytes() == s.tobytes() for r, s in zip(rows, stack)
    )


def outcome(fn, *args):
    """``("ok", result)`` or ``("raised", exception class)``."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the class is compared by the caller
        return "raised", type(exc)


# -- per-atom forms replaced by labels and array passes -----------------------


def space_numerators_loop(masses) -> tuple[int, tuple[int, ...]]:
    """``DiscreteSpace``'s (den, numerators), atom by atom: a positivity
    check and a scaling to the common denominator for every mass."""
    for m in masses:
        if m <= 0:
            raise StructureError(f"atom mass {m} is not strictly positive")
    den = math.lcm(*(m.denominator for m in masses))
    nums = tuple(m.numerator * (den // m.denominator) for m in masses)
    if sum(nums) != den:
        raise StructureError("atom masses must sum exactly to 1")
    return den, nums


def block_averages_loop(space, alg, values) -> list[np.ndarray]:
    """E(f|alg) atom by atom: n_t / N_B * row added in ascending id order."""
    nums = space.numerators
    out = []
    for b in alg.blocks:
        pos = sorted(space.position(a) for a in b)
        total = sum(nums[i] for i in pos)
        acc = np.zeros(len(values[pos[0]]))
        for i in pos:
            acc += (nums[i] / total) * values[i]
        out.append(acc)
    return out


def transition_kernel_loop(g_alg, per_block):
    """(supports, weights) of ``TransitionKernel(g_alg, per_block)``, entry
    by entry: per block, a dict from row bytes to (first index, numerator
    over the block's lcm of denominators), sorted by the rows as lists."""
    if len(per_block) != len(g_alg.blocks):
        raise StructureError(
            f"{len(per_block)} block distributions for {len(g_alg.blocks)} blocks"
        )
    vectors, nums, dens, sizes = [], [], [], []
    for b, dist in zip(g_alg.blocks, per_block):
        n = len(nums)
        for v, w in dist:
            w = Fraction(w)
            if w.numerator < 0:
                raise StructureError(f"negative weight {w} in block {sorted(b)}")
            vectors.append(v)
            nums.append(w.numerator)
            dens.append(w.denominator)
        sizes.append(len(nums) - n)
    try:
        raw = np.array(vectors, dtype=float) if vectors else np.zeros((0, 0))
    except ValueError:
        raise StructureError("kernel support points of mixed shapes") from None
    if raw.ndim != 2:
        raise StructureError(f"kernel support points must be 1-D vectors, got {raw.shape}")
    if not np.isfinite(raw).all():
        raise StructureError("kernel support points must be finite")
    keys, rows = [r.tobytes() for r in raw], raw.tolist()
    supports, weights = [], []
    start = 0
    for b, n in zip(g_alg.blocks, sizes):
        stop = start + n
        den = math.lcm(*dens[start:stop])
        merged: dict[bytes, list] = {}  # key -> [first index, numerator]
        for i in range(start, stop):
            if not nums[i]:
                continue
            num = nums[i] * (den // dens[i])
            hit = merged.get(keys[i])
            if hit is None:
                merged[keys[i]] = [i, num]
            else:
                hit[1] += num
        start = stop
        items = sorted(merged.values(), key=lambda it: rows[it[0]])
        total = sum(num for _, num in items)
        if total != den:
            raise StructureError(
                f"weights in block {sorted(b)} sum to {Fraction(total, den)}, not 1"
            )
        supports.append(tuple(raw[i] for i, _ in items))
        weights.append(tuple(Fraction(num, den) for _, num in items))
    return tuple(supports), tuple(weights)


def rcd_loop(sel, g_alg) -> list[list]:
    """``rcd_of_selection``'s entries atom by atom: (f(t), mass(t) / mass(B))
    per atom t of each block B, ascending."""
    space = sel.corr.space
    if g_alg.atom_set != space.atom_set:
        raise StructureError("conditioning algebra does not cover the space")
    return [[(sel.at(a), space.mass_of(a) / space.mass(b)) for a in sorted(b)]
            for b in g_alg.blocks]


def kernel_mix_loop(k1, k2, alpha) -> list[list]:
    """``kernel_mix``'s entries one ``Fraction`` product each: alpha times
    k1's weights, then 1 - alpha times k2's, block by block."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise PreconditionError(f"alpha must lie in [0,1], got {alpha}")
    if k1.g_alg.blocks != k2.g_alg.blocks:
        raise StructureError("kernels live on different block structures")
    return [[(v, alpha * w) for v, w in zip(s1, w1)]
            + [(v, (1 - alpha) * w) for v, w in zip(s2, w2)]
            for s1, w1, s2, w2 in zip(k1.supports, k1.weights, k2.supports, k2.weights)]


def barycenters_loop(kernel) -> list[np.ndarray]:
    out = []
    for sup, ws in zip(kernel.supports, kernel.weights):
        acc = np.zeros(kernel.dim)
        for v, w in zip(sup, ws):
            acc += float(w) * v
        out.append(acc)
    return out


def is_refinement_loop(fine, coarse) -> bool:
    if fine.atom_set != coarse.atom_set:
        raise StructureError("partitions live on different atom universes")
    return all(any(fb <= cb for cb in coarse.blocks) for fb in fine.blocks)


def is_nowhere_equivalent_loop(t_alg, f_alg) -> bool:
    if not is_refinement_loop(t_alg, f_alg):
        raise PreconditionError("t_alg must refine f_alg")
    fine_count = {id(b): 0 for b in f_alg.blocks}
    for fb in t_alg.blocks:
        for cb in f_alg.blocks:
            if fb <= cb:
                fine_count[id(cb)] += 1
                break
    return all(c >= 2 for c in fine_count.values())


def correspondence_loop(space, value_map):
    """(value sets, set number) per atom, as ``Correspondence`` builds them:
    atoms given the same row bytes in the same order share a set; a set
    keeps the first of its rows equal bit for bit, sorted by
    ``tuple(row)``, ties in input order."""
    canon: dict[tuple, int] = {}
    sets, which = [], []
    for a in space.ids:
        if a not in value_map:
            raise StructureError(f"no value set for atom {a}")
        vs = [np.array(v, dtype=float) for v in value_map[a]]
        if not vs:
            raise StructureError(f"empty value set at atom {a}")
        if not all(np.isfinite(v).all() for v in vs):
            raise StructureError("correspondence values must be finite")
        given = tuple(v.tobytes() for v in vs)
        n = canon.get(given)
        if n is None:
            first: dict[bytes, np.ndarray] = {}
            for v in vs:
                first.setdefault(v.tobytes(), v)
            n = canon[given] = len(sets)
            sets.append(sorted(first.values(), key=lambda v: tuple(v.tolist())))
        which.append(n)
    return [sets[n] for n in which], which


def merge_rows_copysign(rows: np.ndarray, owner: np.ndarray):
    """``_merge_rows`` as a lexsort over 2d + 1 keys, each coordinate's
    ``copysign`` beside its value, and a second over d + 2 keys that ranks
    the merged rows by value, ties by their first row."""
    cols = rows.T[::-1]
    keys = [k for pair in zip(np.copysign(1.0, cols), cols) for k in pair]
    order = np.lexsort((*keys, owner))
    bits, lab = rows.view(np.int64)[order], owner[order]
    fresh = np.ones(order.shape[0], dtype=bool)
    fresh[1:] = lab[1:] != lab[:-1]
    fresh[1:] |= (bits[1:] != bits[:-1]).any(axis=1)
    starts = np.flatnonzero(fresh)
    lead = order[starts]
    return order, starts, np.lexsort((lead, *rows[lead].T[::-1], owner[lead]))


def correspondence_dict(space, value_map) -> tuple:
    """(values, stack, start, size) as ``Correspondence`` built them from a
    mapping: each atom's set stacked on its own, atoms given the same rows
    in the same order made to share a set through a dict keyed by their
    row count and bytes, and the sets' rows merged by
    ``merge_rows_copysign``."""
    given = []
    for a in space.ids:
        if a not in value_map:
            raise StructureError(f"no value set for atom {a}")
        vs = value_map[a]
        if not isinstance(vs, np.ndarray):
            vs = list(vs)
        if not len(vs):
            raise StructureError(f"empty value set at atom {a}")
        given.append(vs)
    given = [_stack_vectors(vs, "correspondence values") for vs in given]
    try:
        raw = np.concatenate(given)
    except ValueError:
        shapes = sorted({vs.shape[1:] for vs in given})
        raise StructureError(f"correspondence values of mixed shapes {shapes}") from None
    if not np.isfinite(raw).all():
        raise StructureError("correspondence values must be finite")
    counts = np.fromiter(map(len, given), dtype=np.int64, count=len(given))
    starts = block_starts(counts)
    blob, step = raw.tobytes(), raw.shape[1] * raw.itemsize
    canon: dict[tuple, int] = {}
    which, firsts = [], []
    for i, (lo, c) in enumerate(zip(starts.tolist(), counts.tolist())):
        n = canon.setdefault((c, blob[lo * step:(lo + c) * step]), len(firsts))
        if n == len(firsts):
            firsts.append(i)
        which.append(n)
    which, firsts = np.array(which), np.array(firsts)
    sizes = counts[firsts]
    within = np.arange(int(sizes.sum())) - np.repeat(block_starts(sizes), sizes)
    rows = raw[np.repeat(starts[firsts], sizes) + within]
    owner = np.repeat(np.arange(float(firsts.shape[0])), sizes)
    order, starts, rank = merge_rows_copysign(rows, owner)
    kept = order[starts[rank]]
    stack = rows[kept]
    set_sizes = np.bincount(owner[kept].astype(np.int64), minlength=firsts.shape[0])
    bounds = block_starts(set_sizes)
    cuts = [stack[lo:lo + m] for lo, m in zip(bounds.tolist(), set_sizes.tolist())]
    return tuple(cuts[n] for n in which.tolist()), stack, bounds[which], set_sizes[which]


def block_choice_sets_loop(corr, alg) -> list[np.ndarray]:
    """``block_choice_sets`` block by block: the lead atom's rows whose
    bytes every set of the block holds, in the lead set's order."""
    if alg.atom_set != corr.space.atom_set:
        raise StructureError("algebra does not cover the correspondence's space")
    position = corr.space.position
    out = []
    for b in alg.blocks:
        lead = corr.values[position(min(b))]
        shared = set.intersection(*({v.tobytes() for v in corr.values[position(a)]} for a in b))
        out.append(lead[[v.tobytes() in shared for v in lead]])
    return out


def selection_index_loop(space, value_sets, alg, choice_map) -> tuple[int, ...]:
    """``Selection``'s index: per atom the first row of its set equal to the
    choice as a tuple of floats; then block constancy by row bytes."""
    index, key_of = [], {}
    for a, vset in zip(space.ids, value_sets):
        if a not in choice_map:
            raise StructureError(f"no choice at atom {a}")
        row = np.array(choice_map[a], dtype=float)
        lookup: dict[tuple, int] = {}
        for j, v in enumerate(vset):
            lookup.setdefault(tuple(v.tolist()), j)
        j = lookup.get(tuple(row.tolist()))
        if j is None:
            raise StructureError(f"choice at atom {a} is not a correspondence value")
        index.append(j)
        key_of[a] = row.tobytes()
    for b in alg.blocks:
        if len({key_of[a] for a in b}) > 1:
            raise StructureError(f"choice not constant on block {sorted(b)}")
    return tuple(index)


def lyapunov_mix_loop(selections, weights, f_alg, t_alg) -> dict:
    """``lyapunov_mix``'s choice per atom, found by subset filter and one
    ``numerator`` per sub-block (its checks on the inputs left out)."""
    ws = [Fraction(w) for w in weights]
    for w, s in zip(ws, selections):
        if w == 1:
            return {a: s.at(a) for a in s.corr.space.ids}
    space = selections[0].corr.space
    choice_map = {}
    for fb in f_alg.blocks:
        inner = sorted((tb for tb in t_alg.blocks if tb <= fb), key=min)
        fnum = space.numerator(fb)
        sub_nums = [space.numerator(tb) for tb in inner]
        rep = min(fb)
        agreed = selections[0].at(rep)
        if all(np.array_equal(s.at(rep), agreed) for s in selections[1:]):
            plays = [0] * len(inner)
        elif len(set(sub_nums)) == 1 and len(set(ws)) == 1:
            if len(inner) % len(ws):
                raise DivisibilityError(f"block {sorted(fb)}")
            plays = [pos % len(ws) for pos in range(len(inner))]
        else:
            quotas = [w * fnum for w in ws]
            plays, gi, acc = [], 0, 0
            for tm in sub_nums:
                while gi < len(ws) and quotas[gi] == 0:
                    gi += 1
                if gi >= len(ws):
                    raise DivisibilityError(f"block {sorted(fb)}")
                plays.append(gi)
                acc += tm
                if acc == quotas[gi]:
                    acc, gi = 0, gi + 1
                elif acc > quotas[gi]:
                    raise DivisibilityError(f"block {sorted(fb)}")
            while gi < len(ws) and quotas[gi] == 0:
                gi += 1
            if gi != len(ws):
                raise DivisibilityError(f"block {sorted(fb)}")
        for tb, j in zip(inner, plays):
            for a in tb:
                choice_map[a] = selections[j].at(rep)
    return choice_map


def conditional_set_loop(corr, t_alg, g_alg, cap: int) -> list[np.ndarray]:
    """``conditional_set``'s block sets, its inner t-blocks found by subset
    filter and weighed by ``Fraction`` mass sums (its checks left out)."""
    space = corr.space
    sets = package_block_choice_sets(corr, t_alg)
    out = []
    for gb in g_alg.blocks:
        inner = [(tb, cs) for tb, cs in zip(t_alg.blocks, sets) if tb <= gb]
        gmass = sum(space.mass_of(a) for a in gb)
        weights = [sum(space.mass_of(a) for a in tb) / gmass for tb, _ in inner]
        out.append(_minkowski_fold([cs for _, cs in inner], weights, cap, corr.dim))
    return out


def scan_arguments_loop(game) -> list[tuple]:
    """``game._scan_arguments`` (its cap check left out): t-blocks grouped
    by the aggregate block of their least atom, weights as ``Fraction``
    mass quotients, atoms gathered by ``position`` one at a time."""
    space = game.space
    groups = [[] for _ in game.aggregate_alg.blocks]
    for j, blk in enumerate(game.t_alg.blocks):
        a = next(i for i, ab in enumerate(game.aggregate_alg.blocks) if min(blk) in ab)
        groups[a].append(j)
    phi, gamma_f, na, p2, dn, am = game.ctables
    pay = game.payoff
    out = []
    for blk_a, group in zip(game.aggregate_alg.blocks, groups):
        total = sum(space.mass_of(a) for a in blk_a)
        blks = [game.t_alg.blocks[j] for j in group]
        lens = np.array([len(b) for b in blks], dtype=np.int64)
        perm = np.array([space.position(a) for b in blks for a in sorted(b)])
        out.append((np.array(group), (
            game.nact, np.array([float(sum(space.mass_of(a) for a in b) / total) for b in blks]),
            np.cumsum(lens) - lens, lens, game.actions, pay.bundle.e_mean(), pay.beta,
            pay.flavor, phi[perm], gamma_f, na, p2[perm], dn[perm], am, pay.k)))
    return out


def phi_and_cells_loop(model) -> tuple[np.ndarray, np.ndarray]:
    """Each atom's float ``phi`` and its cell, ``model.ncells`` for the
    atomic atom, one ``Fraction`` call and one ``cell_of`` per atom."""
    ids = model.space.ids
    phi = np.array([float(model.phi(a)) for a in ids])
    cells = [model.cell_of(a) for a in ids]
    return phi, np.array([model.ncells if c is None else c for c in cells])


def _random_merge(rng, parts: list, least: int):
    n = len(parts)
    m = int(rng.integers(least, n + 1))
    assign = rng.integers(0, m, n)
    assign[rng.permutation(n)[:m]] = np.arange(m)  # no empty blocks
    blocks: dict[int, set] = {}
    for part, idx in zip(parts, assign):
        blocks.setdefault(int(idx), set()).update(part)
    return SigmaPartition(list(blocks.values()))


def _random_nested_instance(rng, d: int = 3):
    natoms = int(rng.integers(4, 13))
    space = DiscreteSpace.uniform(natoms)
    ids = list(space.ids)
    f_alg = _random_merge(rng, [{a} for a in ids], 2)
    g_alg = _random_merge(rng, list(f_alg.blocks), 1)
    values = rng.normal(size=(natoms, 3, d))
    vmap = {a: [values[i, j] for j in range(3)] for i, a in enumerate(ids)}
    corr = Correspondence(space, vmap)
    choice = {a: values[i, int(rng.integers(0, 3))] for i, a in enumerate(ids)}
    sel = Selection(corr, SigmaPartition.singletons(space), choice)
    return space, sel, f_alg, g_alg


def tower_barycenter_loop(instances: int, tol: float, seed: int) -> dict:
    """The tower-barycenter check with one small space per instance."""
    rng = np.random.default_rng(seed)
    worst_tower = 0.0
    worst_bary = 0.0
    for _ in range(instances):
        space, sel, f_alg, g_alg = _random_nested_instance(rng)
        ef = block_averages_loop(space, f_alg, sel.choice)
        lifted = {a: v for blk, v in zip(f_alg.blocks, ef) for a in blk}
        eg_direct = block_averages_loop(space, g_alg, sel.choice)
        tower = block_averages_loop(space, g_alg, [lifted[a] for a in space.ids])
        for acc, direct in zip(tower, eg_direct):
            worst_tower = max(worst_tower, float(np.max(np.abs(acc - direct))))
        kern = rcd_of_selection(sel, g_alg)
        for bc, direct in zip(barycenters_loop(kern), eg_direct):
            worst_bary = max(worst_bary, float(np.max(np.abs(bc - direct))))
    return {
        "instances": instances,
        "worst_tower_error": worst_tower,
        "worst_barycenter_error": worst_bary,
        "verdict": worst_tower <= tol and worst_bary <= tol,
    }
