"""Hot numeric kernels, vectorized in numpy.

The Walsh butterfly runs along the last axis, so a stack of rows is one
call, and pairs its floating-point operations as the plain loop does.  The
nearest-distance search returns the directed Hausdorff distance, the maximum
over targets of the distance to the nearest cloud row, in array passes: it
finds every target's seed rows with one binary search per run of equal
first coordinates, all targets at once, and then scans the targets in
batches that double in size, taking the (target, row) pairs of their
windows through index arrays and dropping a pair as soon as its partial
distance reaches the target's bound.  It sums each distance coordinate by
coordinate in the loop's order, and it scans a batch only while the
batch's largest seed bound, itself such a distance, exceeds the maximum
found so far.  So both agree with their loop forms bit for bit at every
size and dimension.  The game kernels share one batched payoff formula,
``_payoffs``, which keeps the loop form's operation order and evaluates
``sin`` through libm (``math.sin``), so a table at one externality agrees
with a per-element loop exactly; the gap probes take ``log`` from libm the
same way (``_libm_log``).  The exhaustive scan builds each
profile's aggregate from a partial sum over the leading blocks, one per
run of profiles that differ only in the last block, added in the loop's
order, and measures it with ``vectors.row_norms`` under the payoff's norm
flavor.  It evaluates the payoffs once per distinct externality theta,
reduces them to rows of block regrets that it keeps across chunks of
profiles, and reads each profile's residual from them; the maximum is
exact in any order, so the scan agrees with the loop too.
No kernel calls BLAS or a SIMD-dispatched transcendental, so their results
do not depend on the BLAS build or on numpy's SIMD level.  They do depend
on libm: on x86-64, glibc picks an FMA or an SSE2 form of ``log`` and
``sin`` by the host, and the two differ in the last bit on a small share
of inputs.  The loop forms live in the test suite as oracles.
"""
from __future__ import annotations

import contextlib
import math

import numpy as np

from . import vectors
from .errors import PreconditionError

KERNEL_PATH = "numpy"

# distance modes of min_dists
MODE_WSUM = 1   # weighted l1:  sum_m w_m |dx_m|
MODE_EUCLID = 2
MODE_MAX = 3

# target size in bytes of one chunk temporary: a share of the scan's
# working set, the lemma trials' residue-row differences, a slice of a sign
# table
_CHUNK_BYTES = 1 << 16

# elements in each iterator buffer under ``_small_buffers`` (numpy's
# default is 8192): small beside a payoff block
_UFUNC_BUFFER = 512

_libm_sin = np.frompyfunc(math.sin, 1, 1)
_libm_log = np.frompyfunc(math.log, 1, 1)


@contextlib.contextmanager
def _small_buffers():
    """numpy gives each broadcast operand of a ufunc an iterator buffer of
    ``np.getbufsize()`` elements, or of the whole operation if smaller;
    here they hold ``_UFUNC_BUFFER``.  Elementwise results do not depend on
    it; a buffered sum would be split at the buffer, so no reduction runs
    here.  ``errstate`` restores the size on exit."""
    with np.errstate():
        np.setbufsize(_UFUNC_BUFFER)
        yield


def _butterfly(out):
    """Hadamard butterfly along the last axis of the C-contiguous array
    ``out``, unnormalized and in place; returns ``out``.

    Pairs elements as the naive loop does, so each row of a stack equals
    the transform of that row alone.  Each stage writes its differences to
    one scratch array of half the size, then its sums in place.
    """
    n = out.shape[-1]
    scratch = np.empty(out.size // 2, dtype=out.dtype)
    h = 1
    with _small_buffers():  # the strided halves would get full-size buffers
        while h < n:
            # in C order each block of 2h elements lies within one row
            m = out.reshape(-1, 2 * h)
            a, b = m[:, :h], m[:, h:]
            diff = scratch.reshape(-1, h)
            np.subtract(a, b, out=diff)
            a += b
            b[...] = diff
            h *= 2
    return out


def fwht_f64(v):
    """Hadamard butterfly along the last axis of a C-ordered copy of ``v``."""
    return _butterfly(np.array(v, order="C"))


def fwht_i64(work):
    """Hadamard butterfly in place along the last axis of ``work``, a
    C-contiguous int64 array, which it returns.  Exact while each row's sum
    of absolute values stays below 2**63."""
    return _butterfly(work)


def _row_dists(tcols, ccols, mode, weights):
    """Distance of each (target, cloud row) pair, squared under MODE_EUCLID.

    ``tcols[m]`` and ``ccols[m]`` hold coordinate m of the paired rows.  The
    terms are taken as target minus cloud and accumulated from m = 0 up, as
    the loop form does; every term is >= +0, so starting from the first term
    equals the loop's ``0.0 + term``.
    """
    acc = None
    for m, (t, c) in enumerate(zip(tcols, ccols)):
        dx = t - c
        if mode == MODE_EUCLID:
            term = dx * dx
        else:
            term = np.abs(dx)
            if mode == MODE_WSUM:
                term *= weights[m]
        if acc is None:
            acc = term
        elif mode == MODE_EUCLID or mode == MODE_WSUM:
            acc += term
        else:
            np.maximum(acc, term, out=acc)
    return acc


def _lex_sorted(rows):
    """Whether the rows are in lexicographic order, in O(n d).

    Each adjacent pair is in order from coordinate m on when it is strictly
    rising at m, or equal at m and in order from m + 1 on: one cascade of
    elementwise comparisons from the last coordinate to the first.  -0.0
    and 0.0 compare equal.
    """
    a, b = rows[:-1], rows[1:]
    ok = a[:, -1] <= b[:, -1]
    tmp = np.empty_like(ok)
    for m in range(rows.shape[1] - 2, -1, -1):
        ok &= np.equal(a[:, m], b[:, m], out=tmp)
        ok |= np.less(a[:, m], b[:, m], out=tmp)
    return bool(ok.all())


def _lex_insertion(cloud, c0, keys):
    """Left insertion point of each key row among the cloud rows, which are
    in lexicographic order: the number of rows below the key, as a
    ``searchsorted`` of the rows as records finds it.

    ``c0`` is the cloud's first column, and each key's first coordinate is
    one of its values.  So the rows below a key are those of a smaller
    first coordinate and those of its run, the rows whose first coordinate
    equals the key's, that are below it; a run is itself in lexicographic
    order.  One branchless binary search per key over its run finds them,
    all keys at once: each step compares the probed rows with the keys at
    their first differing coordinate, where -0.0 and 0.0 are equal.
    """
    base = np.searchsorted(c0, keys[:, 0], "left")
    size = np.searchsorted(c0, keys[:, 0], "right") - base  # >= 1
    row_at = np.arange(0, keys.size, keys.shape[1])  # each key's place in a flat array

    def below(probe):
        rows = cloud.take(probe, axis=0)
        first = np.not_equal(rows, keys).argmax(axis=1)  # 0 where the rows equal
        first += row_at
        return np.less(rows, keys).take(first)

    for _ in range((int(size.max()) - 1).bit_length()):  # until every size is 1
        half = size >> 1
        probe = base + half
        np.copyto(base, probe, where=below(probe))
        size -= half
    return base + below(base)


def _segment_chunks(lo, hi):
    """The (segment, row) pairs of the index ranges [lo[i], hi[i]), segment
    by segment and in order, as arrays (i, row) in chunks of at most
    ``_CHUNK_BYTES // 8`` pairs, so that a pass keeping eight or so arrays
    of one entry per pair stays within eight ``_CHUNK_BYTES``."""
    sizes = hi - lo
    ends = np.cumsum(sizes)
    starts = ends - sizes
    shift = lo - starts  # a pair's row less its place among all pairs
    total = int(ends[-1]) if ends.shape[0] else 0
    per = max(1, _CHUNK_BYTES // 8)
    for a in range(0, total, per):
        b = min(a + per, total)
        i, j = np.searchsorted(ends, [a, b - 1], "right")
        span = np.minimum(ends[i:j + 1], b) - np.maximum(starts[i:j + 1], a)
        yield (np.repeat(np.arange(i, j + 1), span),
               np.arange(a, b) + np.repeat(shift[i:j + 1], span))


def _window_minima(tcols, cloud, lo, hi, bound, mode, weights):
    """Least distance from each target to the cloud rows of its window
    [lo, hi), or its bound where no row comes below it; squared under
    MODE_EUCLID, like the bound.  ``tcols[m]`` holds coordinate m of the
    targets.

    A partial-distance search over the (target, row) pairs of all windows
    at once, gathered through index arrays in ``_segment_chunks``.  Each
    pair's distance is accumulated as ``_row_dists`` accumulates it, and a
    pair is dropped as soon as its partial sum reaches its target's bound:
    every later term is >= +0 and rounding is monotone, so its distance
    could only be at least the bound.  A single window is one slice of the
    cloud, scanned whole by ``_row_dists`` without gathering.
    """
    if lo.shape[0] == 1:
        near = _row_dists(tcols, cloud[lo[0]:hi[0]].T, mode, weights)
        return np.minimum(bound, near.min(initial=bound[0]))
    d = cloud.shape[1]
    flat = cloud.reshape(-1)
    out = bound.copy()
    for k, at in _segment_chunks(lo, hi):
        at *= d  # the row's first coordinate, as a place in ``flat``
        lim = bound.take(k)
        for m in range(d):
            dx = tcols[m].take(k)
            dx -= flat.take(at + m)
            if mode == MODE_EUCLID:
                dx *= dx
            else:
                np.abs(dx, out=dx)
                if mode == MODE_WSUM:
                    dx *= weights[m]
            if m == 0:
                acc = dx
            elif mode == MODE_MAX:
                np.maximum(acc, dx, out=acc)
            else:
                acc += dx
            del dx
            if m < d - 1:
                keep = np.flatnonzero(acc < lim)
                if keep.shape[0] < acc.shape[0]:
                    k, at, lim, acc = k.take(keep), at.take(keep), lim.take(keep), acc.take(keep)
                del keep
        np.minimum.at(out, k, acc)
        del k, at, lim, acc
    return out


def min_dists(targets, cloud, mode, weights):
    """Directed Hausdorff distance: the largest distance from a target row
    to its nearest cloud row, as one float.

    An exact windowed search over the cloud in lexicographic order.  Each
    target first gets a bound b from a few seed rows: its lexicographic
    neighbours once its first coordinate is snapped to each adjacent value
    of the cloud's first column, found by ``_lex_insertion``.  Its nearest
    distance is then found among the rows with w0 |c0 - t0| <= b, located by
    ``searchsorted`` on that column.  No row outside the window can come
    below b: every computed distance is at least its rounded first term
    fl(w0 |fl(t0 - c0)|), because the other terms are >= 0 and rounding is
    monotone, and the window's radius is rounded up so that rounding can
    only add rows.  Distances are accumulated in the loop form's order and,
    under MODE_EUCLID, compared as squares with one ``sqrt`` after (exact,
    as ``sqrt`` is correctly rounded and monotone).

    Targets are scanned in descending order of their bounds, in batches
    that double in size from one target, by ``_window_minima``; the scan
    stops at the first bound <= the running maximum.  That is exact: a
    bound is a computed distance to a real row, summed in the loop's order,
    so no target left unscanned lies farther than its bound, which is at
    most the maximum already found; and the maximum is exact in any order.
    So the result equals the maximum of the loop form bit for bit at every
    dimension.  A cloud passed as its own targets is at distance 0 without a
    scan.

    Raises ``PreconditionError`` on NaN or infinite coordinates, on no
    targets, on an empty cloud, and on MODE_WSUM weights that are negative
    or not finite: the window relies on the order of the first column and
    on terms >= 0.  Targets and cloud must be (n, d) arrays of one d >= 1.
    """
    targets = np.asarray(targets, dtype=float)
    cloud = np.asarray(cloud, dtype=float)
    if targets.ndim != 2 or cloud.shape[1:] != targets.shape[1:] or targets.shape[1] == 0:
        raise PreconditionError(
            f"need (n, d) targets and cloud of one d >= 1, got {targets.shape} and {cloud.shape}"
        )
    nt, n = targets.shape[0], cloud.shape[0]
    if not (np.isfinite(targets).all() and np.isfinite(cloud).all()):
        raise PreconditionError("nearest distances need finite coordinates")
    # -0.0 weights become +0.0, so every term is >= +0 as _row_dists needs
    w = np.asarray(weights, dtype=float) + 0.0
    if mode == MODE_WSUM and not (np.isfinite(w).all() and (w >= 0).all()):
        raise PreconditionError(f"weighted l1 needs finite weights >= 0, got {w!r}")
    if nt == 0:
        raise PreconditionError("the largest nearest distance of no targets is undefined")
    if n == 0:
        raise PreconditionError("an empty cloud has no nearest row")
    if targets is cloud or np.array_equal(targets, cloud):
        return 0.0
    if not _lex_sorted(cloud):
        cloud = cloud[np.lexsort(cloud.T[::-1])]
    cloud = np.ascontiguousarray(cloud)
    tcols = np.ascontiguousarray(targets.T)
    c0, t0 = cloud[:, 0], tcols[0]

    # seed bound: distances to the lexicographic neighbours of the target
    # with its first coordinate snapped to either adjacent value of c0
    p = np.searchsorted(c0, t0)
    rows = np.concatenate([targets, targets])
    rows[:nt, 0] = c0[np.maximum(p - 1, 0)]
    rows[nt:, 0] = c0[np.minimum(p, n - 1)]
    q = _lex_insertion(cloud, c0, rows)
    rows[:nt, 0] = rows[nt:, 0] = t0  # each target twice, as given
    best = np.full(2 * nt, np.inf)
    for s in (np.maximum(q - 1, 0), np.minimum(q, n - 1)):
        np.minimum(best, _row_dists(rows.T, cloud.take(s, axis=0).T, mode, w), out=best)
    best = np.minimum(best[:nt], best[nt:])
    del rows, q

    # window radius r: a first term fl(w0 |dx0|) >= best needs |dx0| >= r
    if mode == MODE_EUCLID:
        r = np.sqrt(best)
    elif mode == MODE_WSUM:
        with np.errstate(over="ignore"):  # a subnormal w0 may give an infinite r
            r = best / w[0] if w[0] > 0 else np.full(nt, np.inf)
    else:
        r = best
    # rho >= r exactly, and a float c0 outside [fl(t0 - rho), fl(t0 + rho)]
    # has |c0 - t0| >= rho exactly, hence |fl(t0 - c0)| >= rho
    rho = np.nextafter(r, np.inf)
    lo = np.searchsorted(c0, t0 - rho, "left")
    hi = np.searchsorted(c0, t0 + rho, "right")
    order = np.argsort(-best, kind="stable")
    top = -math.inf
    a, size = 0, 1
    while a < nt and best[order[a]] > top:
        batch = order[a:a + size]
        batch = batch[best.take(batch) > top]  # a prefix, bounds descending
        near = _window_minima(tcols[:, batch], cloud, lo.take(batch), hi.take(batch),
                              best.take(batch), mode, w)
        top = max(top, float(near.max()))
        a += size
        size *= 2
    return math.sqrt(top) if mode == MODE_EUCLID else top


def _payoffs(thetas, phi, gamma, na, p2, dn, am, k):
    """Payoff of every (theta, player, action) triple, shape (ntheta, natoms, nact).

    ``thetas`` is (ntheta,), or (ntheta, natoms) for one per player.
    Players with theta = 0 or phi <= gamma get u = 0, hence a zero
    oscillating factor and exactly -p2.  Beside its output it holds one
    factor of the same shape, arrays of one entry per (theta, player), and
    small iterator buffers (``_small_buffers``).
    """
    th = thetas[:, None] if thetas.ndim == 1 else thetas
    active = (th != 0.0) & (phi > gamma)
    u = np.divide(phi - gamma, th, out=np.zeros(active.shape), where=active)
    # the residue is taken in floats, where floor(u) is exact at any size
    rho = (np.floor(u) % (k + 1)).astype(np.int64)
    wave = th * np.abs(_libm_sin(u * math.pi).astype(float))
    del active, u  # before the block-sized arrays
    with _small_buffers():
        # in place where the loop form's operands allow: x * y == y * x
        # exactly; each factor is written into one reused buffer
        hv = na + am[0, rho][:, :, None]
        hv *= wave[:, :, None]
        factor = np.empty_like(hv)
        for i in range(1, k + 1):
            np.add(dn[None, :, :, i - 1], am[i, rho][:, :, None], out=factor)
            hv *= factor
        np.negative(hv, out=hv)
        hv -= p2
    return hv


def payoff_table(theta, phi, gamma, na, p2, dn, am, k):
    """Payoff of every (player, action) pair at theta, scalar or per player.

    p2[t, a] is the theta-independent product term, dn[t, a, i-1] the norm
    gap to the i-th mixed point of t's cell, na[a] the action norm, and
    am[i, rho] the planar root-of-unity modulus table.
    """
    theta = np.broadcast_to(np.asarray(theta, dtype=float), phi.shape)
    return _payoffs(theta[None], phi, gamma, na, p2, dn, am, k)[0]


def _aggregate_norms(contrib, e_mean, lead, flavor):
    """Norm under ``flavor`` of the aggregate minus e_mean of every profile
    in a chunk of runs (nact profiles that differ only in the last block's
    digit; ``lead[b, r]`` is block b's digit in run r), in scan order.

    ``contrib[m, b, a]`` is coordinate m of block b's weight times action
    a.  The leading blocks are summed once per run, as a (d, runs) array,
    and the last one added by broadcasting, so each aggregate is summed from
    zeros, block 0 first, as ``spaces.block_averages`` sums it.
    """
    d, nblocks, nact = contrib.shape
    x = np.zeros((d, lead.shape[1]))
    for b in range(nblocks - 1):
        x += contrib[:, b, lead[b]]
    x = (x[:, :, None] + contrib[:, None, -1]).reshape(d, -1)
    x -= e_mean[:, None]
    return vectors.row_norms(x.T, flavor)


def exhaustive_scan(nact, block_mass, block_start, block_len, actions, e_mean,
                    beta, flavor, phi, gamma, na, p2, dn, am, k, bound=-math.inf):
    """Scan every block-constant profile; return the minimum-residual one.

    Returns (residual, profile digits, least aggregate distance to e_mean,
    in the norm ``flavor``, over the profiles scanned).  Deterministic:
    mixed-radix order with the last block fastest, first minimum wins; or,
    if one is at most ``bound``, the first such, where the scan stops.

    A profile moves the payoffs only through theta = beta * ||aggregate -
    e_mean||, and many profiles share one theta.  So each chunk of profiles
    sorts its theta values and takes, once per distinct theta, the
    block-regret row R[theta, b, a]: the maximum over the atoms t of block b
    of max_a' P[theta, t, a'] - P[theta, t, a].  A profile's residual is the
    maximum over b of R[theta, b, digit_b].  A row comes from a cache kept
    across chunks, or else from ``_payoffs`` reduced by
    ``np.maximum.reduceat``, and is then cached while the cache has room; it
    never evicts.  A chunk is a whole number of runs of nact profiles, and
    ``_aggregate_norms`` gives its distances.  ``_payoffs`` is elementwise
    in theta and the maximum is exact in any order, so residuals, the winner
    and the distance equal a per-profile evaluation bit for bit.

    Memory is bounded in ``_CHUNK_BYTES``: a quarter for each array of one
    entry per profile of a chunk, two for the chunk's (coordinates,
    profiles) aggregate and two for the copy that ``row_norms`` takes of
    it, half for a table of regret rows, half for a ``_payoffs`` block and
    at most eight for the cache, which grows with the rows it holds.  This
    holds however many theta are distinct, as long as one run, one theta's
    payoff block and one regret row fit their shares.

    Raises ``PreconditionError`` unless beta is finite and > 0, which keeps
    every theta >= +0 and so makes equal keys mean equal payoffs, and
    unless every block has an atom.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise PreconditionError(f"beta must be finite and > 0, got {beta!r}")
    nblocks = block_mass.shape[0]
    if nblocks == 0 or np.any(block_len < 1):
        raise PreconditionError("the scan needs at least one block, each with an atom")
    d = actions.shape[1]
    runs_total = nact ** (nblocks - 1)
    radix = nact ** np.arange(nblocks - 1, -1, -1, dtype=np.int64)
    atoms = np.concatenate([np.arange(s, s + n) for s, n in zip(block_start, block_len)])
    starts = np.cumsum(block_len) - block_len
    phi, p2, dn = phi[atoms], p2[atoms], dn[atoms]
    # contrib[m, b, a]: coordinate m of block b's mass times action a
    contrib = np.ascontiguousarray((block_mass[:, None, None] * actions).transpose(2, 0, 1))
    # runs per chunk, rows per regret table, theta per _payoffs call and
    # rows in the cache, from the shares of _CHUNK_BYTES above
    row_bytes = 8 * nblocks * nact
    runs = max(1, min(_CHUNK_BYTES // (32 * nact), _CHUNK_BYTES // (4 * d * nact)))
    tab = max(1, _CHUNK_BYTES // (2 * row_bytes))
    width = max(1, _CHUNK_BYTES // (16 * atoms.shape[0] * nact))
    limit = max(1, 8 * _CHUNK_BYTES // row_bytes)
    # cache[r] is the regret row of theta keys[r], and keys[sorter] is
    # sorted; the one placeholder row, under a NaN key that equals no
    # theta, stands until the first row is stored
    cache = np.empty((1, nblocks, nact))
    keys = np.full(1, np.nan)
    sorter = np.zeros(1, dtype=np.int64)
    used = 0
    best_res = math.inf
    best_prof = np.zeros(nblocks, dtype=np.int64)
    min_aggdist = math.inf
    for run in range(0, runs_total, runs):
        count = min(runs, runs_total - run)
        lead = np.arange(run, run + count) // radix[1:, None] % nact
        theta = _aggregate_norms(contrib, e_mean, lead, flavor)
        n = theta.shape[0]
        min_aggdist = min(min_aggdist, float(theta.min()))
        theta *= beta
        # profiles grouped by theta: group[i] numbers the distinct value of
        # the i-th profile in sorted order, and first[g] is where group g starts
        order = np.argsort(theta)
        theta = theta[order]
        fresh = np.empty(n, dtype=bool)
        fresh[0] = True
        np.not_equal(theta[1:], theta[:-1], out=fresh[1:])
        group = np.cumsum(fresh)
        group -= 1
        first = np.append(np.flatnonzero(fresh), n)
        thetas = theta[first[:-1]]
        worst = np.empty(n)
        for j in range(0, thetas.shape[0], tab):
            some = thetas[j:j + tab]
            at = np.searchsorted(keys, some, sorter=sorter)
            row = sorter[np.minimum(at, keys.shape[0] - 1)]
            table = cache[row]
            miss = np.flatnonzero(keys[row] != some)
            for q in range(0, miss.shape[0], width):
                idx = miss[q:q + width]
                regret = _payoffs(some[idx], phi, gamma, na, p2, dn, am, k)
                np.subtract(regret.max(axis=2, keepdims=True), regret, out=regret)
                table[idx] = np.maximum.reduceat(regret, starts, axis=1)
                del regret
            new = miss[:limit - used]
            if new.shape[0]:
                # in place: no view of either array outlives a statement
                cache.resize((used + new.shape[0], nblocks, nact), refcheck=False)
                keys.resize(used + new.shape[0], refcheck=False)
                cache[used:] = table[new]
                keys[used:] = some[new]
                used += new.shape[0]
                sorter = np.argsort(keys)
            span = slice(first[j], first[min(j + tab, thetas.shape[0])])
            # a profile's entries in the flat table: its theta's row, then
            # block b's digit, from its run in the chunk or its last digit
            base = (group[span] - j) * (nblocks * nact)
            pos, last = np.divmod(order[span], nact)
            flat = table.reshape(-1)
            res = flat[base + last + (nblocks - 1) * nact]
            for b in range(nblocks - 1):
                np.maximum(res, flat[base + lead[b, pos] + b * nact], out=res)
            worst[span] = res
        # the first profile in scan order at the chunk's least, or the bound
        low = worst.min()
        if low < best_res:
            hit = np.flatnonzero(worst <= max(low, bound))
            win = hit[np.argmin(order[hit])]
            del hit
            best_res = float(worst[win])
            best_prof = (run * nact + int(order[win])) // radix % nact
            if best_res <= bound:
                break
        # the next chunk's aggregate is built without this chunk's arrays
        del lead, theta, order, fresh, group, first, thetas, worst
        del table, flat, base, pos, last, res
    return best_res, best_prof, min_aggdist
