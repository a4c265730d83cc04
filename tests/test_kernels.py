import math
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import (
    lex_insertion_records,
    lex_sorted,
    scan_arguments_loop,
    window_scan_min_dists,
)
from corrint import _kernels
from corrint._kernels import MODE_EUCLID, MODE_MAX, MODE_WSUM
from corrint.errors import PreconditionError
from corrint.game import LargeGame, _scan_arguments, build_counterexample_game
from corrint.vectors import NORM_FLAVORS, norm, row_norms


# -- loop-form oracles: the element-by-element definitions of the kernels ------

def _fwht_loop(v):
    """Hadamard butterfly, naive loop form."""
    out = v.copy()
    n = out.shape[0]
    h = 1
    while h < n:
        for start in range(0, n, 2 * h):
            for i in range(start, start + h):
                a = out[i]
                b = out[i + h]
                out[i] = a + b
                out[i + h] = a - b
        h *= 2
    return out


def _min_dists_loop(targets, cloud, mode, weights):
    nt = targets.shape[0]
    nc = cloud.shape[0]
    d = targets.shape[1]
    res = np.empty(nt)
    for it in range(nt):
        best = math.inf
        for ic in range(nc):
            if mode == MODE_EUCLID:
                acc = 0.0
                for m in range(d):
                    dx = targets[it, m] - cloud[ic, m]
                    acc += dx * dx
                dist = math.sqrt(acc)
            elif mode == MODE_WSUM:
                acc = 0.0
                for m in range(d):
                    acc += weights[m] * abs(targets[it, m] - cloud[ic, m])
                dist = acc
            else:
                acc = 0.0
                for m in range(d):
                    dx = abs(targets[it, m] - cloud[ic, m])
                    if dx > acc:
                        acc = dx
                dist = acc
            if dist < best:
                best = dist
        res[it] = best
    return res


def _payoff_table(theta, phi, gamma, na, p2, dn, am, k):
    """Payoff of every (player, action) pair at scalar externality theta.

    p2[t, a] is the theta-independent product term, dn[t, a, i-1] the norm
    gap to the i-th mixed point of t's cell, na[a] the action norm, and
    am[i, rho] the planar root-of-unity modulus table.
    """
    natoms = phi.shape[0]
    nact = na.shape[0]
    out = np.empty((natoms, nact))
    for t in range(natoms):
        if theta == 0.0 or phi[t] <= gamma:
            for a in range(nact):
                out[t, a] = -p2[t, a]
            continue
        u = (phi[t] - gamma) / theta
        rho = int(math.floor(u)) % (k + 1)
        sinv = abs(math.sin(u * math.pi))
        for a in range(nact):
            hv = theta * sinv * (na[a] + am[0, rho])
            for i in range(1, k + 1):
                hv *= dn[t, a, i - 1] + am[i, rho]
            out[t, a] = -hv - p2[t, a]
    return out


def _exhaustive_scan(nact, block_mass, block_len,
                     actions, e_mean, beta, flavor, phi, gamma, na, p2, dn, am, k):
    """Scan every block-constant profile; return the minimum-residual one.

    Returns (min residual, best profile digits, min aggregate distance to
    e_mean over all profiles, under the norm ``flavor``).  Deterministic:
    mixed-radix order, first strict improvement wins.
    """
    nblocks = block_mass.shape[0]
    block_start = np.cumsum(block_len) - block_len
    d = actions.shape[1]
    total = 1
    for _ in range(nblocks):
        total *= nact
    digits = np.zeros(nblocks, dtype=np.int64)
    best_prof = np.zeros(nblocks, dtype=np.int64)
    agg = np.zeros(d)
    best_res = math.inf
    min_aggdist = math.inf
    for _step in range(total):
        for m in range(d):
            agg[m] = 0.0
        for b in range(nblocks):
            ab = digits[b]
            for m in range(d):
                agg[m] += block_mass[b] * actions[ab, m]
        aggdist = norm(agg - e_mean, flavor)
        if aggdist < min_aggdist:
            min_aggdist = aggdist
        theta = beta * aggdist
        worst = 0.0
        for b in range(nblocks):
            chosen = digits[b]
            for j in range(block_len[b]):
                t = block_start[b] + j
                if theta == 0.0 or phi[t] <= gamma:
                    rho = -1
                    sinv = 0.0
                else:
                    u = (phi[t] - gamma) / theta
                    rho = int(math.floor(u)) % (k + 1)
                    sinv = abs(math.sin(u * math.pi))
                best_pay = -math.inf
                chosen_pay = 0.0
                for a in range(nact):
                    if rho < 0:
                        pay = -p2[t, a]
                    else:
                        hv = theta * sinv * (na[a] + am[0, rho])
                        for i in range(1, k + 1):
                            hv *= dn[t, a, i - 1] + am[i, rho]
                        pay = -hv - p2[t, a]
                    if pay > best_pay:
                        best_pay = pay
                    if a == chosen:
                        chosen_pay = pay
                regret = best_pay - chosen_pay
                if regret > worst:
                    worst = regret
            if worst >= best_res:
                break
        if worst < best_res:
            best_res = worst
            for b in range(nblocks):
                best_prof[b] = digits[b]
        pos = nblocks - 1
        while pos >= 0:
            digits[pos] += 1
            if digits[pos] < nact:
                break
            digits[pos] = 0
            pos -= 1
    return best_res, best_prof, min_aggdist


def _exhaustive_scan_batched(nact, block_mass, block_len, actions, e_mean,
                             beta, flavor, phi, gamma, na, p2, dn, am, k, bound=-math.inf):
    """Scan every block-constant profile; return the minimum-residual one.

    Returns (min residual, best profile digits, min aggregate distance to
    e_mean over all profiles, under the norm ``flavor``).  Deterministic:
    mixed-radix order with the last block fastest, first minimum wins, or
    the first profile whose residual is at most ``bound`` if there is one.
    Profiles are evaluated in chunks whose payoff temporaries stay near
    ``_CHUNK_BYTES``.
    """
    nblocks = block_mass.shape[0]
    d = actions.shape[1]
    total = nact ** nblocks
    radix = nact ** np.arange(nblocks - 1, -1, -1, dtype=np.int64)
    atom_block = np.repeat(np.arange(nblocks), block_len)
    chunk = max(1, _kernels._CHUNK_BYTES // (8 * phi.shape[0] * nact))
    residuals = []
    min_aggdist = math.inf
    for lo in range(0, total, chunk):
        digits = (np.arange(lo, min(lo + chunk, total))[:, None] // radix) % nact
        agg = np.zeros((digits.shape[0], d))
        for b in range(nblocks):
            agg += block_mass[b] * actions[digits[:, b]]
        aggdist = row_norms(agg - e_mean, flavor)
        min_aggdist = min(min_aggdist, float(aggdist.min()))
        pay = _kernels._payoffs(beta * aggdist, phi, gamma, na, p2, dn, am, k)
        chosen = np.take_along_axis(pay, digits[:, atom_block, None], axis=2)[:, :, 0]
        residuals.append((pay.max(axis=2) - chosen).max(axis=1))
    residuals = np.concatenate(residuals)
    i = int(np.flatnonzero(residuals <= max(residuals.min(), bound))[0])
    return float(residuals[i]), i // radix % nact, min_aggdist


def _payoffs_allocating(thetas, phi, gamma, na, p2, dn, am, k):
    """``_payoffs`` as it was before its factors shared one buffer."""
    active = (thetas[:, None] != 0.0) & (phi[None, :] > gamma)
    u = np.divide(phi[None, :] - gamma, thetas[:, None],
                  out=np.zeros(active.shape), where=active)
    rho = (np.floor(u) % (k + 1)).astype(np.int64)
    sinv = np.abs(_kernels._libm_sin(u * math.pi).astype(float))
    hv = na + am[0, rho][:, :, None]
    hv *= (thetas[:, None] * sinv)[:, :, None]
    for i in range(1, k + 1):
        hv *= dn[None, :, :, i - 1] + am[i, rho][:, :, None]
    np.negative(hv, out=hv)
    hv -= p2
    return hv


def _aggregate_loop(contrib, e_mean, digits, flavor):
    """Norm of the aggregate minus e_mean of each profile of a (blocks,
    profiles) digit table, summed block by block and measured alone."""
    out = []
    for profile in digits.T:
        x = np.zeros(contrib.shape[0])
        for b, a in enumerate(profile):
            x += contrib[:, b, a]
        out.append(norm(x - e_mean, flavor))
    return np.array(out)


# -- tests --------------------------------------------------------------------

def test_kernel_path_reported():
    assert _kernels.KERNEL_PATH == "numpy"


def test_fwht_paths_agree_exactly():
    rng = np.random.default_rng(61)
    for size in (2, 16, 128, 1024):
        v = rng.normal(size=size)
        assert np.array_equal(_fwht_loop(v), _kernels.fwht_f64(v))
    g = rng.integers(-3, 4, size=256)
    work = g.copy()
    assert _kernels.fwht_i64(work) is work  # in place on the caller's int64 array
    assert np.array_equal(_fwht_loop(g), work)


@pytest.mark.parametrize("size", [1, 2, 16, 256])
def test_fwht_stack_rows_equal_loop_oracle(size):
    # the butterfly runs along the last axis: each row of a stack, C- or
    # Fortran-ordered, equals the loop form on that row alone
    rng = np.random.default_rng(62)
    for v in (rng.normal(size=(5, size)), rng.integers(-3, 4, size=(2, 3, size))):
        for stack in (v, np.asfortranarray(v)):
            before = stack.copy()
            out = _kernels.fwht_f64(stack)
            assert out.dtype == v.dtype and out.shape == v.shape
            assert np.array_equal(stack, before)  # the input is left alone
            for idx in np.ndindex(*v.shape[:-1]):
                assert np.array_equal(out[idx], _fwht_loop(v[idx].copy()))
        if v.dtype == np.int64:
            work = v.copy()
            assert np.array_equal(_kernels.fwht_i64(work), _kernels.fwht_f64(v))


def _min_dists_cases(d, rng):
    """(targets, cloud) pairs that probe the windowed search at dimension d."""
    cloud = rng.normal(size=(30, d))
    yield rng.normal(size=(6, d)), cloud
    yield rng.normal(size=(6, d)), cloud[np.lexsort(cloud.T[::-1])]
    # integer rows, each twice, against half-integer targets: duplicate
    # rows and distances tied between several rows
    grid = np.repeat(rng.integers(-2, 3, size=(15, d)), 2, axis=0).astype(float)
    grid = grid[rng.permutation(30)]
    yield rng.integers(-4, 5, size=(6, d)) / 2.0, grid
    yield rng.normal(size=(4, d)), cloud[:1]
    yield cloud[[3, 0, 3, 29]], cloud
    yield cloud.copy(), cloud
    yield cloud, cloud


def _assert_min_dists_equal_loop(targets, cloud, mode, weights):
    """Each target alone gives its loop entry, and all together the loop's
    maximum, in bytes, so that -0.0 and 0.0 count as different."""
    loop = _min_dists_loop(targets, cloud, mode, weights)
    for i in range(targets.shape[0]):
        alone = _kernels.min_dists(targets[i:i + 1], cloud, mode, weights)
        assert type(alone) is float
        assert np.float64(alone).tobytes() == loop[i].tobytes(), (i, mode, targets, cloud)
    fast = _kernels.min_dists(targets, cloud, mode, weights)
    assert type(fast) is float
    assert np.float64(fast).tobytes() == loop.max().tobytes(), (mode, targets, cloud)


def _window_scans(monkeypatch):
    """Spy on ``_window_minima``: the targets whose windows it scans, one
    row each, batch after batch."""
    scans = []
    window_minima = _kernels._window_minima

    def spy(tcols, *rest):
        scans.extend(np.array(tcols).T)
        return window_minima(tcols, *rest)

    monkeypatch.setattr(_kernels, "_window_minima", spy)
    return scans


def test_min_dists_paths_agree_exactly():
    # d >= 8 catches a pairwise row sum (numpy's sum over an axis of 8 or
    # more), which adds in another order than the loop form
    rng = np.random.default_rng(62)
    for d in (1, 2, 5, 8, 10, 17):
        weights = 0.5 ** (np.arange(d) + 1.0)
        for targets, cloud in _min_dists_cases(d, rng):
            for mode in (MODE_WSUM, MODE_EUCLID, MODE_MAX):
                _assert_min_dists_equal_loop(targets, cloud, mode, weights)


def test_min_dists_nearest_row_on_the_window_edge():
    # the seed row (0.5, y) sets the window; the nearest row (c, 0) lies on
    # its rounded edge, where an unwidened radius or a half-open window
    # would drop it
    for w0, t0, y, c in ((0.7, 5.551115123125783e-16, 0.6050458292357432, 1.3643511846224905),
                         (0.1, 2.6645352591003757e-15, 0.8045809953710716, 8.545809953710716)):
        weights = np.array([w0, 1.0])
        for sign in (1.0, -1.0):  # the upper edge, then the mirrored lower one
            targets = sign * np.array([[t0, 0.0]])
            cloud = sign * np.array([[0.5, y], [c, 0.0]])
            loop = _min_dists_loop(targets, cloud, MODE_WSUM, weights)
            assert loop[0] < _min_dists_loop(targets, cloud[:1], MODE_WSUM, weights)[0]
            _assert_min_dists_equal_loop(targets, cloud, MODE_WSUM, weights)


@pytest.mark.parametrize("mode", [MODE_WSUM, MODE_EUCLID, MODE_MAX])
def test_min_dists_targets_inside_the_cloud(monkeypatch, mode):
    # every seed bound is 0, so the first batch, one target, settles the
    # maximum
    rng = np.random.default_rng(65)
    cloud = rng.normal(size=(40, 3))
    targets = cloud[rng.permutation(40)[:12]]
    weights = np.array([0.5, 1.0, 2.0])
    _assert_min_dists_equal_loop(targets, cloud, mode, weights)
    scans = _window_scans(monkeypatch)
    assert _kernels.min_dists(targets, cloud, mode, weights) == 0.0
    assert len(scans) == 1


@pytest.mark.parametrize("mode", [MODE_WSUM, MODE_EUCLID, MODE_MAX])
def test_min_dists_scans_only_the_far_target(monkeypatch, mode):
    # near targets sit inside a grid and the far one well outside it: the
    # first batch is the far target alone, and after it no near bound can
    # reach its distance
    g = np.arange(6) / 5.0
    cloud = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(66)
    targets = rng.uniform(0.0, 1.0, size=(9, 2))
    targets[4] = (7.0, -3.0)
    weights = np.array([0.75, 1.25])
    _assert_min_dists_equal_loop(targets, cloud, mode, weights)
    scans = _window_scans(monkeypatch)
    _kernels.min_dists(targets, cloud, mode, weights)
    assert len(scans) == 1 and np.array_equal(scans[0], targets[4])


@pytest.mark.parametrize("mode", [MODE_WSUM, MODE_EUCLID, MODE_MAX])
def test_min_dists_tied_bounds(monkeypatch, mode):
    # near and far share their seed rows (-0.1, 5) and (0.1, 5), hence one
    # bound; near's nearest row (0.5, 0) lies inside its window, and far's
    # nearest rows are the seed rows.  Scanned first, near leaves a maximum
    # below the tied bound, so far must be scanned too; scanned first, far
    # reaches the bound and stops the search.  Of near, near, far, far the
    # first batch scans the first near, and the second the other near and
    # the first far, which stops the search.
    cloud = np.array([[-0.1, 5.0], [0.1, 5.0], [0.5, 0.0]])
    near, far = [0.0, 0.0], [0.0, 10.0]
    weights = np.ones(2)
    loop = _min_dists_loop(np.array([near, far]), cloud, mode, weights)
    assert loop[0] < loop[1]
    for targets, nscans in (([near, far], 2), ([far, near], 1), ([near, near, far, far], 3)):
        targets = np.array(targets)
        _assert_min_dists_equal_loop(targets, cloud, mode, weights)
        scans = _window_scans(monkeypatch)
        assert _kernels.min_dists(targets, cloud, mode, weights) == loop[1]
        assert len(scans) == nscans
        monkeypatch.undo()


@pytest.mark.parametrize("w0", [0.0, -0.0, 5e-324, 2.5e-320])
def test_min_dists_zero_and_subnormal_first_weight(w0):
    # w0 = 0 leaves the first column out of every distance, and a subnormal
    # w0 overflows the window radius: both windows span the whole cloud
    rng = np.random.default_rng(67)
    cloud = rng.normal(size=(25, 3))
    targets = np.concatenate([rng.normal(size=(6, 3)), cloud[:3] + [4.0, 0.0, 0.0]])
    weights = np.array([w0, 1.0, 0.5])
    _assert_min_dists_equal_loop(targets, cloud, MODE_WSUM, weights)


def test_min_dists_refuses_no_targets():
    cloud = np.random.default_rng(68).normal(size=(5, 2))
    for mode in (MODE_WSUM, MODE_EUCLID, MODE_MAX):
        with pytest.raises(PreconditionError):
            _kernels.min_dists(np.zeros((0, 2)), cloud, mode, np.ones(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["targets", "cloud"])
def test_min_dists_refuses_non_finite(side, bad):
    # the window relies on the order of the first column, which NaN breaks
    rng = np.random.default_rng(64)
    rows = {"targets": rng.normal(size=(3, 2)), "cloud": rng.normal(size=(9, 2))}
    rows[side][1, 0] = bad
    with pytest.raises(PreconditionError):
        _kernels.min_dists(rows["targets"], rows["cloud"], MODE_EUCLID, np.ones(2))


def test_min_dists_refuses_mismatched_shapes():
    for targets, cloud in ((np.zeros((2, 3)), np.zeros((4, 2))),
                           (np.zeros(3), np.zeros((4, 3))),
                           (np.zeros((2, 0)), np.zeros((4, 0)))):
        with pytest.raises(PreconditionError):
            _kernels.min_dists(targets, cloud, MODE_EUCLID, np.ones(3))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), d=st.integers(1, 5), sort=st.booleans())
def test_lex_sorted_equals_tuple_order(data, n, d, sort):
    # few values, both zeros among them, so pairs often tie on leading
    # coordinates; sorted input, and sorted input with -0.0 and 0.0 swapped
    # for each other, must read sorted
    values = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
    rows = data.draw(arrays(float, (n, d), elements=values))
    if sort:
        rows = rows[np.lexsort(rows.T[::-1])]
        assert _kernels._lex_sorted(rows) and _kernels._lex_sorted(-(-rows + 0.0))
    assert _kernels._lex_sorted(rows) == lex_sorted(rows)


def test_lex_sorted_compares_each_pair_from_its_first_difference():
    assert _kernels._lex_sorted(np.array([[0.0, 5.0, 9.0], [0.0, 5.0, 9.0], [1.0, 0.0, 0.0]]))
    assert not _kernels._lex_sorted(np.array([[0.0, 5.0, 9.0], [0.0, 5.0, 8.0]]))
    assert _kernels._lex_sorted(np.array([[-0.0, 1.0], [0.0, 1.0], [-0.0, 2.0]]))
    assert not _kernels._lex_sorted(np.array([[1.0, 0.0], [0.0, 9.0]]))
    assert _kernels._lex_sorted(np.zeros((1, 3))) and _kernels._lex_sorted(np.zeros((0, 2)))


_coordinates = st.one_of(
    st.sampled_from([-1.0, -0.5, -0.0, 0.0, 1e-16, 0.25, 0.5, 1.0]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data(), d=st.integers(1, 10), nt=st.integers(1, 5), nc=st.integers(1, 12),
       mode=st.sampled_from([MODE_WSUM, MODE_EUCLID, MODE_MAX]))
def test_min_dists_property_equals_loop_oracle(data, d, nt, nc, mode):
    targets = data.draw(arrays(float, (nt, d), elements=_coordinates))
    cloud = data.draw(arrays(float, (nc, d), elements=_coordinates))
    if data.draw(st.booleans()):
        targets = np.concatenate([targets, cloud[::2]])
    weights = data.draw(arrays(float, d, elements=st.sampled_from([-0.0, 0.0]) | st.floats(0.0, 2.0)))
    _assert_min_dists_equal_loop(targets, cloud, mode, weights)


# few values, both zeros among them: long runs of equal first coordinates,
# duplicate rows, and -0.0 beside 0.0
_run_values = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data(), d=st.integers(1, 5), n=st.integers(1, 40), nk=st.integers(1, 8))
def test_lex_insertion_equals_record_searchsorted(data, d, n, nk):
    # keys take their first coordinate from the cloud's first column, as
    # the seed search does, with the sign of a zero flipped at times
    cloud = data.draw(arrays(float, (n, d), elements=_run_values | _coordinates))
    cloud = cloud[np.lexsort(cloud.T[::-1])]
    keys = data.draw(arrays(float, (nk, d), elements=_run_values | _coordinates))
    keys[:, 0] = cloud[data.draw(arrays(np.intp, nk, elements=st.integers(0, n - 1))), 0]
    if data.draw(st.booleans()):
        keys[:, 0] = -(-keys[:, 0] + 0.0)
    got = _kernels._lex_insertion(cloud, cloud[:, 0], keys)
    assert np.array_equal(got, lex_insertion_records(cloud, keys))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data(), d=st.integers(1, 5), nt=st.integers(1, 12), nc=st.integers(1, 40),
       mode=st.sampled_from([MODE_WSUM, MODE_EUCLID, MODE_MAX]),
       budget=st.sampled_from([8, 64, _kernels._CHUNK_BYTES]))
def test_min_dists_equals_window_scan_oracle(data, d, nt, nc, mode, budget):
    # the batched scan against the per-target one, bit for bit, in chunks
    # of one pair, of eight and of the default budget; the seed insertion
    # points against a searchsorted of the rows as records
    cloud = data.draw(arrays(float, (nc, d), elements=_run_values | _coordinates))
    targets = data.draw(arrays(float, (nt, d), elements=_run_values | _coordinates))
    if data.draw(st.booleans()):  # targets inside the cloud
        targets = np.concatenate([targets, cloud[::3]])
    weights = data.draw(arrays(float, d, elements=st.floats(0.0, 2.0)))
    weights[0] = data.draw(st.sampled_from([0.0, -0.0, 5e-324, 2.5e-320, weights[0]]))
    insertion = _kernels._lex_insertion
    sorted_cloud = cloud[np.lexsort(cloud.T[::-1])]

    def checked(rows, c0, keys):
        q = insertion(rows, c0, keys)
        assert np.array_equal(q, lex_insertion_records(sorted_cloud, keys))
        return q

    with mock.patch.object(_kernels, "_CHUNK_BYTES", budget), \
            mock.patch.object(_kernels, "_lex_insertion", checked):
        got = _kernels.min_dists(targets, cloud, mode, weights)
    want = window_scan_min_dists(targets, cloud, mode, weights)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_payoff_table_matches_pure_python():
    rng = np.random.default_rng(63)
    natoms, nact, k = 6, 5, 2
    phi = np.sort(rng.uniform(0, 1, natoms))
    na = np.abs(rng.normal(size=nact))
    p2 = np.abs(rng.normal(size=(natoms, nact)))
    dn = np.abs(rng.normal(size=(natoms, nact, k)))
    am = np.abs(rng.normal(size=(k + 1, k + 1)))
    for gamma in (0.0, 0.3):
        for theta in (0.0, 0.17, 1.3):
            pure = _payoff_table(theta, phi, gamma, na, p2, dn, am, k)
            active = _kernels.payoff_table(theta, phi, gamma, na, p2, dn, am, k)
            assert np.array_equal(pure, active)
        # one theta per player: each row as at its own scalar theta
        thetas = np.array([0.0, 0.17, 1.3, 0.02, 0.17, 0.6])
        per_player = _kernels.payoff_table(thetas, phi, gamma, na, p2, dn, am, k)
        for t, theta in enumerate(thetas):
            pure = _payoff_table(theta, phi, gamma, na, p2, dn, am, k)
            assert np.array_equal(per_player[t], pure[t])


def test_payoff_table_residue_of_huge_ratio():
    # theta far below the player's level makes u exceed the int64 range; the
    # residue must still be the one Python's exact integers give
    phi = np.array([0.75])
    na, p2 = np.array([0.5, 1.0]), np.zeros((1, 2))
    dn = np.array([[[0.3, 0.7], [0.2, 0.1]]])
    am = np.arange(9.0).reshape(3, 3)
    theta = 1e-300
    pure = _payoff_table(theta, phi, 0.0, na, p2, dn, am, 2)
    assert np.array_equal(pure, _kernels.payoff_table(theta, phi, 0.0, na, p2, dn, am, 2))


def _hexes(a):
    return [float(x).hex() for x in np.ravel(a)]


def _random_tables(rng, natoms, nact, k):
    phi = np.sort(rng.uniform(0, 1, natoms))
    na = np.abs(rng.normal(size=nact))
    p2 = np.abs(rng.normal(size=(natoms, nact)))
    dn = np.abs(rng.normal(size=(natoms, nact, k)))
    am = np.abs(rng.normal(size=(k + 1, k + 1)))
    return phi, na, p2, dn, am


def test_payoffs_equal_the_allocating_form():
    rng = np.random.default_rng(64)
    thetas = np.concatenate([[0.0, 1e-300], rng.uniform(0, 0.3, 40)])
    for gamma in (0.0, 0.3):
        for k in (1, 2, 5):
            phi, na, p2, dn, am = _random_tables(rng, 7, 6, k)
            args = (thetas, phi, gamma, na, p2, dn, am, k)
            assert _hexes(_kernels._payoffs(*args)) == _hexes(_payoffs_allocating(*args))
    for g in (build_counterexample_game(3, 0, 2, 2, refinement=4),
              build_counterexample_game(2, "1/4", 2, 2, refinement=4)):
        phi, gamma, na, p2, dn, am = g.ctables
        args = (thetas, phi, gamma, na, p2, dn, am, g.payoff.k)
        assert _hexes(_kernels._payoffs(*args)) == _hexes(_payoffs_allocating(*args))


def test_payoffs_peak_within_two_and_a_half_outputs():
    # 39 theta x 16 atoms x 13 actions, a block of the k3 game: numpy's
    # iterator buffers for broadcast operands used to lift the peak to 4.3x
    phi, gamma, na, p2, dn, am = build_counterexample_game(3, 0, 2, 2, refinement=4).ctables
    thetas = np.linspace(0.01, 0.2, 39)
    _kernels._payoffs(thetas, phi, gamma, na, p2, dn, am, 3)
    tracemalloc.start()
    try:
        out = _kernels._payoffs(thetas, phi, gamma, na, p2, dn, am, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (39, 16, 13)
    assert peak <= 2.5 * out.nbytes


def test_small_buffers_restore_the_buffer_size():
    with np.errstate():
        np.setbufsize(4096)
        with _kernels._small_buffers():
            assert np.getbufsize() == _kernels._UFUNC_BUFFER
        assert np.getbufsize() == 4096


AGGREGATE_SHAPES = {
    # (coordinates, blocks, actions)
    "one-coordinate": (1, 3, 4),
    "one-block": (9, 1, 13),
    "pairwise-width": (48, 3, 7),
    "five-blocks": (6, 5, 3),
    # one profile in all, whose 48 coordinates row_norms sums pairwise
    "one-action": (48, 3, 1),
}


@pytest.mark.parametrize("runs", [1, 2, 5, None])
@pytest.mark.parametrize("shape", sorted(AGGREGATE_SHAPES))
def test_aggregate_distances_equal_the_per_coordinate_loop(shape, runs):
    # chunks of `runs` runs, the last one short where they do not divide
    # the scan; None is the whole scan in one chunk
    d, nblocks, nact = AGGREGATE_SHAPES[shape]
    total = nact ** nblocks
    radix = nact ** np.arange(nblocks - 1, -1, -1)
    runs_total = total // nact
    step = runs or runs_total
    rng = np.random.default_rng(d * 100 + nblocks * 10 + nact)
    for flavor in NORM_FLAVORS * 3:
        # terms of one magnitude, where the order of a sum shows in its
        # last bits, and signed zeros
        contrib = rng.normal(size=(d, nblocks, nact))
        contrib[rng.random(contrib.shape) < 0.2] = -0.0
        e_mean = rng.normal(size=d)
        e_mean[0] = 0.0
        digits = np.arange(total) // radix[:, None] % nact
        want = _aggregate_loop(contrib, e_mean, digits, flavor)
        got = []
        for first in range(0, runs_total, step):
            lead = np.arange(first, min(first + step, runs_total)) // radix[1:, None] % nact
            got.append(_kernels._aggregate_norms(contrib, e_mean, lead, flavor))
        assert _hexes(np.concatenate(got)) == _hexes(want)


def _scan_args(g):
    """The kernel's arguments for a game of one aggregate block."""
    ((_, args),) = _scan_arguments(g, math.inf)
    return args


def _reversed_actions(g):
    return LargeGame(f_alg=g.f_alg, t_alg=g.t_alg, actions=g.actions[::-1],
                     payoff=g.payoff, externality=g.externality)


def _coarse_strategies(g):
    return LargeGame(f_alg=g.f_alg, t_alg=g.f_alg, actions=g.actions,
                     payoff=g.payoff, externality=g.externality)


# each loop-oracle scan below takes well under a second
SCAN_CASES = {
    # singleton t-blocks: one block per atom
    "singletons": lambda: build_counterexample_game(1, 0, 1, 2),
    "singletons-refined": lambda: build_counterexample_game(1, 0, 1, 1, refinement=2),
    "reversed-actions": lambda: _reversed_actions(build_counterexample_game(1, 0, 1, 2)),
    # atomic part [0, 1/4]: its players pay -p2 whatever theta is
    "gamma-quarter": lambda: build_counterexample_game(1, "1/4", 1, 2),
    "gamma-quarter-k2-coarse": lambda: _coarse_strategies(
        build_counterexample_game(2, "1/4", 1, 1, refinement=2)),
    # t-blocks of several atoms: the non-existence set-up
    "coarse": lambda: _coarse_strategies(build_counterexample_game(1, 0, 1, 2, refinement=2)),
    "k2-coarse": lambda: _coarse_strategies(build_counterexample_game(2, 0, 1, 1, refinement=3)),
    # theta under the other norms, which the payoff's own flavor sets
    "singletons-sum": lambda: build_counterexample_game(1, 0, 1, 2, flavor="sum"),
    "gamma-quarter-max": lambda: build_counterexample_game(1, "1/4", 1, 2, flavor="max"),
    "k2-coarse-sum": lambda: _coarse_strategies(
        build_counterexample_game(2, 0, 1, 1, refinement=3, flavor="sum")),
}


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_exhaustive_scan_matches_loop_oracle(case):
    args = _scan_args(SCAN_CASES[case]())
    res0, prof0, dist0 = _exhaustive_scan(*args)
    res1, prof1, dist1 = _kernels.exhaustive_scan(*args)
    assert res0 == res1
    assert np.array_equal(prof0, prof1)
    assert dist0 == dist1


def _conditional(g):
    return LargeGame(f_alg=g.f_alg, t_alg=g.t_alg, actions=g.actions,
                     payoff=g.payoff, externality="conditional")


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
@pytest.mark.parametrize("conditional", [False, True])
def test_scan_arguments_equal_the_per_block_loop(case, conditional):
    # under the conditional externality each F-block is one scan
    g = SCAN_CASES[case]()
    g = _conditional(g) if conditional else g
    got, want = _scan_arguments(g, math.inf), scan_arguments_loop(g)
    assert len(got) == len(want) == len(g.aggregate_alg.blocks)
    for (group, args), (group0, args0) in zip(got, want):
        assert group.tolist() == group0.tolist()
        for a, a0 in zip(args, args0):
            if isinstance(a, np.ndarray):
                assert a.dtype == a0.dtype and a.tobytes() == a0.tobytes()
            else:
                assert a == a0


def test_exhaustive_scan_chunking_does_not_move_the_winner(monkeypatch):
    # chunk boundaries at every profile must give the same first minimum
    args = _scan_args(build_counterexample_game(1, 0, 1, 2))
    whole = _kernels.exhaustive_scan(*args)
    monkeypatch.setattr(_kernels, "_CHUNK_BYTES", 1)
    single = _kernels.exhaustive_scan(*args)
    assert whole[0] == single[0] and whole[2] == single[2]
    assert np.array_equal(whole[1], single[1])


def _duplicated_actions(g):
    # every action twice: each minimum ties with the profiles that swap in
    # copies, which come later in scan order
    return LargeGame(f_alg=g.f_alg, t_alg=g.t_alg, actions=np.concatenate([g.actions, g.actions]),
                     payoff=g.payoff, externality=g.externality)


def _random_aggregates(args, seed):
    # random block masses and action points: every profile gets its own
    # aggregate and theta, while the payoff tables stay the game's
    rng = np.random.default_rng(seed)
    nblocks = args[1].shape[0]
    masses = rng.uniform(0.5, 1.5, nblocks) / nblocks
    return (args[0], masses, args[2], rng.normal(size=args[3].shape), *args[4:])


# scan arguments: the cases above, crafted ties and all-distinct theta
ORACLE_CASES = {
    **{name: (lambda make=make: _scan_args(make())) for name, make in SCAN_CASES.items()},
    "duplicated-actions": lambda: _scan_args(
        _duplicated_actions(build_counterexample_game(1, 0, 1, 1, refinement=2))),
    "random-aggregates": lambda: _random_aggregates(_scan_args(SCAN_CASES["coarse"]()), 65),
    "random-aggregates-gamma-quarter": lambda: _random_aggregates(
        _scan_args(SCAN_CASES["gamma-quarter"]()), 66),
    # one profile, of one action in every block, at d = 48
    "one-action": lambda: (lambda g: _scan_args(LargeGame(
        f_alg=g.f_alg, t_alg=g.t_alg, actions=np.full((1, g.payoff.bundle.d), 0.125),
        payoff=g.payoff)))(build_counterexample_game(16, 0, 2, 2)),
}


def _hex(scan):
    res, prof, dist = scan
    return float(res).hex(), np.asarray(prof).tolist(), float(dist).hex()


@pytest.mark.parametrize("budget", [None, 1])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_exhaustive_scan_equals_batched_oracle(monkeypatch, case, budget):
    # the theta table against the per-profile batched kernel it replaced,
    # at the default chunk budget and at one profile and one theta a chunk
    args = ORACLE_CASES[case]()
    if budget is not None:
        monkeypatch.setattr(_kernels, "_CHUNK_BYTES", budget)
    assert _hex(_kernels.exhaustive_scan(*args)) == _hex(_exhaustive_scan_batched(*args))


@pytest.mark.parametrize("budget", [None, 1])
@pytest.mark.parametrize("case", ["singletons", "singletons-sum", "random-aggregates"])
def test_exhaustive_scan_stops_at_the_first_profile_within_the_bound(monkeypatch, case, budget):
    # the residual and profile only: a scan that stops early has seen a
    # chunk-dependent share of the distances
    args = ORACLE_CASES[case]()
    least = _exhaustive_scan_batched(*args)[0]
    if budget is not None:
        monkeypatch.setattr(_kernels, "_CHUNK_BYTES", budget)
    for bound in (least, 2 * least + 1e-3, 0.05, 0.5, math.inf):
        want = _exhaustive_scan_batched(*args, bound=bound)
        assert _hex(_kernels.exhaustive_scan(*args, bound=bound))[:2] == _hex(want)[:2]


@pytest.mark.parametrize("beta", [0.0, -0.0, -0.25, math.nan, math.inf])
def test_exhaustive_scan_refuses_beta_outside_positive_reals(beta):
    # theta = beta * distance is keyed as a float: it must be >= +0
    args = _scan_args(build_counterexample_game(1, 0, 1, 2))
    with pytest.raises(PreconditionError):
        _kernels.exhaustive_scan(*args[:5], beta, *args[6:])


def test_exhaustive_scan_memory_bounded_when_every_theta_differs(monkeypatch):
    # 13**4 profiles, each with its own theta, so the regret cache fills to
    # its cap of 8 budgets and never hits: traced memory stays within
    # 16 x _CHUNK_BYTES, and no payoff block exceeds one budget
    args = _random_aggregates(_scan_args(_coarse_strategies(
        build_counterexample_game(3, 0, 2, 2, refinement=4))), 67)
    natoms, nact = args[7].shape[0], args[0]
    tracemalloc.start()
    try:
        scan = _kernels.exhaustive_scan(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * _kernels._CHUNK_BYTES
    assert _hex(scan) == _hex(_exhaustive_scan_batched(*args))
    seen = []
    payoffs = _kernels._payoffs

    def spy(thetas, *rest):
        seen.append(thetas.shape[0])
        return payoffs(thetas, *rest)

    monkeypatch.setattr(_kernels, "_payoffs", spy)
    _kernels.exhaustive_scan(*args)
    assert max(seen) <= max(1, _kernels._CHUNK_BYTES // (8 * natoms * nact))
    assert sum(seen) == 13 ** 4  # every theta distinct, each evaluated once


def test_fresh_process_report_bytes_match_in_process():
    # a fresh interpreter renders the same report bytes as this process
    code = (
        "from corrint.scenarios import load_bundled, run_scenario_dict, "
        "render_report; import sys; "
        "sys.stdout.write(render_report(run_scenario_dict("
        "load_bundled('e1-nonconvexity'))))"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
    ).stdout
    from corrint.scenarios import load_bundled, render_report, run_scenario_dict

    here = render_report(run_scenario_dict(load_bundled("e1-nonconvexity")))
    assert fresh == here
