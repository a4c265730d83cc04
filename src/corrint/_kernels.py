"""Hot numeric kernels, vectorized in numpy.

The Walsh butterfly and the distance scan pair and order their
floating-point operations exactly as plain loops do, so both agree with
their loop forms bit for bit.  The game kernels share one batched payoff
formula, ``_payoffs``, which keeps the loop form's operation order and
evaluates ``sin`` through libm (``math.sin``), so a table at one externality
and an exhaustive scan over many agree with a per-element loop exactly.
The loop forms live in the test suite as oracles.
"""
from __future__ import annotations

import math

import numpy as np

KERNEL_PATH = "numpy"

# distance modes of min_dists
MODE_WSUM = 1   # weighted l1:  sum_m w_m |dx_m|
MODE_EUCLID = 2
MODE_MAX = 3

# target size in bytes of one (profiles, atoms, actions) temporary of the scan
_SCAN_CHUNK_BYTES = 1 << 16

_libm_sin = np.frompyfunc(math.sin, 1, 1)


def fwht_f64(v):
    """Hadamard butterfly, unnormalized; pairs elements as the naive loop does."""
    out = v.copy()
    n = out.shape[0]
    h = 1
    while h < n:
        m = out.reshape(-1, 2 * h)
        a = m[:, :h].copy()
        b = m[:, h:].copy()
        m[:, :h] = a + b
        m[:, h:] = a - b
        h *= 2
    return out


fwht_i64 = fwht_f64


def min_dists(targets, cloud, mode, weights):
    """Distance from each target row to its nearest cloud row."""
    nt = targets.shape[0]
    res = np.empty(nt)
    for it in range(nt):
        diff = cloud - targets[it]
        if mode == MODE_EUCLID:
            dist = np.sqrt(np.sum(diff * diff, axis=1))
        elif mode == MODE_WSUM:
            dist = np.sum(np.abs(diff) * weights, axis=1)
        else:
            dist = np.max(np.abs(diff), axis=1)
        res[it] = dist.min()
    return res


def _payoffs(thetas, phi, gamma, na, p2, dn, am, k):
    """Payoff of every (theta, player, action) triple, shape (ntheta, natoms, nact).

    Players with theta = 0 or phi <= gamma get u = 0, hence a zero
    oscillating factor and exactly -p2.
    """
    active = (thetas[:, None] != 0.0) & (phi[None, :] > gamma)
    u = np.divide(phi[None, :] - gamma, thetas[:, None],
                  out=np.zeros(active.shape), where=active)
    # the residue is taken in floats, where floor(u) is exact at any size
    rho = (np.floor(u) % (k + 1)).astype(np.int64)
    sinv = np.abs(_libm_sin(u * math.pi).astype(float))
    # in place where the loop form's operands allow: x * y == y * x exactly
    hv = na + am[0, rho][:, :, None]
    hv *= (thetas[:, None] * sinv)[:, :, None]
    for i in range(1, k + 1):
        hv *= dn[None, :, :, i - 1] + am[i, rho][:, :, None]
    np.negative(hv, out=hv)
    hv -= p2
    return hv


def payoff_table(theta, phi, gamma, na, p2, dn, am, k):
    """Payoff of every (player, action) pair at scalar externality theta.

    p2[t, a] is the theta-independent product term, dn[t, a, i-1] the norm
    gap to the i-th mixed point of t's cell, na[a] the action norm, and
    am[i, rho] the planar root-of-unity modulus table.
    """
    return _payoffs(np.array([float(theta)]), phi, gamma, na, p2, dn, am, k)[0]


def exhaustive_scan(nact, block_mass, block_start, block_len,
                    actions, e_mean, beta, phi, gamma, na, p2, dn, am, k):
    """Scan every block-constant profile; return the minimum-residual one.

    Returns (min residual, best profile digits, min aggregate distance to
    e_mean over all profiles).  Deterministic: mixed-radix order with the
    last block fastest, first minimum wins.  Profiles are evaluated in
    chunks whose payoff temporaries stay near ``_SCAN_CHUNK_BYTES``.
    """
    nblocks = block_mass.shape[0]
    d = actions.shape[1]
    total = nact ** nblocks
    radix = nact ** np.arange(nblocks - 1, -1, -1, dtype=np.int64)
    atoms = np.concatenate([np.arange(s, s + n) for s, n in zip(block_start, block_len)])
    atom_block = np.repeat(np.arange(nblocks), block_len)
    phi, p2, dn = phi[atoms], p2[atoms], dn[atoms]
    chunk = max(1, _SCAN_CHUNK_BYTES // (8 * atoms.shape[0] * nact))
    best_res = math.inf
    best_prof = np.zeros(nblocks, dtype=np.int64)
    min_aggdist = math.inf
    for lo in range(0, total, chunk):
        digits = (np.arange(lo, min(lo + chunk, total))[:, None] // radix) % nact
        agg = np.zeros((digits.shape[0], d))
        for b in range(nblocks):
            agg += block_mass[b] * actions[digits[:, b]]
        dx = agg - e_mean
        acc = np.zeros(digits.shape[0])
        for m in range(d):
            acc += dx[:, m] * dx[:, m]
        aggdist = np.sqrt(acc)
        min_aggdist = min(min_aggdist, float(aggdist.min()))
        pay = _payoffs(beta * aggdist, phi, gamma, na, p2, dn, am, k)
        chosen = np.take_along_axis(pay, digits[:, atom_block, None], axis=2)[:, :, 0]
        worst = (pay.max(axis=2) - chosen).max(axis=1)
        i = int(np.argmin(worst))
        if worst[i] < best_res:
            best_res = float(worst[i])
            best_prof = digits[i].copy()
    return best_res, best_prof, min_aggdist
