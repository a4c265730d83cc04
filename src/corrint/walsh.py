"""Walsh orthogonal system on [0,1] and its exact dyadic calculus.

Index convention: for n >= 1 with binary digits n = n_0 + 2 n_1 + ... +
2**(a-1) n_{a-1} (leading digit set) and a point l with fractional binary
digits l = l_0/2 + l_1/4 + ..., the n-th function takes the value
(-1)**(n_0 l_0 + n_1 l_1 + ... + n_{a-1} l_{a-1}); the 0-th function is
identically 1.  For n < 2**L the function is constant on every half-open
level-L cell [p/2**L, (p+1)/2**L), so the package works with cell signs
only: ``walsh_sign_on_cell`` is the one evaluation, and
``walsh_integer_spectrum`` the one transform (boundary points carry no
mass at desk scale).
"""
from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from . import _kernels
from .errors import PreconditionError


def walsh_sign_on_cell(n: int, cell: int, level: int) -> int:
    """Sign of W_n on the dyadic cell [cell/2**level, (cell+1)/2**level)."""
    if n < 0:
        raise PreconditionError(f"Walsh index must be >= 0, got {n}")
    if n.bit_length() > level:
        raise PreconditionError(
            f"level {level} too coarse to resolve Walsh index {n}"
        )
    if not 0 <= cell < (1 << level):
        raise PreconditionError(f"cell {cell} outside level-{level} grid")
    acc = 0
    for j in range(n.bit_length()):
        acc += ((n >> j) & 1) & ((cell >> (level - 1 - j)) & 1)
    return -1 if acc & 1 else 1


def walsh_integral(n: int, lo: Fraction, hi: Fraction, level: int) -> Fraction:
    """Exact integral of W_n over the dyadic interval [lo, hi].

    lo and hi must be aligned to the level-``level`` grid and the level must
    resolve the index (level >= bit length of n).
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    if n.bit_length() > level:
        raise PreconditionError(f"level {level} too coarse for Walsh index {n}")
    scale = 1 << level
    p = lo * scale
    q = hi * scale
    if p.denominator != 1 or q.denominator != 1:
        raise PreconditionError(
            f"interval [{lo}, {hi}] not aligned to the level-{level} grid"
        )
    p, q = int(p), int(q)
    if not 0 <= p <= q <= scale:
        raise PreconditionError(f"interval [{lo}, {hi}] outside [0,1] or reversed")
    total = 0
    for cell in range(p, q):
        total += walsh_sign_on_cell(n, cell, level)
    return Fraction(total, scale)


def walsh_set(n: int, level: int) -> frozenset[int]:
    """Level-``level`` cells on which W_n = +1; exactly half of them for n >= 1."""
    if n.bit_length() > level:
        raise PreconditionError(f"level {level} too coarse for Walsh index {n}")
    return frozenset(
        cell for cell in range(1 << level)
        if walsh_sign_on_cell(n, cell, level) == 1
    )


@functools.lru_cache(maxsize=None)
def _bit_reverse_permutation(level: int) -> np.ndarray:
    """Index array reversing the ``level`` low bits; cached, so read-only."""
    idx = np.arange(1 << level)
    rev = np.zeros_like(idx)
    for _ in range(level):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    rev.flags.writeable = False
    return rev


def walsh_gram(max_index: int, level: int) -> np.ndarray:
    """Integer Gram matrix sum_c W_m(c) W_n(c) over the level-``level`` cells.

    Entry (m, n), for m, n < max_index, is 2**level <W_m, W_n>.  The sign
    table is built from ``walsh_sign_on_cell`` one chunk of cells at a time,
    each chunk near ``_kernels._CHUNK_BYTES``, and the products are summed
    in int64, which is exact: no entry exceeds 2**level in absolute value.
    """
    if max_index < 1 or level < 0:
        raise PreconditionError(
            f"need max_index >= 1 and level >= 0, got {max_index} and {level}"
        )
    ncells = 1 << level
    gram = np.zeros((max_index, max_index), dtype=np.int64)
    chunk = max(1, _kernels._CHUNK_BYTES // (8 * max_index))
    for lo in range(0, ncells, chunk):
        cells = range(lo, min(lo + chunk, ncells))
        signs = np.array(
            [[walsh_sign_on_cell(n, c, level) for c in cells] for n in range(max_index)],
            dtype=np.int64,
        )
        gram += signs @ signs.T
    return gram


def walsh_integer_spectrum(step_values) -> np.ndarray:
    """Integer cell sums sum_c g_c W_n(cell c) for all n, via the butterfly.

    Takes one row of integer step values or a stack of rows (the transform
    runs along the last axis, whose length must be a power of two) and is
    exact: dividing by 2**L gives the exact dyadic integrals used by the
    inequality checks.  Every intermediate of the butterfly is a signed sum
    of a row's values, so a row whose sum of |g_c| stays below 2**63 cannot
    overflow int64.  Raises ``PreconditionError`` on non-integral values and
    on a row that reaches that sum, instead of truncating or wrapping.
    Beside its result it holds one half-size scratch array, and a
    bit-reversed copy of a non-int64 input.
    """
    v = np.asarray(step_values)
    size = v.shape[-1] if v.ndim else 0
    if size == 0 or size & (size - 1):
        raise PreconditionError(f"input length {size} is not a power of two")
    if v.dtype.kind == "f":
        if not (np.isfinite(v).all() and (v == np.trunc(v)).all()):
            raise PreconditionError("integer spectrum needs integral step values")
    elif v.dtype.kind not in "biu":
        raise PreconditionError(
            f"integer spectrum needs int64-range step values, got dtype {v.dtype}"
        )
    if v.size:
        # in Python ints, so neither the bound nor |int64 min| can wrap
        top = max(int(v.max()), -int(v.min()))
        if top * size >= 1 << 63:
            rows = v.reshape(-1, size).tolist()
            if max(sum(abs(int(x)) for x in row) for row in rows) >= 1 << 63:
                raise PreconditionError(
                    "integer spectrum would overflow int64: a row's sum of |values| "
                    "reaches 2**63"
                )
    # H[i, j] = (-1)**popcount(i & j) is unchanged when both indices are
    # bit-reversed, so the bit-reversed spectrum is the butterfly of the
    # bit-reversed values: they are gathered straight into the one int64
    # array that the butterfly then works in and returns
    perm = _bit_reverse_permutation(size.bit_length() - 1)
    out = np.empty(v.shape, dtype=np.int64)
    if v.dtype == np.int64:
        np.take(v, perm, axis=-1, out=out, mode="clip")  # "raise" would buffer out
    else:
        out[...] = v[..., perm]
    return _kernels.fwht_i64(out)
