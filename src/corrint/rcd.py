"""Regular conditional distributions of selections as finite transition
kernels and their mixtures.

The kernel of a selection conditional on an algebra assigns to each block
the empirical distribution of the selection's values there, weighted by
exact rational masses; its barycenter recovers the conditional expectation.
A correspondence's kernel set is its Dirac embedding, so no separate
compactification object exists.

A kernel is held as arrays: one read-only stack of support points, block
after block, each block's number of points, and each point's weight as an
integer numerator over its block's one denominator.  As in
``DiscreteSpace._nums``, the numerators are int64 while their total and the
denominators' total are below 2**53, so no sum of them wraps and each is
exact in float64, and Python ints past that.  The three ways to build a
kernel (per-block lists of (vector, weight) pairs, a selection, a mixture
of two kernels) each flatten their entries into rows, block labels and
numerators and hand them to one constructor core,
``TransitionKernel._from_entries``, which merges the bit-equal rows of each
block with one stable sort and sums their numerators exactly.
``rcd_of_selection`` still reads each atom's mass through
``space.mass_of`` and each block's through ``space.mass``, because the
benchmark's layer table (``perfbench/tracer.py``) requires both on the
exact workload; it divides once per distinct atom mass in a block, and the
weights of the atoms then follow as integers.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .correspondences import Selection, _merge_rows, _stack_vectors
from .errors import PreconditionError, StructureError
from .spaces import SigmaPartition, sequential_sums


def _int_dtype(total: int):
    """The dtype of nonnegative integer numerators and denominators that
    each sum to ``total`` at most: int64 below 2**53, as ``DiscreteSpace``
    keeps its numerators, Python ints past that."""
    return np.int64 if total < 1 << 53 else object


@dataclass(frozen=True, init=False, eq=False)
class TransitionKernel:
    """Blockwise finite distributions over vectors, weights exact rationals.

    ``supports[j]`` is a read-only (m, d) slice of one stack: the distinct
    points of block j, bit for bit, in lexicographic order (ties in input
    order), each with its positive weight in ``weights[j]``.  Inside, the
    stack's rows carry their block in ``_owner`` and each block's count is
    in ``_counts``; the weights are ``_nums``, one integer per point, over
    ``_dens``, one denominator per block.  ``supports`` and ``weights`` are
    built from them on first use.  Kernels compare with ``equals_exactly``.
    """

    g_alg: SigmaPartition
    _stack: np.ndarray = field(repr=False)
    _owner: np.ndarray = field(repr=False)
    _counts: np.ndarray = field(repr=False)
    _nums: np.ndarray = field(repr=False)
    _dens: np.ndarray = field(repr=False)

    def __init__(self, g_alg: SigmaPartition, per_block):
        """per_block: list aligned with g_alg.blocks of [(vector, weight), ...]."""
        if len(per_block) != len(g_alg.blocks):
            raise StructureError(
                f"{len(per_block)} block distributions for {len(g_alg.blocks)} blocks"
            )
        vectors, nums, dens, sizes = [], [], [], []
        for b, dist in zip(g_alg.blocks, per_block):
            fracs = []
            for v, w in dist:
                if not isinstance(w, Fraction):
                    w = Fraction(w)
                if w.numerator < 0:
                    raise StructureError(f"negative weight {w} in block {sorted(b)}")
                vectors.append(v)
                fracs.append(w)
            den = math.lcm(*(w.denominator for w in fracs))
            nums += [w.numerator * (den // w.denominator) for w in fracs]
            dens.append(den)
            sizes.append(len(fracs))
        # with no point at all, the first block's weights fail the sum check
        raw = _stack_vectors(vectors, "kernel support points") if vectors \
            else np.zeros((0, 0))
        owner = np.repeat(np.arange(len(sizes)), sizes)
        nums = np.array(nums, dtype=_int_dtype(max(sum(nums), sum(dens))))
        # the core builds a second instance; this one takes its fields
        self.__dict__.update(vars(TransitionKernel._from_entries(g_alg, raw, owner, nums, dens)))

    @classmethod
    def _from_entries(cls, g_alg: SigmaPartition, rows: np.ndarray, owner: np.ndarray,
                      nums: np.ndarray, dens: list[int]) -> "TransitionKernel":
        """The constructor core: a kernel from flat entries.

        Entry i is the point ``rows[i]`` of block ``owner[i]`` with weight
        ``nums[i] / dens[owner[i]]``; numerators are nonnegative, int64
        only when they and the denominators each total below 2**53
        (``_int_dtype``).  Zero weights are dropped, bit-equal points of a
        block merged into the first of them with their numerators summed,
        and each block's numerators must sum to its denominator.  Raises
        StructureError on a point that is not finite (NaN has no place in
        lexicographic order) or on a block whose weights do not sum to 1.
        """
        if not np.isfinite(rows).all():
            raise StructureError("kernel support points must be finite")
        if not nums.all():
            live = np.flatnonzero(nums)
            rows, owner, nums = rows[live], owner[live], nums[live]
        order, starts, rank = _merge_rows(rows, owner)
        nums = np.add.reduceat(nums[order], starts)[rank]
        kept = order[starts[rank]]
        owner = owner[kept]
        counts = np.bincount(owner, minlength=len(dens))
        sums = np.zeros(nums.shape[0] + 1, dtype=nums.dtype)
        np.cumsum(nums, out=sums[1:])
        ends = np.cumsum(counts)
        dens = np.array(dens, dtype=nums.dtype)
        bad = np.flatnonzero(sums[ends] - sums[ends - counts] != dens)
        if bad.shape[0]:
            j = int(bad[0])
            total = Fraction(int(sums[ends[j]] - sums[ends[j] - counts[j]]), int(dens[j]))
            raise StructureError(
                f"weights in block {sorted(g_alg.blocks[j])} sum to {total}, not 1"
            )
        stack = rows[kept]
        stack.setflags(write=False)
        kern = object.__new__(cls)
        for name, value in (("g_alg", g_alg), ("_stack", stack), ("_owner", owner),
                            ("_counts", counts), ("_nums", nums), ("_dens", dens)):
            object.__setattr__(kern, name, value)
        return kern

    @property
    def dim(self) -> int:
        return self._stack.shape[1]

    @functools.cached_property
    def supports(self) -> tuple[np.ndarray, ...]:
        ends = np.cumsum(self._counts).tolist()
        return tuple(self._stack[lo:hi] for lo, hi in zip([0, *ends], ends))

    @functools.cached_property
    def weights(self) -> tuple[tuple[Fraction, ...], ...]:
        nums, out, lo = self._nums.tolist(), [], 0
        for den, count in zip(self._dens.tolist(), self._counts.tolist()):
            out.append(tuple(Fraction(n, den) for n in nums[lo:lo + count]))
            lo += count
        return tuple(out)

    def barycenters(self) -> list[np.ndarray]:
        """Per block, the sum of weight * point over its support in order,
        from zeros (``sequential_sums``).

        Each weight is its numerator over the block's denominator, correctly
        rounded as in ``spaces.block_averages``: a float64 quotient of int64
        below 2**53, Python's int division past it; either is
        ``float(weight)``.
        """
        weights = (self._nums / self._dens[self._owner]).astype(float, copy=False)
        return list(sequential_sums(self._stack * weights[:, None], self._counts))

    def equals_exactly(self, other: "TransitionKernel") -> bool:
        """Same blocks, the same support points bit for bit, and the same
        weights, compared as cross-multiplied integers."""
        if self.g_alg.blocks != other.g_alg.blocks or self._stack.shape != other._stack.shape \
                or self._counts.tolist() != other._counts.tolist() \
                or not (self._stack.view(np.int64) == other._stack.view(np.int64)).all():
            return False
        # each numerator is at most its denominator, so int64 products are
        # exact while the two largest denominators' product is below 2**63
        mine, theirs = self._dens.tolist(), other._dens.tolist()
        dtype = np.int64 if not mine or max(mine) * max(theirs) < 1 << 63 else object
        scale = np.array([theirs, mine], dtype=dtype)[:, self._owner]
        return bool((self._nums * scale[0] == other._nums * scale[1]).all())

    def to_json(self) -> list[dict]:
        return [
            {
                "block": sorted(b),
                "support": sup.tolist(),
                "weights": [f"{w.numerator}/{w.denominator}" for w in ws],
            }
            for b, sup, ws in zip(self.g_alg.blocks, self.supports, self.weights)
        ]


def rcd_of_selection(sel: Selection, g_alg: SigmaPartition) -> TransitionKernel:
    """Empirical blockwise distribution of the selection's values.

    The weight of value v in block B is the exact rational mass of
    {t in B : f(t) = v} over mass(B): each atom weighs mass_of(t) / mass(B),
    one division per distinct atom mass in the block (atoms of equal mass
    have equal integer numerators in ``space``).
    """
    space = sel.corr.space
    if g_alg.atom_set != space.atom_set:
        raise StructureError("conditioning algebra does not cover the space")
    order, sizes = g_alg.layout
    atoms = list(map(space.ids.__getitem__, order.tolist()))
    masses = list(map(space.mass_of, atoms))
    keys = space._nums[order].tolist()
    nums, dens, lo = [], [], 0
    for b, size in zip(g_alg.blocks, sizes.tolist()):
        hi = lo + size
        bmass = space.mass(b)
        share = {n: m / bmass for n, m in dict(zip(keys[lo:hi], masses[lo:hi])).items()}
        den = math.lcm(*(w.denominator for w in share.values()))
        scaled = {n: w.numerator * (den // w.denominator) for n, w in share.items()}
        nums += map(scaled.__getitem__, keys[lo:hi])
        dens.append(den)
        lo = hi
    return TransitionKernel._from_entries(g_alg, sel.choice[order], g_alg.labels[order],
                                          np.array(nums, dtype=_int_dtype(sum(dens))), dens)


def kernel_mix(
    k1: TransitionKernel, k2: TransitionKernel, alpha
) -> TransitionKernel:
    """Blockwise mixture alpha*k1 + (1-alpha)*k2 with support union.

    With alpha = p/q, block j's weights go over q * lcm(D1, D2), the two
    kernels' numerators scaled by p and q - p times the lcm over their own
    denominator; each scaled numerator stays at most the new denominator.
    """
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise PreconditionError(f"alpha must lie in [0,1], got {alpha}")
    if k1.g_alg.blocks != k2.g_alg.blocks:
        raise StructureError("kernels live on different block structures")
    if k1.dim != k2.dim:
        raise StructureError(f"kernel support points of mixed dimensions {k1.dim} and {k2.dim}")
    p, q = alpha.numerator, alpha.denominator
    d1, d2 = k1._dens.tolist(), k2._dens.tolist()
    lcms = list(map(math.lcm, d1, d2))
    dens = [q * m for m in lcms]
    dtype = _int_dtype(sum(dens))
    scale1 = np.array([p * (m // d) for m, d in zip(lcms, d1)], dtype=dtype)
    scale2 = np.array([(q - p) * (m // d) for m, d in zip(lcms, d2)], dtype=dtype)
    nums = np.concatenate((k1._nums.astype(dtype, copy=False) * scale1[k1._owner],
                           k2._nums.astype(dtype, copy=False) * scale2[k2._owner]))
    return TransitionKernel._from_entries(k1.g_alg, np.concatenate((k1._stack, k2._stack)),
                                          np.concatenate((k1._owner, k2._owner)), nums, dens)
