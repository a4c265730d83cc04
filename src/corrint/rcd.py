"""Regular conditional distributions of selections as finite transition
kernels and their mixtures.

The kernel of a selection conditional on an algebra assigns to each block
the empirical distribution of the selection's values there, weighted by
exact rational masses; its barycenter recovers the conditional expectation.
A correspondence's kernel set is its Dirac embedding, so no separate
compactification object exists.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .correspondences import Selection, _row_keys, _stack_vectors
from .errors import PreconditionError, StructureError
from .spaces import SigmaPartition, sequential_sums


@dataclass(frozen=True, init=False)
class TransitionKernel:
    """Blockwise finite distributions over vectors, weights exact rationals.

    ``supports[j]`` is a read-only (m, d) slice of one stack: the distinct
    points of block j, bit for bit, in lexicographic order (ties in input
    order), each with its positive weight in ``weights[j]``.
    """

    g_alg: SigmaPartition
    supports: tuple[np.ndarray, ...]   # per block, canonical order
    weights: tuple[tuple[Fraction, ...], ...]

    def __init__(self, g_alg: SigmaPartition, per_block):
        """per_block: list aligned with g_alg.blocks of [(vector, weight), ...]."""
        if len(per_block) != len(g_alg.blocks):
            raise StructureError(
                f"{len(per_block)} block distributions for {len(g_alg.blocks)} blocks"
            )
        vectors, nums, dens, sizes = [], [], [], []
        for b, dist in zip(g_alg.blocks, per_block):
            n = len(nums)
            for v, w in dist:
                if not isinstance(w, Fraction):
                    w = Fraction(w)
                if w.numerator < 0:
                    raise StructureError(f"negative weight {w} in block {sorted(b)}")
                vectors.append(v)
                nums.append(w.numerator)
                dens.append(w.denominator)
            sizes.append(len(nums) - n)
        # with no point at all, the first block's weights fail the sum check
        raw = _stack_vectors(vectors, "kernel support points") if vectors \
            else np.zeros((0, 0))
        keys, rows = _row_keys(raw), raw.tolist()
        order, bounds, weights = [], [0], []
        start = 0
        for b, n in zip(g_alg.blocks, sizes):
            # exact sums: int numerators over the block's common denominator
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
            order += [i for i, _ in items]
            bounds.append(len(order))
            weights.append(tuple(Fraction(num, den) for _, num in items))
        stack = raw[order]
        stack.setflags(write=False)
        object.__setattr__(self, "g_alg", g_alg)
        object.__setattr__(self, "supports", tuple(
            stack[lo:hi] for lo, hi in zip(bounds, bounds[1:])))
        object.__setattr__(self, "weights", tuple(weights))

    @property
    def dim(self) -> int:
        return self.supports[0].shape[1]

    def barycenters(self) -> list[np.ndarray]:
        """Per block, the sum of float(weight) * point over its support in
        order, from zeros (``sequential_sums``)."""
        weights = np.array([float(w) for ws in self.weights for w in ws])
        sizes = np.array([len(ws) for ws in self.weights], dtype=np.int64)
        rows = np.concatenate(self.supports) * weights[:, None]
        return list(sequential_sums(rows, sizes))

    def equals_exactly(self, other: "TransitionKernel") -> bool:
        if self.g_alg.blocks != other.g_alg.blocks:
            return False
        for sa, wa, sb, wb in zip(
            self.supports, self.weights, other.supports, other.weights
        ):
            if wa != wb or not np.array_equal(sa, sb):
                return False
        return True

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
    {t in B : f(t) = v} over mass(B).
    """
    space = sel.corr.space
    if g_alg.atom_set != space.atom_set:
        raise StructureError("conditioning algebra does not cover the space")
    per_block = []
    for b in g_alg.blocks:
        bmass = space.mass(b)
        per_block.append([(sel.at(a), space.mass_of(a) / bmass) for a in sorted(b)])
    return TransitionKernel(g_alg, per_block)


def kernel_mix(
    k1: TransitionKernel, k2: TransitionKernel, alpha
) -> TransitionKernel:
    """Blockwise mixture alpha*k1 + (1-alpha)*k2 with support union."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise PreconditionError(f"alpha must lie in [0,1], got {alpha}")
    if k1.g_alg.blocks != k2.g_alg.blocks:
        raise StructureError("kernels live on different block structures")
    per_block = []
    for sup1, w1, sup2, w2 in zip(k1.supports, k1.weights, k2.supports, k2.weights):
        dist = [(v, alpha * w) for v, w in zip(sup1, w1)]
        dist += [(v, (1 - alpha) * w) for v, w in zip(sup2, w2)]
        per_block.append(dist)
    return TransitionKernel(k1.g_alg, per_block)

