"""Finite probability spaces with exact rational masses.

Sigma-algebras are partitions of the atom set (on a finite space every
sigma-algebra is generated by one).  Masses are ``fractions.Fraction`` at
the API; inside, a space keeps one integer numerator per atom over one
common denominator, so a block's mass is an integer sum and independence
checks are exact identities rather than toleranced comparisons.  A
partition keeps one int64 block label per atom, so refinement and block
sums are array passes.  :func:`block_averages` is the one conditional
average E(f|G) on a finite space: every block average in the package goes
through it.

Atomless spaces enter through :class:`DyadicModel`: the interval piece
(gamma, 1] is modeled by 2**level uniform cells, each optionally refined
into equal-mass sub-atoms, plus a single atom of mass gamma for the purely
atomic remainder.  The embedding of atoms onto dyadic subintervals is the
canonical order-preserving one, and the evaluation point of an atom is its
subinterval midpoint (atoms of the atomic part sit at gamma/2).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, StructureError
from .walsh import walsh_set


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise StructureError(
            f"masses must be exact rationals, got float {x!r}; pass Fraction or 'p/q'"
        )
    return Fraction(x)


@dataclass(frozen=True)
class DiscreteSpace:
    """Finite atomic probability space: ordered atoms with rational masses.

    ``uniform`` and ``from_masses`` number the atoms 0..n-1; the
    constructor takes any unique ascending ids, and lookups go by id, not
    by position.

    ``den``, ``_nums`` and ``atom_set`` are derived once: the least common
    denominator of the masses, aligned with ``ids`` each mass times
    ``den``, an integer, and the set of ids.  ``_nums`` is a read-only
    array: int64 while ``den < 2**53``, so every block sum and quotient of
    them is exact in float64 too, and Python ints past that.
    """

    ids: tuple[int, ...]
    masses: tuple[Fraction, ...]
    den: int = field(init=False, repr=False, compare=False)
    _nums: np.ndarray = field(init=False, repr=False, compare=False)
    _position: dict[int, int] = field(init=False, repr=False, compare=False)
    _atom_set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.ids) != len(self.masses) or not self.ids:
            raise StructureError("space needs matching, non-empty ids and masses")
        if len(set(self.ids)) != len(self.ids) or list(self.ids) != sorted(self.ids):
            raise StructureError("atom ids must be unique and ascending")
        # each distinct (numerator, denominator) pair is checked and scaled
        # once, in the order the atoms first give it
        index: dict[tuple[int, int], int] = {}
        keys = [index.setdefault((m.numerator, m.denominator), len(index))
                for m in self.masses]
        for n, q in index:
            if n <= 0:
                raise StructureError(f"atom mass {Fraction(n, q)} is not strictly positive")
        den = math.lcm(*(q for _, q in index))
        scaled = [n * (den // q) for n, q in index]
        if sum(map(scaled.__getitem__, keys)) != den:
            raise StructureError("atom masses must sum exactly to 1")
        object.__setattr__(self, "den", den)
        array = np.array(scaled, dtype=np.int64 if den < 2 ** 53 else object)[keys]
        array.setflags(write=False)
        object.__setattr__(self, "_nums", array)
        object.__setattr__(self, "_position", {a: i for i, a in enumerate(self.ids)})
        object.__setattr__(self, "_atom_set", frozenset(self.ids))

    @classmethod
    def uniform(cls, n: int) -> "DiscreteSpace":
        if n < 1:
            raise StructureError("need at least one atom")
        return cls(tuple(range(n)), tuple([Fraction(1, n)] * n))

    @classmethod
    def from_masses(cls, masses) -> "DiscreteSpace":
        ms = tuple(_as_fraction(m) for m in masses)
        return cls(tuple(range(len(ms))), ms)

    def position(self, atom: int) -> int:
        """Index of the atom in ``ids`` (and ``masses``)."""
        try:
            return self._position[atom]
        except KeyError:
            raise StructureError(f"atom {atom} not in space") from None

    def mass_of(self, atom: int) -> Fraction:
        return self.masses[self.position(atom)]

    @property
    def numerators(self) -> tuple[int, ...]:
        """Each atom's mass times ``den``, aligned with ``ids``."""
        return tuple(self._nums.tolist())

    def numerator(self, atoms) -> int:
        """Mass of the atom set times ``den``: a sum of ints."""
        try:
            return sum(map(self._nums.item, map(self._position.__getitem__, set(atoms))))
        except KeyError as missing:
            raise StructureError(f"atom {missing.args[0]} not in space") from None

    def mass(self, atoms) -> Fraction:
        return Fraction(self.numerator(atoms), self.den)

    @property
    def atom_set(self) -> frozenset[int]:
        return self._atom_set


@dataclass(frozen=True, init=False, eq=False)
class SigmaPartition:
    """A sigma-algebra on a finite space, as the partition generating it.

    Blocks are read in canonical order (sorted by smallest member).  Three
    things are built once with the partition: the union of the blocks;
    ``labels``, a read-only int64 array holding each atom's block index,
    atoms in ascending id order (aligned with the ``ids`` of a space on the
    same atoms); and ``layout``, the pair (order, sizes) of the atom
    positions grouped block by block, ascending within each block, and each
    block's number of atoms.  ``blocks``, a tuple of frozensets, is built
    from them on first use.  Equality and hashing read ``blocks`` only.

    ``from_labels`` is the one constructor core; ``__init__`` flattens its
    block list into atom ids and labels and hands them to it.
    """

    def __init__(self, blocks):
        blocks = [frozenset(b) for b in blocks]
        if not all(blocks):
            raise StructureError("partition blocks must be non-empty")
        atom_set = frozenset().union(*blocks)
        sizes = np.fromiter(map(len, blocks), dtype=np.int64, count=len(blocks))
        if int(sizes.sum()) != len(atom_set):
            raise StructureError("partition blocks overlap")
        try:
            ids = np.fromiter(sorted(atom_set), dtype=np.int64, count=len(atom_set))
            members = np.fromiter(itertools.chain.from_iterable(blocks),
                                  dtype=np.int64, count=len(atom_set))
        except OverflowError:
            raise StructureError("partition atom ids must fit in int64") from None
        labels = np.empty_like(ids)
        labels[np.searchsorted(ids, members)] = np.repeat(np.arange(len(blocks)), sizes)
        # the core builds a second instance; this one takes its fields
        self.__dict__.update(vars(SigmaPartition.from_labels(ids, labels)))

    @classmethod
    def from_labels(cls, ids, labels) -> "SigmaPartition":
        """The constructor core: the partition of the atoms ``ids`` (unique,
        ascending) into the blocks of their ``labels``, one integer each.

        Blocks are numbered by their least atom, the first position each
        label takes: a stable sort of the labels finds those positions, and
        a second, of the block numbers, groups the atoms block by block.
        Raises StructureError unless the ids ascend strictly and fit in
        int64 and there is one integer label per id.
        """
        try:
            ids = np.array(ids, dtype=np.int64)  # a copy: it is made read-only
        except OverflowError:
            raise StructureError("partition atom ids must fit in int64") from None
        labels = np.asarray(labels)
        if ids.ndim != 1 or labels.shape != ids.shape or labels.dtype.kind not in "iu":
            raise StructureError(f"need one integer label per atom of {ids.shape[0]}")
        if (ids[1:] <= ids[:-1]).any():
            raise StructureError("atom ids must be unique and ascending")
        n = ids.shape[0]
        by_label = np.argsort(labels, kind="stable")
        grouped = labels[by_label]
        fresh = np.ones(n, dtype=bool)
        fresh[1:] = grouped[1:] != grouped[:-1]
        firsts = by_label[fresh]  # each label's least position, labels ascending
        lead = np.zeros(n, dtype=bool)
        lead[firsts] = True
        block = np.cumsum(lead) - 1  # at a lead position, the index of its block
        canon = np.empty(n, dtype=np.int64)
        canon[by_label] = block[firsts][np.cumsum(fresh) - 1]
        order = np.argsort(canon, kind="stable")
        sizes = np.bincount(canon, minlength=firsts.shape[0])
        part = object.__new__(cls)
        for array in (ids, canon, order, sizes):
            array.setflags(write=False)
        object.__setattr__(part, "_ids", ids)
        object.__setattr__(part, "labels", canon)
        object.__setattr__(part, "layout", (order, sizes))
        object.__setattr__(part, "_atom_set", frozenset(ids.tolist()))
        return part

    @functools.cached_property
    def blocks(self) -> tuple[frozenset[int], ...]:
        order, sizes = self.layout
        ends = np.cumsum(sizes).tolist()
        members = self._ids[order].tolist()
        return tuple(map(frozenset, map(members.__getitem__, map(slice, [0, *ends[:-1]], ends))))

    def __eq__(self, other):
        if not isinstance(other, SigmaPartition):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"SigmaPartition(blocks={self.blocks!r})"

    @classmethod
    def trivial(cls, space: DiscreteSpace) -> "SigmaPartition":
        return cls.from_labels(space.ids, np.zeros(len(space.ids), dtype=np.int64))

    @classmethod
    def singletons(cls, space: DiscreteSpace) -> "SigmaPartition":
        return cls.from_labels(space.ids, np.arange(len(space.ids)))

    @property
    def atom_set(self) -> frozenset[int]:
        return self._atom_set

    def block_index_of(self, atom: int) -> int:
        for i, b in enumerate(self.blocks):
            if atom in b:
                return i
        raise StructureError(f"atom {atom} not covered by partition")

    def to_json(self) -> list[list[int]]:
        return [sorted(b) for b in self.blocks]


def _check_universe(space: DiscreteSpace, *parts: SigmaPartition) -> None:
    for p in parts:
        if p.atom_set != space.atom_set:
            raise StructureError(
                "partition atom universe does not match the space"
            )


def block_starts(sizes: np.ndarray) -> np.ndarray:
    """Where each block begins when blocks of these sizes lie end to end."""
    return np.cumsum(sizes) - sizes


def block_numerators(space: DiscreteSpace, alg: SigmaPartition) -> np.ndarray:
    """Each block's mass times ``space.den``, blocks in canonical order: an
    exact integer sum, int64 or Python ints as ``space._nums``."""
    _check_universe(space, alg)
    order, sizes = alg.layout
    return np.add.reduceat(space._nums[order], block_starts(sizes))


def sequential_sums(rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per block, its rows added one at a time from +0.0, in the given order.

    ``rows`` holds the blocks' rows one block after another, ``sizes[j]``
    of them for block j (each at least one).  The blocks of each size s
    form one zero-led array of shape (blocks, s + 1, d), summed by one
    ``cumsum`` along its rows and read at the last one.  Accumulation is
    strictly sequential, so each sum equals the loop ``acc += row`` from
    zeros bit for bit; a pairwise reduction (``np.sum``,
    ``np.add.reduceat``) would reassociate and change the bits.  The
    arrays hold one row per row of ``rows`` plus one per block.
    """
    d = rows.shape[1]
    out = np.empty((sizes.shape[0], d))
    starts = block_starts(sizes)
    # one scan of sizes per distinct size: n rows have fewer than sqrt(2n)
    for s in sorted(set(sizes.tolist())):
        group = np.flatnonzero(sizes == s)
        pad = np.zeros((group.shape[0], s + 1, d))
        pad[:, 1:] = rows[(starts[group, None] + np.arange(s)).ravel()].reshape(-1, s, d)
        np.cumsum(pad, axis=1, out=pad)
        out[group] = pad[:, -1]
    return out


def block_averages(space: DiscreteSpace, alg: SigmaPartition, values) -> list[np.ndarray]:
    """E(f|alg): per block of ``alg`` in canonical order, the mass-weighted
    average of the rows of ``values``, which are aligned with ``space.ids``.

    Atom t of block B weighs n_t / N_B, its integer numerator over the
    block's, correctly rounded: a float64 quotient of exact int64 values
    below 2**53, Python's int division past that, so the weight is
    ``float(mass(t) / mass(B))`` bit for bit.  A block's sum starts from
    zeros and adds weight * row atom by atom in ascending id order
    (:func:`sequential_sums`); with the trivial partition it is the
    integral of f.
    """
    rows = np.asarray(values, dtype=float)
    if rows.ndim != 2 or rows.shape[0] != len(space.ids):
        raise StructureError(
            f"need one row per atom of {len(space.ids)}, got shape {rows.shape}"
        )
    totals = block_numerators(space, alg)
    order, sizes = alg.layout
    weights = (space._nums[order] / np.repeat(totals, sizes)).astype(float, copy=False)
    return list(sequential_sums(weights[:, None] * rows[order], sizes))


def coarse_labels(fine: SigmaPartition, coarse: SigmaPartition) -> np.ndarray | None:
    """The coarse block of each fine block, or None unless fine refines coarse."""
    if fine.atom_set != coarse.atom_set:
        raise StructureError("partitions live on different atom universes")
    lead = np.empty(len(fine.blocks), dtype=np.int64)
    lead[fine.labels] = coarse.labels
    return lead if (lead[fine.labels] == coarse.labels).all() else None


def inner_blocks(fine: SigmaPartition, coarse: SigmaPartition) -> list[np.ndarray] | None:
    """Per coarse block, the indices of the fine blocks inside it in
    canonical order, or None unless fine refines coarse.

    Each coarse block's atoms, ascending, meet its fine blocks' least atoms
    in canonical fine order, so one pass over the coarse layout lists them.
    """
    lead = coarse_labels(fine, coarse)
    if lead is None:
        return None
    f_order, f_sizes = fine.layout
    least = np.zeros(fine.labels.shape[0], dtype=bool)
    least[f_order[block_starts(f_sizes)]] = True
    c_order = coarse.layout[0]
    firsts = c_order[least[c_order]]
    counts = np.bincount(lead, minlength=len(coarse.blocks))
    return np.split(fine.labels[firsts], block_starts(counts)[1:])


def is_refinement(fine: SigmaPartition, coarse: SigmaPartition) -> bool:
    """True iff every fine block is contained in some coarse block."""
    return coarse_labels(fine, coarse) is not None


def is_nowhere_equivalent(t_alg: SigmaPartition, f_alg: SigmaPartition) -> bool:
    """True iff the fine algebra strictly refines the coarse one on every block.

    Discrete criterion: every coarse block (all carry positive mass) splits
    into at least two fine blocks.
    """
    lead = coarse_labels(t_alg, f_alg)
    if lead is None:
        raise PreconditionError("t_alg must refine f_alg")
    return bool((np.bincount(lead, minlength=len(f_alg.blocks)) >= 2).all())


@dataclass(frozen=True)
class DyadicModel:
    """Desk model of the split interval space.

    The interval piece (gamma, 1] becomes 2**level cells of equal mass,
    each split into ``refinement`` equal atoms; a positive gamma adds one
    leading atom of mass gamma for the atomic part.  ``cell_partition``
    (cells as blocks, plus the atomic atom as its own block) plays the role
    of the characteristic algebra generated by level-``level`` step
    functions.
    """

    gamma: Fraction
    level: int
    refinement: int = 1
    space: DiscreteSpace = field(init=False, compare=False)

    def __post_init__(self):
        gamma = _as_fraction(self.gamma)
        object.__setattr__(self, "gamma", gamma)
        if not 0 <= gamma < 1:
            raise PreconditionError(f"gamma must lie in [0,1), got {gamma}")
        if self.level < 0 or self.refinement < 1:
            raise PreconditionError("level must be >= 0 and refinement >= 1")
        ncells = 1 << self.level
        masses: list[Fraction] = []
        if gamma > 0:
            masses.append(gamma)
        atom_mass = (1 - gamma) / (ncells * self.refinement)
        masses.extend([atom_mass] * (ncells * self.refinement))
        object.__setattr__(
            self,
            "space",
            DiscreteSpace(tuple(range(len(masses))), tuple(masses)),
        )

    @property
    def ncells(self) -> int:
        return 1 << self.level

    @property
    def atomic_atom(self) -> int | None:
        return 0 if self.gamma > 0 else None

    @property
    def interval_atoms(self) -> tuple[int, ...]:
        start = 1 if self.gamma > 0 else 0
        return tuple(range(start, start + self.ncells * self.refinement))

    def cell_of(self, atom: int) -> int | None:
        """Cell index of an interval atom; None for the atomic part."""
        if self.gamma > 0 and atom == 0:
            return None
        start = 1 if self.gamma > 0 else 0
        idx = atom - start
        if not 0 <= idx < self.ncells * self.refinement:
            raise StructureError(f"atom {atom} not in model")
        return idx // self.refinement

    def cell_atoms(self, cell: int) -> tuple[int, ...]:
        start = (1 if self.gamma > 0 else 0) + cell * self.refinement
        return tuple(range(start, start + self.refinement))

    @property
    def cell_partition(self) -> SigmaPartition:
        cells = np.repeat(np.arange(self.ncells), self.refinement)
        if self.gamma > 0:
            cells = np.concatenate(([self.ncells], cells))  # the atomic atom alone
        return SigmaPartition.from_labels(self.space.ids, cells)

    def phi(self, atom: int) -> Fraction:
        """Evaluation point of an atom: its subinterval midpoint in (gamma, 1]."""
        if self.gamma > 0 and atom == 0:
            return self.gamma / 2
        start = 1 if self.gamma > 0 else 0
        idx = atom - start
        n_sub = self.ncells * self.refinement
        if not 0 <= idx < n_sub:
            raise StructureError(f"atom {atom} not in model")
        return self.gamma + (1 - self.gamma) * Fraction(2 * idx + 1, 2 * n_sub)

    def rescaled(self, atom: int) -> Fraction:
        """(phi(atom) - gamma)/(1 - gamma): the [0,1] argument of the Walsh maps."""
        return (self.phi(atom) - self.gamma) / (1 - self.gamma)

    def walsh_block(self, n: int) -> frozenset[int]:
        """Interval atoms where W_n of the rescaled coordinate is +1."""
        cells = walsh_set(n, self.level)
        out: set[int] = set()
        for c in cells:
            out.update(self.cell_atoms(c))
        return frozenset(out)

