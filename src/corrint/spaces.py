"""Finite probability spaces with exact rational masses.

Sigma-algebras are partitions of the atom set (on a finite space every
sigma-algebra is generated by one).  Masses are ``fractions.Fraction`` at
the API; inside, a space keeps one integer numerator per atom over one
common denominator, so a block's mass is an integer sum and independence
checks are exact identities rather than toleranced comparisons.
:func:`block_averages` is the one conditional average E(f|G) on a finite
space: every block average in the package goes through it.

Atomless spaces enter through :class:`DyadicModel`: the interval piece
(gamma, 1] is modeled by 2**level uniform cells, each optionally refined
into equal-mass sub-atoms, plus a single atom of mass gamma for the purely
atomic remainder.  The embedding of atoms onto dyadic subintervals is the
canonical order-preserving one, and the evaluation point of an atom is its
subinterval midpoint (atoms of the atomic part sit at gamma/2).
"""
from __future__ import annotations

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

    ``den`` and ``numerators`` are derived once: the least common
    denominator of the masses and, aligned with ``ids``, each mass times
    ``den``, an int.
    """

    ids: tuple[int, ...]
    masses: tuple[Fraction, ...]
    den: int = field(init=False, repr=False, compare=False)
    numerators: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _position: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.ids) != len(self.masses) or not self.ids:
            raise StructureError("space needs matching, non-empty ids and masses")
        if len(set(self.ids)) != len(self.ids) or list(self.ids) != sorted(self.ids):
            raise StructureError("atom ids must be unique and ascending")
        for m in self.masses:
            if m <= 0:
                raise StructureError(f"atom mass {m} is not strictly positive")
        den = math.lcm(*(m.denominator for m in self.masses))
        nums = tuple(m.numerator * (den // m.denominator) for m in self.masses)
        if sum(nums) != den:
            raise StructureError("atom masses must sum exactly to 1")
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "_position", {a: i for i, a in enumerate(self.ids)})

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

    def numerator(self, atoms) -> int:
        """Mass of the atom set times ``den``: a sum of ints."""
        nums = self.numerators
        return sum(nums[self.position(a)] for a in set(atoms))

    def mass(self, atoms) -> Fraction:
        return Fraction(self.numerator(atoms), self.den)

    @property
    def atom_set(self) -> frozenset[int]:
        return frozenset(self.ids)


def _canonical_blocks(blocks) -> tuple[frozenset[int], ...]:
    bs = [frozenset(b) for b in blocks]
    if any(not b for b in bs):
        raise StructureError("partition blocks must be non-empty")
    return tuple(sorted(bs, key=min))


@dataclass(frozen=True, init=False)
class SigmaPartition:
    """A sigma-algebra on a finite space, as the partition generating it.

    Blocks are stored in canonical order (sorted by smallest member).  The
    union of the blocks is kept too, built once; equality and hashing read
    ``blocks`` only.
    """

    blocks: tuple[frozenset[int], ...]

    def __init__(self, blocks):
        object.__setattr__(self, "blocks", _canonical_blocks(blocks))
        seen: set[int] = set()
        for b in self.blocks:
            if seen & b:
                raise StructureError("partition blocks overlap")
            seen |= b
        object.__setattr__(self, "_atom_set", frozenset(seen))

    @classmethod
    def trivial(cls, space: DiscreteSpace) -> "SigmaPartition":
        return cls([space.atom_set])

    @classmethod
    def singletons(cls, space: DiscreteSpace) -> "SigmaPartition":
        return cls([{a} for a in space.ids])

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


def block_averages(space: DiscreteSpace, alg: SigmaPartition, values) -> list[np.ndarray]:
    """E(f|alg): per block of ``alg`` in canonical order, the mass-weighted
    average of the rows of ``values``, which are aligned with ``space.ids``.

    Atom t of block B weighs n_t / N_B, its integer numerator over the
    block's.  Python's int division is correctly rounded, so the weight is
    ``float(mass(t) / mass(B))`` bit for bit.  A block's sum starts from
    zeros and adds weight * row atom by atom in ascending id order; with
    the trivial partition it is the integral of f.
    """
    _check_universe(space, alg)
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


def is_refinement(fine: SigmaPartition, coarse: SigmaPartition) -> bool:
    """True iff every fine block is contained in some coarse block."""
    if fine.atom_set != coarse.atom_set:
        raise StructureError("partitions live on different atom universes")
    return all(any(fb <= cb for cb in coarse.blocks) for fb in fine.blocks)


def is_nowhere_equivalent(t_alg: SigmaPartition, f_alg: SigmaPartition) -> bool:
    """True iff the fine algebra strictly refines the coarse one on every block.

    Discrete criterion: every coarse block (all carry positive mass) splits
    into at least two fine blocks.
    """
    if not is_refinement(t_alg, f_alg):
        raise PreconditionError("t_alg must refine f_alg")
    fine_count = {id(b): 0 for b in f_alg.blocks}
    for fb in t_alg.blocks:
        for cb in f_alg.blocks:
            if fb <= cb:
                fine_count[id(cb)] += 1
                break
    return all(c >= 2 for c in fine_count.values())


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
        blocks = [set(self.cell_atoms(c)) for c in range(self.ncells)]
        if self.gamma > 0:
            blocks.append({0})
        return SigmaPartition(blocks)

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

