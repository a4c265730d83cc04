"""Finite-valued correspondences, measurable selections, and the explicit
step-function constructions behind the necessity arguments.

The headline builder assembles, at truncation level N over a level-L dyadic
model, the family of maps

    f_j = sum_{n=0}^{N} 2**-n * W_n((l - gamma)/(1 - gamma)) * x_{k n + j - 1}

(zero on [0, gamma], basis vectors unit so no normalizing denominators),
their exact integrals e_j = (1 - gamma) x_{j-1}, and the correspondence
whose value at an interval atom is {0, f_1(cell), ..., f_k(cell)}.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, StructureError
from .spaces import DiscreteSpace, DyadicModel, SigmaPartition, block_starts
from .vectors import basis_vector, zero_vector
from .walsh import walsh_integral, walsh_sign_on_cell


def _stack_vectors(vectors, what: str) -> np.ndarray:
    """One float (n, d) array of the given vectors, in the given order.

    Raises StructureError unless they are 1-D vectors of one length.  A
    float array is returned as it is; anything else becomes a new array.
    """
    try:
        stack = np.array(vectors, dtype=float, copy=None)
    except ValueError:
        shapes = {np.shape(v) for v in vectors}
        if len(shapes) > 1:
            raise StructureError(f"{what} of mixed shapes {sorted(shapes)}") from None
        raise
    if stack.ndim != 2:
        raise StructureError(f"{what} must be 1-D vectors, got shape {stack.shape[1:]}")
    return stack


def _spans(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices starts[i], ..., starts[i] + sizes[i] - 1 of each span,
    the spans end to end."""
    return np.arange(int(sizes.sum())) + np.repeat(starts - block_starts(sizes), sizes)


def _merge_rows(rows: np.ndarray, owner: np.ndarray):
    """Each owner's distinct rows, bit for bit, in lexicographic order.

    ``rows`` is a finite (n, d) float array and ``owner`` a label per
    row.  Returns ``(order, starts, rank)``: ``order`` is a stable sort
    that puts the bit-equal rows of each owner together, each run led by
    the first of them given, and ``starts`` where its runs begin.  The runs ordered by owner, then by value, ties (-0.0 beside
    0.0) in the order given, are the runs taken in ``rank``.

    Finite rows are equal bit for bit iff they are equal in value and
    their zeros carry the same signs, so one lexsort over (owner, value
    columns, packed sign bits) brings them together.  The runs of one
    owner equal in value then lie side by side, ordered by their signs; a
    two-key lexsort ranks them by their first row instead.
    """
    # sign bits packed 64 columns to an int64 key: such keys sort with the
    # int64 kernel the ranking below runs anyway, where byte keys would page
    # in a sort of their own
    n, d = rows.shape
    packed = np.zeros((n, -(-d // 64) * 8), dtype=np.uint8)
    packed[:, :-(-d // 8)] = np.packbits(np.signbit(rows), axis=1, bitorder="little")
    signs = packed.view(np.int64).T
    order = np.lexsort((*signs, *rows.T[::-1], owner))
    srt, lab, signs = rows[order], owner[order], signs[:, order]
    tie = np.ones(order.shape[0], dtype=bool)  # where a new owner or value begins
    tie[1:] = lab[1:] != lab[:-1]
    tie[1:] |= (srt[1:] != srt[:-1]).any(axis=1)
    fresh = tie.copy()
    fresh[1:] |= (signs[:, 1:] != signs[:, :-1]).any(axis=0)
    starts = np.flatnonzero(fresh)
    lead = order[starts]
    return order, starts, np.lexsort((lead, np.cumsum(tie)[starts]))


@dataclass(frozen=True)
class StepFunction:
    """Step map on [0,1]: zero on [0, gamma], cell values on (gamma, 1].

    ``values`` has one row per level-``level`` cell of (gamma, 1]; evaluation
    at an arbitrary point snaps to the containing cell.
    """

    gamma: Fraction
    level: int
    values: np.ndarray  # (2**level, d)

    def __post_init__(self):
        gamma = Fraction(self.gamma)
        object.__setattr__(self, "gamma", gamma)
        vals = np.array(self.values, dtype=float)  # a copy: the caller's stays writeable
        if vals.ndim != 2 or vals.shape[0] != (1 << self.level):
            raise StructureError(
                f"need (2**{self.level}, d) cell values, got shape {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def eval_at(self, l) -> np.ndarray:
        lf = Fraction(l)
        if not 0 <= lf <= 1:
            raise PreconditionError(f"argument {l} outside [0,1]")
        if lf <= self.gamma:
            return zero_vector(self.dim)
        u = (lf - self.gamma) / (1 - self.gamma)
        cell = min(int(u * (1 << self.level)), (1 << self.level) - 1)
        return self.values[cell].copy()

    def integral(self) -> np.ndarray:
        """Integral over [0,1]: cell average scaled by the interval mass."""
        w = float(Fraction(1 - self.gamma, 1 << self.level))
        total = np.zeros(self.dim)
        for row in self.values:
            total += w * row
        return total


@dataclass(frozen=True, init=False)
class Correspondence:
    """Non-empty finite value sets over the atoms of a finite space.

    ``values[i]`` is the value set at ``space.ids[i]``: a read-only (m, d)
    slice of one stack, its rows distinct bit for bit (the first of equal
    rows is kept, so -0.0 and 0.0 are two values) and in lexicographic
    order, ties kept in input order.  Atoms given the same rows in the same
    order share one slice.  ``_start`` and ``_size`` locate each atom's
    slice in ``_stack``.

    ``from_stack`` is the one constructor core; ``__init__`` flattens its
    mapping into every atom's rows end to end and hands them to it.
    """

    space: DiscreteSpace
    values: tuple[np.ndarray, ...]  # aligned with space.ids
    _stack: np.ndarray = field(repr=False, compare=False)
    _start: np.ndarray = field(repr=False, compare=False)
    _size: np.ndarray = field(repr=False, compare=False)

    def __init__(self, space: DiscreteSpace, value_map):
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
        counts = np.fromiter(map(len, given), dtype=np.int64, count=len(given))
        rows = _stack_vectors([v for vs in given for v in vs], "correspondence values")
        # the core builds a second instance; this one takes its fields
        self.__dict__.update(vars(Correspondence.from_stack(space, rows, counts)))

    @classmethod
    def from_stack(cls, space: DiscreteSpace, rows: np.ndarray, counts) -> "Correspondence":
        """The constructor core: ``rows`` is a float (n, d) array holding
        every atom's value rows end to end, ``counts[i]`` of them for atom
        ``space.ids[i]``.

        Atoms given the same rows in the same order share one set: for each
        distinct count, the atoms' rows side by side are merged as one row
        per atom (``_merge_rows``).  Each set is then made distinct and
        ordered by one merge of all the sets' rows.  Raises StructureError
        on an empty set, counts that do not cover the rows, or a value that
        is not finite.
        """
        ids = space.ids
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (len(ids),) or rows.ndim != 2 \
                or int(counts.sum()) != rows.shape[0]:
            raise StructureError(
                f"need every atom's rows end to end, got {rows.shape[0]} rows and "
                f"{counts.shape[0]} counts for {len(ids)} atoms")
        empty = np.flatnonzero(counts < 1)
        if empty.shape[0]:
            raise StructureError(f"empty value set at atom {ids[int(empty[0])]}")
        if not np.isfinite(rows).all():
            raise StructureError("correspondence values must be finite")
        rows = np.ascontiguousarray(rows, dtype=float)
        starts = block_starts(counts)
        first = np.empty(len(ids), dtype=np.int64)  # each atom's first atom of equal rows
        for c in sorted(set(counts.tolist())):
            atoms = np.flatnonzero(counts == c)
            width = c * rows.shape[1]
            wide = rows[_spans(starts[atoms], counts[atoms])].reshape(atoms.shape[0], width)
            order, runs, _ = _merge_rows(wide, np.zeros(atoms.shape[0]))
            lengths = np.diff(runs, append=order.shape[0])
            first[atoms[order]] = np.repeat(atoms[order[runs]], lengths)
        leads = first == np.arange(len(ids))
        firsts, which = np.flatnonzero(leads), np.cumsum(leads)[first] - 1
        sizes = counts[firsts]
        rows = rows[_spans(starts[firsts], sizes)]
        owner = np.repeat(np.arange(float(firsts.shape[0])), sizes)
        order, runs, rank = _merge_rows(rows, owner)
        kept = order[runs[rank]]
        stack = rows[kept]
        stack.setflags(write=False)
        set_sizes = np.bincount(owner[kept].astype(np.int64), minlength=firsts.shape[0])
        bounds = block_starts(set_sizes)
        cuts = [stack[lo:lo + m] for lo, m in zip(bounds.tolist(), set_sizes.tolist())]
        corr = object.__new__(cls)
        values = tuple(map(cuts.__getitem__, which.tolist()))
        for name, value in (("space", space), ("values", values), ("_stack", stack),
                            ("_start", bounds[which]), ("_size", set_sizes[which])):
            object.__setattr__(corr, name, value)
        return corr

    @property
    def dim(self) -> int:
        return self.values[0].shape[1]

    def value_set(self, atom: int) -> np.ndarray:
        return self.values[self.space.position(atom)]

    def to_json(self) -> dict:
        return {str(a): vs.tolist() for a, vs in zip(self.space.ids, self.values)}


def _value_index(corr: Correspondence, choice: np.ndarray) -> np.ndarray:
    """Per atom, the first row of its value set equal in value to its
    choice row (-0.0 equals 0.0, NaN nothing); raises for an atom with none.

    One comparison of every (atom, value) pair of the correspondence.
    """
    sizes = corr._size
    if choice.shape[1] != corr.dim:
        raise StructureError(f"choice at atom {corr.space.ids[0]} is not a correspondence value")
    lead = block_starts(sizes)
    within = np.arange(int(sizes.sum())) - np.repeat(lead, sizes)
    hit = (corr._stack[np.repeat(corr._start, sizes) + within]
           == np.repeat(choice, sizes, axis=0)).all(axis=1)
    index = np.minimum.reduceat(np.where(hit, within, sizes.max()), lead)
    missing = np.flatnonzero(index >= sizes)
    if missing.shape[0]:
        a = corr.space.ids[int(missing[0])]
        raise StructureError(f"choice at atom {a} is not a correspondence value")
    return index


def _first_split_block(rows: np.ndarray, alg: SigmaPartition) -> int | None:
    """The first block of ``alg`` whose rows (aligned with its ascending
    atoms) are not all equal bit for bit, or None."""
    order, sizes = alg.layout
    bits = rows.view(np.int64)
    lead = order[block_starts(sizes)]
    split = (bits != bits[lead[alg.labels]]).any(axis=1)
    return int(alg.labels[split].min()) if split.any() else None


@dataclass(frozen=True, init=False)
class Selection:
    """A measurable choice: one value per atom, constant on algebra blocks.

    Construction validates membership in the correspondence and block
    constancy, so invalid selections cannot exist.  ``choice`` is a
    read-only (n, d) array of the chosen rows, aligned with
    ``corr.space.ids``; each equals in value (``np.array_equal``: -0.0
    equals 0.0, NaN nothing) the row ``index[i]`` of its atom's value set,
    the first such row.  Block constancy is decided bit for bit.

    ``from_rows`` is the one constructor core; ``__init__`` stacks its
    mapping's rows into a new array and hands it over.
    """

    corr: Correspondence
    alg: SigmaPartition
    choice: np.ndarray  # (n, d), aligned with corr.space.ids
    index: tuple[int, ...]

    def __init__(self, corr: Correspondence, alg: SigmaPartition, choice_map):
        ids = corr.space.ids
        for a in ids:
            if a not in choice_map:
                raise StructureError(f"no choice at atom {a}")
        choice = _stack_vectors([choice_map[a] for a in ids], "choices")
        # the core builds a second instance; this one takes its fields
        self.__dict__.update(vars(Selection.from_rows(corr, alg, choice)))

    @classmethod
    def from_rows(cls, corr: Correspondence, alg: SigmaPartition,
                  choice: np.ndarray) -> "Selection":
        """The constructor core: ``choice`` is a float (n, d) array, one
        row per atom of ``corr.space.ids``, which the selection keeps as
        its own and makes read-only.

        Raises StructureError unless ``alg`` covers the space, each row is
        a value of its atom's set and the rows are constant on its blocks.
        """
        if alg.atom_set != corr.space.atom_set:
            raise StructureError("selection algebra does not cover the space")
        if choice.ndim != 2 or choice.shape[0] != len(corr.space.ids):
            raise StructureError(
                f"need one choice row per atom of {len(corr.space.ids)}, got shape {choice.shape}")
        choice = np.ascontiguousarray(choice, dtype=float)
        index = _value_index(corr, choice)
        split = _first_split_block(choice, alg)
        if split is not None:
            raise StructureError(f"choice not constant on block {sorted(alg.blocks[split])}")
        choice.setflags(write=False)
        sel = object.__new__(cls)
        for name, value in (("corr", corr), ("alg", alg), ("choice", choice),
                            ("index", tuple(index.tolist()))):
            object.__setattr__(sel, name, value)
        return sel

    def at(self, atom: int) -> np.ndarray:
        return self.choice[self.corr.space.position(atom)]

    def is_measurable_against(self, alg: SigmaPartition) -> bool:
        if alg.atom_set != self.corr.space.atom_set:
            raise StructureError("algebra does not cover the selection's space")
        return _first_split_block(self.choice, alg) is None


def block_choice_sets(corr: Correspondence, alg: SigmaPartition) -> list[np.ndarray]:
    """Per-block admissible values: intersection of value sets over the block.

    Each is a read-only (m, d) array, rows in the value sets' order and
    compared bit for bit; m is 0 where the sets share no value.  For an
    ``alg``-measurable correspondence it is the common value set.

    A block's lead is its least atom.  The set rows of every atom in
    blocks of more than one atom are merged per block (``_merge_rows``); a
    set holds no two bit-equal rows, so a lead row is shared by all the
    block's sets iff its run counts one row per atom.
    """
    if alg.atom_set != corr.space.atom_set:
        raise StructureError("algebra does not cover the correspondence's space")
    order, sizes = alg.layout
    leads = order[block_starts(sizes)]
    out = list(map(corr.values.__getitem__, leads.tolist()))
    atoms = order[sizes[alg.labels[order]] > 1]  # in blocks of many, block by block
    if not atoms.shape[0]:
        return out
    block, counts = alg.labels[atoms], corr._size[atoms]
    rows = corr._stack[_spans(corr._start[atoms], counts)]
    owner = np.repeat(block, counts)
    merged, runs, _ = _merge_rows(rows, owner)
    lengths = np.diff(runs, append=merged.shape[0])
    shared = np.empty(rows.shape[0], dtype=bool)
    shared[merged] = np.repeat(lengths == sizes[owner[merged[runs]]], lengths)
    lead = np.ones(atoms.shape[0], dtype=bool)  # each block's first atom is its least
    lead[1:] = block[1:] != block[:-1]
    keep = np.repeat(lead, counts) & shared
    kept = np.bincount(owner[keep], minlength=sizes.shape[0])
    cut = np.flatnonzero((kept < corr._size[leads]) & (sizes > 1))
    if cut.shape[0]:
        rows = rows[keep]
        rows.setflags(write=False)
        bounds = block_starts(kept)
        for b in cut.tolist():
            out[b] = rows[bounds[b]:bounds[b] + kept[b]]
    return out


@dataclass(frozen=True)
class CounterexampleBundle:
    """The truncated series construction over a dyadic model.

    f_list are the k step maps, e_list their exact integrals, corr the
    correspondence t -> {0, f_1(phi(t)), ..., f_k(phi(t))} over the model's
    atoms, and f_alg the cell algebra it is measurable against.
    """

    k: int
    gamma: Fraction
    N: int
    L: int
    refinement: int
    d: int
    model: DyadicModel = field(compare=False)
    f_list: tuple[StepFunction, ...] = field(compare=False)
    e_list: np.ndarray = field(compare=False)  # (k, d)
    corr: Correspondence = field(compare=False)
    f_alg: SigmaPartition = field(compare=False)

    def e_mean(self) -> np.ndarray:
        """(1/(k+1)) sum_j e_j: the point whose attainability is at stake."""
        return self.e_list.sum(axis=0) / (self.k + 1)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "gamma": f"{self.gamma.numerator}/{self.gamma.denominator}",
            "N": self.N,
            "L": self.L,
            "refinement": self.refinement,
            "d": self.d,
            "e_list": [[float(x) for x in e] for e in self.e_list],
        }


def build_psi(
    k: int, gamma, N: int, L: int, d: int | None = None
) -> list[StepFunction]:
    """The k truncated series maps as level-L step functions on (gamma, 1]."""
    gamma = Fraction(gamma)
    if k < 1:
        raise PreconditionError(f"need k >= 1, got {k}")
    if N < 0:
        raise PreconditionError(f"need truncation level N >= 0, got {N}")
    if L < N.bit_length():
        raise PreconditionError(
            f"dyadic level {L} cannot resolve Walsh indices up to {N}"
        )
    need = k * (N + 1)
    if d is None:
        d = need
    if d < need:
        raise PreconditionError(
            f"truncation dimension {d} < k(N+1) = {need} required by the series"
        )
    ncells = 1 << L
    out = []
    for j in range(1, k + 1):
        vals = np.zeros((ncells, d))
        for c in range(ncells):
            for n in range(N + 1):
                vals[c] += (0.5 ** n) * walsh_sign_on_cell(n, c, L) * \
                    basis_vector(k * n + j - 1, d)
        out.append(StepFunction(gamma, L, vals))
    return out


def build_counterexample(
    k: int, gamma, N: int, L: int, refinement: int = 1, d: int | None = None
) -> CounterexampleBundle:
    """Assemble the bundle: step maps, exact integrals, correspondence, algebra."""
    gamma = Fraction(gamma)
    f_list = build_psi(k, gamma, N, L, d)
    d = f_list[0].dim
    model = DyadicModel(gamma, L, refinement)

    # exact dyadic integration: coefficient of x_{kn+j-1} in e_j is
    # 2**-n * (1-gamma) * integral of W_n, which vanishes for n >= 1
    e_list = np.zeros((k, d))
    for j in range(1, k + 1):
        for n in range(N + 1):
            w = Fraction(1, 2 ** n) * (1 - gamma) * \
                walsh_integral(n, Fraction(0), Fraction(1), L)
            e_list[j - 1] += float(w) * basis_vector(k * n + j - 1, d)

    # each cell's value set {0, f_1(cell), ..., f_k(cell)}, once per atom
    # of the cell, after the atomic atom's {0}
    cell_sets = np.stack([np.zeros((model.ncells, d))] + [f.values for f in f_list], axis=1)
    rows = np.repeat(cell_sets, refinement, axis=0).reshape(-1, d)
    counts = np.full(model.ncells * refinement, k + 1)
    if model.atomic_atom is not None:
        rows = np.concatenate((np.zeros((1, d)), rows))
        counts = np.concatenate(([1], counts))
    corr = Correspondence.from_stack(model.space, rows, counts)
    return CounterexampleBundle(
        k=k, gamma=gamma, N=N, L=L, refinement=refinement, d=d,
        model=model, f_list=tuple(f_list), e_list=e_list,
        corr=corr, f_alg=model.cell_partition,
    )
