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

import functools
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


def _merge_rows(rows: np.ndarray, owner: np.ndarray):
    """Each owner's distinct rows, bit for bit, in lexicographic order.

    ``rows`` is a finite C-contiguous (n, d) float array and ``owner`` a
    label per row.  Returns ``(order, starts, rank)``: ``order`` is a
    stable sort that puts the bit-equal rows of each owner together, each
    run led by the first of them given, and ``starts`` where its runs
    begin.  The runs ordered by owner, then by value, ties (-0.0 beside
    0.0) in the order given, are the runs taken in ``rank``.

    Finite rows are equal bit for bit iff each coordinate has the same
    value and sign, so the first sort keys both; the second ranks the
    runs by value alone, ties by their first row.
    """
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


def _row_keys(stack: np.ndarray) -> list[bytes]:
    """The bytes of each row of a C-contiguous (n, d) float stack.

    Two rows share a key iff they are equal bit for bit, so -0.0 and 0.0
    differ and a NaN matches its own bits.
    """
    step = stack.shape[1] * stack.itemsize
    if not step:
        return [b""] * stack.shape[0]
    return stack.view(np.dtype((np.void, step))).ravel().tolist()


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
        # each atom's set is one (m, d) array, and the sets are stacked once
        given = [_stack_vectors(vs, "correspondence values") for vs in given]
        try:
            raw = np.concatenate(given)
        except ValueError:
            shapes = sorted({vs.shape[1:] for vs in given})
            raise StructureError(f"correspondence values of mixed shapes {shapes}") from None
        if not np.isfinite(raw).all():
            raise StructureError("correspondence values must be finite")
        # atoms given the same rows in the same order share one set, keyed
        # by their row count and bytes
        counts = np.fromiter(map(len, given), dtype=np.int64, count=len(given))
        starts = block_starts(counts)
        blob, step = raw.tobytes(), raw.shape[1] * raw.itemsize
        canon: dict[tuple, int] = {}
        which, firsts = [], []  # each atom's set; each set's first atom
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
        order, starts, rank = _merge_rows(rows, owner)
        kept = order[starts[rank]]
        stack = rows[kept]
        stack.setflags(write=False)
        set_sizes = np.bincount(owner[kept].astype(np.int64), minlength=firsts.shape[0])
        bounds = block_starts(set_sizes)
        cuts = [stack[lo:lo + m] for lo, m in zip(bounds.tolist(), set_sizes.tolist())]
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", tuple(cuts[n] for n in which.tolist()))
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_start", bounds[which])
        object.__setattr__(self, "_size", set_sizes[which])

    @property
    def dim(self) -> int:
        return self.values[0].shape[1]

    @functools.cached_property
    def _keys(self) -> tuple[tuple[bytes, ...], ...]:
        """Per atom, the bytes of each row of its value set (``_row_keys``)."""
        keys = _row_keys(self._stack)
        return tuple(tuple(keys[lo:lo + m])
                     for lo, m in zip(self._start.tolist(), self._size.tolist()))

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
    read-only (n, d) copy of the rows the caller gave, aligned with
    ``corr.space.ids``; each equals in value (``np.array_equal``: -0.0
    equals 0.0, NaN nothing) the row ``index[i]`` of its atom's value set,
    the first such row.  Block constancy is decided bit for bit.
    """

    corr: Correspondence
    alg: SigmaPartition
    choice: np.ndarray  # (n, d), aligned with corr.space.ids
    index: tuple[int, ...]

    def __init__(self, corr: Correspondence, alg: SigmaPartition, choice_map):
        if alg.atom_set != corr.space.atom_set:
            raise StructureError("selection algebra does not cover the space")
        ids = corr.space.ids
        for a in ids:
            if a not in choice_map:
                raise StructureError(f"no choice at atom {a}")
        choice = _stack_vectors([choice_map[a] for a in ids], "choices")
        index = _value_index(corr, choice)
        split = _first_split_block(choice, alg)
        if split is not None:
            raise StructureError(f"choice not constant on block {sorted(alg.blocks[split])}")
        choice.setflags(write=False)
        object.__setattr__(self, "corr", corr)
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "choice", choice)
        object.__setattr__(self, "index", tuple(index.tolist()))

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
    """
    if alg.atom_set != corr.space.atom_set:
        raise StructureError("algebra does not cover the correspondence's space")
    keys, position = corr._keys, corr.space.position
    out = []
    for b in alg.blocks:
        p0 = position(min(b))
        shared = set(keys[p0]).intersection(*(keys[position(a)] for a in b))
        vals = corr.values[p0]
        if len(shared) < len(vals):
            vals = vals[[j for j, k in enumerate(keys[p0]) if k in shared]]
            vals.setflags(write=False)
        out.append(vals)
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

    # each cell's value set {0, f_1(cell), ..., f_k(cell)} as one array
    cell_sets = np.stack([np.zeros((model.ncells, d))] + [f.values for f in f_list], axis=1)
    vmap = {}
    if model.atomic_atom is not None:
        vmap[model.atomic_atom] = cell_sets[0, :1]
    for a in model.interval_atoms:
        vmap[a] = cell_sets[model.cell_of(a)]
    corr = Correspondence(model.space, vmap)
    return CounterexampleBundle(
        k=k, gamma=gamma, N=N, L=L, refinement=refinement, d=d,
        model=model, f_list=tuple(f_list), e_list=e_list,
        corr=corr, f_alg=model.cell_partition,
    )
