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
from .spaces import DiscreteSpace, DyadicModel, SigmaPartition
from .vectors import basis_vector, zero_vector
from .walsh import walsh_integral, walsh_sign_on_cell


def _stack_vectors(vectors: list, what: str) -> np.ndarray:
    """One new float (n, d) array of the given vectors, in the given order.

    Raises StructureError unless they are non-empty 1-D vectors of one length.
    The stack is a copy, so the caller's arrays are never touched.
    """
    try:
        stack = np.array(vectors, dtype=float)
    except ValueError:
        shapes = {np.shape(v) for v in vectors}
        if len(shapes) > 1:
            raise StructureError(f"{what} of mixed shapes {sorted(shapes)}") from None
        raise
    if stack.ndim != 2:
        raise StructureError(f"{what} must be 1-D vectors, got shape {stack.shape[1:]}")
    return stack


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
    order share one slice.
    """

    space: DiscreteSpace
    values: tuple[np.ndarray, ...]  # aligned with space.ids
    # per atom: the bytes of each row, and each row's value -> its index
    _keys: tuple[tuple[bytes, ...], ...] = field(repr=False, compare=False)
    _index: tuple[dict, ...] = field(repr=False, compare=False)

    def __init__(self, space: DiscreteSpace, value_map):
        given = []
        for a in space.ids:
            if a not in value_map:
                raise StructureError(f"no value set for atom {a}")
            vs = list(value_map[a])
            if not vs:
                raise StructureError(f"empty value set at atom {a}")
            given.append(vs)
        raw = _stack_vectors([v for vs in given for v in vs], "correspondence values")
        if not np.isfinite(raw).all():
            raise StructureError("correspondence values must be finite")
        keys, rows = _row_keys(raw), raw.tolist()
        # atoms given the same rows share one canonical set: its keys, its
        # lookup and its slice of the stack
        canon: dict[tuple, int] = {}  # an atom's given keys -> its set's number
        set_keys, lookups, bounds, order, which = [], [], [0], [], []
        start = 0
        for vs in given:
            stop = start + len(vs)
            given_keys = tuple(keys[start:stop])
            n = canon.get(given_keys)
            if n is None:
                first: dict[bytes, int] = {}
                for i in range(start, stop):
                    first.setdefault(keys[i], i)
                kept = sorted(first.values(), key=rows.__getitem__)
                lookup: dict[tuple, int] = {}
                for j, i in enumerate(kept):
                    lookup.setdefault(tuple(rows[i]), j)
                n = canon[given_keys] = len(set_keys)
                set_keys.append(tuple([keys[i] for i in kept]))
                lookups.append(lookup)
                order += kept
                bounds.append(len(order))
            which.append(n)
            start = stop
        stack = raw[order]
        stack.setflags(write=False)
        cuts = [stack[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", tuple(cuts[n] for n in which))
        object.__setattr__(self, "_keys", tuple(set_keys[n] for n in which))
        object.__setattr__(self, "_index", tuple(lookups[n] for n in which))

    @property
    def dim(self) -> int:
        return self.values[0].shape[1]

    def value_set(self, atom: int) -> np.ndarray:
        return self.values[self.space.position(atom)]

    def to_json(self) -> dict:
        return {str(a): vs.tolist() for a, vs in zip(self.space.ids, self.values)}


@dataclass(frozen=True, init=False)
class Selection:
    """A measurable choice: one value per atom, constant on algebra blocks.

    Construction validates membership in the correspondence and block
    constancy, so invalid selections cannot exist.  ``choice`` is a
    read-only (n, d) copy of the rows the caller gave, aligned with
    ``corr.space.ids``; each equals in value (``np.array_equal``: -0.0
    equals 0.0, NaN nothing) the row ``index[i]`` of its atom's value set.
    Block constancy is decided bit for bit.
    """

    corr: Correspondence
    alg: SigmaPartition
    choice: np.ndarray  # (n, d), aligned with corr.space.ids
    index: tuple[int, ...]
    _key_of: dict[int, bytes] = field(repr=False, compare=False)  # atom -> choice bytes

    def __init__(self, corr: Correspondence, alg: SigmaPartition, choice_map):
        if alg.atom_set != corr.space.atom_set:
            raise StructureError("selection algebra does not cover the space")
        ids = corr.space.ids
        for a in ids:
            if a not in choice_map:
                raise StructureError(f"no choice at atom {a}")
        choice = _stack_vectors([choice_map[a] for a in ids], "choices")
        index = []
        for a, row, lookup in zip(ids, choice.tolist(), corr._index):
            j = lookup.get(tuple(row))
            if j is None:
                raise StructureError(f"choice at atom {a} is not a correspondence value")
            index.append(j)
        choice.setflags(write=False)
        object.__setattr__(self, "corr", corr)
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "choice", choice)
        object.__setattr__(self, "index", tuple(index))
        object.__setattr__(self, "_key_of", dict(zip(ids, _row_keys(choice))))
        for b in alg.blocks:
            if not self._constant_on(b):
                raise StructureError(f"choice not constant on block {sorted(b)}")

    def _constant_on(self, block) -> bool:
        key_of = self._key_of
        return len(block) == 1 or len({key_of[a] for a in block}) == 1

    def at(self, atom: int) -> np.ndarray:
        return self.choice[self.corr.space.position(atom)]

    def is_measurable_against(self, alg: SigmaPartition) -> bool:
        return all(self._constant_on(b) for b in alg.blocks)


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

    zero = zero_vector(d)
    vmap = {}
    if model.atomic_atom is not None:
        vmap[model.atomic_atom] = [zero]
    for a in model.interval_atoms:
        c = model.cell_of(a)
        vmap[a] = [zero] + [f.values[c] for f in f_list]
    corr = Correspondence(model.space, vmap)
    return CounterexampleBundle(
        k=k, gamma=gamma, N=N, L=L, refinement=refinement, d=d,
        model=model, f_list=tuple(f_list), e_list=e_list,
        corr=corr, f_alg=model.cell_partition,
    )
