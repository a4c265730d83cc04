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

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    CapacityError,
    NoSelectionError,
    PreconditionError,
    StructureError,
)
from .spaces import DiscreteSpace, DyadicModel, SigmaPartition
from .vectors import basis_vector, zero_vector
from .walsh import walsh_integral, walsh_sign_on_cell


def _freeze(v: np.ndarray) -> np.ndarray:
    v = np.ascontiguousarray(v, dtype=float)
    v.setflags(write=False)
    return v


def _vec_key(v: np.ndarray) -> bytes:
    return np.ascontiguousarray(v, dtype=float).tobytes()


def _canonical_value_tuple(values) -> tuple[np.ndarray, ...]:
    uniq: dict[bytes, np.ndarray] = {}
    for v in values:
        arr = _freeze(np.asarray(v, dtype=float))
        if not np.all(np.isfinite(arr)):
            raise StructureError("correspondence values must be finite")
        uniq.setdefault(_vec_key(arr), arr)
    return tuple(sorted(uniq.values(), key=lambda a: tuple(a.tolist())))


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
        vals = np.ascontiguousarray(self.values, dtype=float)
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
    """Non-empty finite value sets over the atoms of a finite space."""

    space: DiscreteSpace
    values: tuple[tuple[np.ndarray, ...], ...]  # aligned with space.ids

    def __init__(self, space: DiscreteSpace, value_map):
        object.__setattr__(self, "space", space)
        vals = []
        for a in space.ids:
            if a not in value_map:
                raise StructureError(f"no value set for atom {a}")
            tup = _canonical_value_tuple(value_map[a])
            if not tup:
                raise StructureError(f"empty value set at atom {a}")
            vals.append(tup)
        dims = {v.shape[0] for tup in vals for v in tup}
        if len(dims) != 1:
            raise StructureError(f"mixed value dimensions {sorted(dims)}")
        object.__setattr__(self, "values", tuple(vals))

    @property
    def dim(self) -> int:
        return self.values[0][0].shape[0]

    def value_set(self, atom: int) -> tuple[np.ndarray, ...]:
        return self.values[self.space.position(atom)]

    def to_json(self) -> dict:
        return {
            str(a): [[float(x) for x in v] for v in tup]
            for a, tup in zip(self.space.ids, self.values)
        }


@dataclass(frozen=True, init=False)
class Selection:
    """A measurable choice: one value per atom, constant on algebra blocks.

    Construction validates membership in the correspondence and block
    constancy, so invalid selections cannot exist.
    """

    corr: Correspondence
    alg: SigmaPartition
    choice: tuple[np.ndarray, ...]  # aligned with corr.space.ids

    def __init__(self, corr: Correspondence, alg: SigmaPartition, choice_map):
        if alg.atom_set != corr.space.atom_set:
            raise StructureError("selection algebra does not cover the space")
        choices = []
        for a, vset in zip(corr.space.ids, corr.values):
            if a not in choice_map:
                raise StructureError(f"no choice at atom {a}")
            v = _freeze(np.asarray(choice_map[a], dtype=float))
            if not any(np.array_equal(v, w) for w in vset):
                raise StructureError(f"choice at atom {a} is not a correspondence value")
            choices.append(v)
        object.__setattr__(self, "corr", corr)
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "choice", tuple(choices))
        for b in alg.blocks:
            keys = {_vec_key(self.at(a)) for a in b}
            if len(keys) != 1:
                raise StructureError(f"choice not constant on block {sorted(b)}")

    def at(self, atom: int) -> np.ndarray:
        return self.choice[self.corr.space.position(atom)]

    def is_measurable_against(self, alg: SigmaPartition) -> bool:
        return all(
            len({_vec_key(self.at(a)) for a in b}) == 1 for b in alg.blocks
        )


def check_measurable(corr: Correspondence, alg: SigmaPartition) -> bool:
    """True iff atoms within each block carry equal value sets."""
    if alg.atom_set != corr.space.atom_set:
        raise StructureError("algebra does not cover the correspondence's space")
    for b in alg.blocks:
        keys = {
            tuple(_vec_key(v) for v in corr.value_set(a)) for a in b
        }
        if len(keys) != 1:
            return False
    return True


def block_choice_sets(
    corr: Correspondence, alg: SigmaPartition
) -> list[tuple[np.ndarray, ...]]:
    """Per-block admissible values: intersection of value sets over the block.

    For an ``alg``-measurable correspondence this is the common value set.
    """
    if alg.atom_set != corr.space.atom_set:
        raise StructureError("algebra does not cover the correspondence's space")
    out = []
    for b in alg.blocks:
        atoms = sorted(b)
        common = {_vec_key(v): v for v in corr.value_set(atoms[0])}
        for a in atoms[1:]:
            keys = {_vec_key(v) for v in corr.value_set(a)}
            common = {kk: vv for kk, vv in common.items() if kk in keys}
        out.append(tuple(sorted(common.values(), key=lambda v: tuple(v.tolist()))))
    return out


def selection_count(corr: Correspondence, alg: SigmaPartition) -> int:
    return math.prod(len(cs) for cs in block_choice_sets(corr, alg))


def enumerate_selections(corr: Correspondence, alg: SigmaPartition, cap: int):
    """Yield every alg-measurable selection once, in lexicographic order.

    Blocks run in canonical order and per-block choices in canonical vector
    order; the last block varies fastest.
    """
    sets = block_choice_sets(corr, alg)
    for b, cs in zip(alg.blocks, sets):
        if not cs:
            raise NoSelectionError(
                f"no common value on block {sorted(b)}; selections do not exist"
            )
    count = math.prod(len(cs) for cs in sets)
    if count > cap:
        raise CapacityError(count, cap)

    def _selection_from(combo):
        cmap = {}
        for b, v in zip(alg.blocks, combo):
            for a in b:
                cmap[a] = v
        return Selection(corr, alg, cmap)

    for combo in itertools.product(*sets):
        yield _selection_from(combo)


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


def dyadic_convexify(corr: Correspondence, resolution: int) -> Correspondence:
    """Replace each value set by its dyadic-weight mixtures at the resolution.

    Every atom's set becomes { sum_i (c_i/resolution) v_i : c_i >= 0 integers
    summing to resolution }, deduplicated.
    """
    if resolution < 1:
        raise PreconditionError("resolution must be >= 1")
    vmap = {}
    for a, tup in zip(corr.space.ids, corr.values):
        pts = []
        p = len(tup)
        for counts in _compositions(resolution, p):
            v = np.zeros(corr.dim)
            for c, vec in zip(counts, tup):
                v += (c / resolution) * vec
            pts.append(v)
        vmap[a] = pts
    return Correspondence(corr.space, vmap)


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` non-negative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest
