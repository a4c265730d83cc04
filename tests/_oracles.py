"""Reference implementations of the one-vector-at-a-time construction logic.

``Correspondence``, ``Selection`` and ``TransitionKernel`` stack their
vectors into one array and key each row once.  The functions here are the
per-vector forms they replaced, kept so that tests can compare the two on
small instances: every value set made canonical through a bytes dict and a
sort of ``tuple(v.tolist())``, membership by ``np.array_equal``, block
constancy and value-set intersection by bytes keys, and kernel entries
merged by bytes keys with ``Fraction`` sums.  Each raises ``StructureError``
where the constructor it mirrors did.  Unlike the old code, they copy every
vector before freezing it, so the caller's arrays stay writeable.
"""
from fractions import Fraction

import numpy as np

from corrint.errors import StructureError


def _freeze(v) -> np.ndarray:
    v = np.array(v, dtype=float)
    v.setflags(write=False)
    return v


def vec_key(v) -> bytes:
    return np.ascontiguousarray(v, dtype=float).tobytes()


def canonical_value_tuple(values) -> tuple[np.ndarray, ...]:
    """One atom's value set: finite, distinct bit for bit, in lexicographic order."""
    uniq: dict[bytes, np.ndarray] = {}
    for v in values:
        arr = _freeze(v)
        if not np.all(np.isfinite(arr)):
            raise StructureError("correspondence values must be finite")
        uniq.setdefault(vec_key(arr), arr)
    return tuple(sorted(uniq.values(), key=lambda a: tuple(a.tolist())))


def correspondence_values(space, value_map) -> tuple[tuple[np.ndarray, ...], ...]:
    """The value sets ``Correspondence(space, value_map)`` holds, aligned with ids."""
    vals = []
    for a in space.ids:
        if a not in value_map:
            raise StructureError(f"no value set for atom {a}")
        tup = canonical_value_tuple(value_map[a])
        if not tup:
            raise StructureError(f"empty value set at atom {a}")
        vals.append(tup)
    dims = {v.shape[0] for tup in vals for v in tup}
    if len(dims) != 1:
        raise StructureError(f"mixed value dimensions {sorted(dims)}")
    return tuple(vals)


def is_member(v, vset) -> bool:
    return any(np.array_equal(v, w) for w in vset)


def constant_on(choice_of: dict, block) -> bool:
    """True iff the atoms of ``block`` carry bit-identical choices."""
    return len({vec_key(choice_of[a]) for a in block}) == 1


def selection_choice(space, values, alg, choice_map) -> tuple[np.ndarray, ...]:
    """The choices ``Selection`` holds, given the oracle's value sets."""
    if alg.atom_set != space.atom_set:
        raise StructureError("selection algebra does not cover the space")
    choices = []
    for a, vset in zip(space.ids, values):
        if a not in choice_map:
            raise StructureError(f"no choice at atom {a}")
        v = _freeze(choice_map[a])
        if not is_member(v, vset):
            raise StructureError(f"choice at atom {a} is not a correspondence value")
        choices.append(v)
    choice_of = dict(zip(space.ids, choices))
    for b in alg.blocks:
        if not constant_on(choice_of, b):
            raise StructureError(f"choice not constant on block {sorted(b)}")
    return tuple(choices)


def check_measurable(space, values, alg) -> bool:
    sets = dict(zip(space.ids, values))
    return all(
        len({tuple(vec_key(v) for v in sets[a]) for a in b}) == 1 for b in alg.blocks
    )


def block_choice_sets(space, values, alg) -> list[tuple[np.ndarray, ...]]:
    sets = dict(zip(space.ids, values))
    out = []
    for b in alg.blocks:
        atoms = sorted(b)
        common = {vec_key(v): v for v in sets[atoms[0]]}
        for a in atoms[1:]:
            keys = {vec_key(v) for v in sets[a]}
            common = {k: v for k, v in common.items() if k in keys}
        out.append(tuple(sorted(common.values(), key=lambda v: tuple(v.tolist()))))
    return out


def kernel_blocks(g_alg, per_block):
    """(supports, weights) of ``TransitionKernel(g_alg, per_block)``, per block."""
    supports = []
    weights = []
    for b, dist in zip(g_alg.blocks, per_block):
        merged: dict[bytes, tuple[np.ndarray, Fraction]] = {}
        for v, w in dist:
            w = Fraction(w)
            if w < 0:
                raise StructureError(f"negative weight {w} in block {sorted(b)}")
            arr = _freeze(v)
            key = vec_key(arr)
            if key in merged:
                merged[key] = (merged[key][0], merged[key][1] + w)
            elif w > 0:
                merged[key] = (arr, w)
        items = sorted(merged.values(), key=lambda it: tuple(it[0].tolist()))
        total = sum((w for _, w in items), Fraction(0))
        if total != 1:
            raise StructureError(f"weights in block {sorted(b)} sum to {total}, not 1")
        supports.append(tuple(v for v, _ in items))
        weights.append(tuple(w for _, w in items))
    return tuple(supports), tuple(weights)


def same_rows(stack: np.ndarray, rows) -> bool:
    """True iff the (m, d) ``stack`` holds exactly ``rows``, bit for bit, in order."""
    return len(stack) == len(rows) and all(
        r.shape == s.shape and r.tobytes() == s.tobytes() for r, s in zip(rows, stack)
    )


def outcome(fn, *args):
    """``("ok", result)`` or ``("raised", exception class)``."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the class is compared by the caller
        return "raised", type(exc)
