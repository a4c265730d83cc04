"""Reference implementations that tests compare the package against.

Two kinds live here.  The first are references the package no longer
needs itself: point evaluation of the Walsh functions, the scalar payoffs
h and G of the explicit game, the round-robin candidate profile, the
per-atom best-response loop, the per-atom partition of a profile, the
enumeration of measurable selections and the dyadic convexification.  Tests use them as the reference for cell
signs, payoff tables, best responses and Aumann sets, or to build inputs.

The second kind is the one-vector-at-a-time construction logic.
``Correspondence``, ``Selection`` and ``TransitionKernel`` stack their
vectors into one array and key each row once.  The functions after the
first kind are the per-vector forms they replaced, kept so that tests can
compare the two on small instances: every value set made canonical
through a bytes dict and a sort of ``tuple(v.tolist())``, membership by
``np.array_equal``, block constancy and value-set intersection by bytes
keys, and kernel entries merged by bytes keys with ``Fraction`` sums.
Each raises ``StructureError`` where the constructor it mirrors did.
Unlike the old code, they copy every vector before freezing it, so the
caller's arrays stay writeable.
"""
import itertools
import math
from fractions import Fraction

import numpy as np

from corrint.correspondences import Correspondence, Selection, _compositions
from corrint.correspondences import block_choice_sets as package_block_choice_sets
from corrint.errors import CapacityError, PreconditionError, StructureError
from corrint.game import TIE_TOL, StrategyProfile, _canonical_tie_sets, root_of_unity_gap
from corrint.vectors import NORM_EUCLID, norm, zero_vector


def walsh_eval(n: int, l) -> int:
    """Evaluate W_n at l in [0,1]; returns +1 or -1.

    Dyadic rationals use their terminating expansion, so on a level-L cell
    with n < 2**L it agrees with ``walsh_sign_on_cell`` at every point.
    """
    if n < 0:
        raise PreconditionError(f"Walsh index must be >= 0, got {n}")
    lf = Fraction(l)
    if not 0 <= lf <= 1:
        raise PreconditionError(f"argument {l} outside [0,1]")
    if n == 0:
        return 1
    acc = 0
    frac = lf - int(lf)  # l = 1 uses the terminating expansion: all digits 0
    for j in range(n.bit_length()):
        frac *= 2
        digit = int(frac)
        frac -= digit
        acc += ((n >> j) & 1) & digit
    return -1 if acc & 1 else 1


def payoff_h(l, a, xs, theta: float, gamma=0, k: int | None = None,
             flavor: str = NORM_EUCLID) -> float:
    """The oscillating penalty h(l, a, x_1..x_k, theta); zero when theta = 0
    or l lies in the atomic part [0, gamma]."""
    gamma_f = float(Fraction(gamma))
    lf = float(Fraction(l))
    if k is None:
        k = len(xs)
    if len(xs) != k:
        raise PreconditionError(f"need k = {k} profile points, got {len(xs)}")
    if theta < 0:
        raise PreconditionError(f"theta must be >= 0, got {theta}")
    if theta == 0.0 or lf <= gamma_f:
        return 0.0
    a = np.asarray(a, dtype=float)
    xs = [np.asarray(x, dtype=float) for x in xs]
    total = np.zeros_like(a)
    for x in xs:
        total = total + x
    u = (lf - gamma_f) / theta
    rho = int(math.floor(u))
    val = theta * abs(math.sin(u * math.pi)) * (norm(a, flavor) + root_of_unity_gap(0, rho, k))
    for i in range(1, k + 1):
        mix_i = (xs[i - 1] + total) / (k + 1)
        val *= norm(a - mix_i, flavor) + root_of_unity_gap(i, rho, k)
    return val


def payoff_G(game, t: int, a, b) -> float:
    """Payoff of player t taking action a against societal aggregate b."""
    pay = game.payoff
    bnd = pay.bundle
    model = bnd.model
    a = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    theta = pay.beta * norm(bv - bnd.e_mean(), pay.flavor)
    cell = model.cell_of(t)
    if cell is None:
        xs = [zero_vector(bnd.d) for _ in range(bnd.k)]
    else:
        xs = [f.values[cell] for f in bnd.f_list]
    h = payoff_h(model.phi(t), a, xs, theta, bnd.gamma, bnd.k, pay.flavor)
    total = np.zeros(bnd.d)
    for x in xs:
        total = total + x
    prod = norm(a, pay.flavor)
    for i in range(bnd.k):
        prod *= norm(a - (xs[i] + total) / (bnd.k + 1), pay.flavor)
    return -h - prod


def _block_positions(game) -> dict[int, int]:
    """Atom -> position within its characteristic block (ascending ids)."""
    return {a: p for blk in game.f_alg.blocks for p, a in enumerate(sorted(blk))}


def balanced_profile(game) -> StrategyProfile:
    """The constructive candidate equilibrium: round-robin over each block.

    Atom at position p of its characteristic block plays the p-th canonical
    candidate (zero action, then the cell's mixed points).  When k+1 divides
    every block's atom count its aggregate is the mean of the e_i and the
    induced parts form the balanced independent partition.
    """
    tie_sets = _canonical_tie_sets(game)
    positions = _block_positions(game)
    play = []
    for ti, atom in enumerate(game.space.ids):
        cands = tie_sets[ti]
        play.append(cands[positions[atom] % len(cands)])
    return StrategyProfile(tuple(play))


def best_response_loop(game, table) -> tuple[int, ...]:
    """Every player's response to an (atoms, actions) payoff table, atom by atom.

    The ties are the actions within ``TIE_TOL`` of the atom's best payoff.
    More than one tie with the canonical candidate set among them plays
    round-robin by the atom's position in its characteristic block;
    anything else plays the first tie.
    """
    tie_sets = _canonical_tie_sets(game)
    positions = _block_positions(game)
    play = []
    for ti, atom in enumerate(game.space.ids):
        vals = table[ti]
        top = vals.max()
        ties = [int(i) for i in np.flatnonzero(vals >= top - TIE_TOL)]
        if len(ties) > 1 and set(tie_sets[ti]) <= set(ties):
            cands = tie_sets[ti]
            play.append(cands[positions[atom] % len(cands)])
        else:
            play.append(ties[0])
    return tuple(play)


def partition_loop(game, profile):
    """(parts, note): the atoms of each part of a profile, as
    ``verify_equilibrium_partition`` read them one atom at a time, or
    (None, the reason) when the profile is not applicable."""
    model = game.payoff.bundle.model
    k = game.payoff.k
    parts = [set() for _ in range(k + 1)]
    zero_idx = int(np.argmin(game.actions.any(axis=1)))
    mixes = game.cell_mixes[0]
    for atom, p in zip(model.space.ids, profile.play):
        cell = model.cell_of(atom)
        if cell is None:
            if p != zero_idx:
                return None, "atomic-part player does not play the zero action"
            continue
        if p == zero_idx:
            parts[0].add(atom)
            continue
        hit = next((i + 1 for i in range(k) if np.array_equal(game.actions[p], mixes[cell, i])),
                   None)
        if hit is None:
            return None, f"player {atom} plays outside the candidate set"
        parts[hit].add(atom)
    return parts, ""


def enumerate_selections(corr, alg, cap: int):
    """Yield every alg-measurable selection once, in lexicographic order.

    Blocks run in canonical order and per-block choices in canonical vector
    order; the last block varies fastest.  A block with no common value
    leaves nothing to yield.
    """
    sets = package_block_choice_sets(corr, alg)
    count = math.prod(len(cs) for cs in sets)
    if count > cap:
        raise CapacityError(count, cap)
    for combo in itertools.product(*sets):
        cmap = {}
        for b, v in zip(alg.blocks, combo):
            for a in b:
                cmap[a] = v
        yield Selection(corr, alg, cmap)


def dyadic_convexify(corr, resolution: int):
    """Replace each value set by its dyadic-weight mixtures at the resolution.

    Every atom's set becomes { sum_i (c_i/resolution) v_i : c_i >= 0 integers
    summing to resolution }, deduplicated.
    """
    if resolution < 1:
        raise PreconditionError("resolution must be >= 1")
    vmap = {}
    for a, tup in zip(corr.space.ids, corr.values):
        pts = []
        for counts in _compositions(resolution, len(tup)):
            v = np.zeros(corr.dim)
            for c, vec in zip(counts, tup):
                v += (c / resolution) * vec
            pts.append(v)
        vmap[a] = pts
    return Correspondence(corr.space, vmap)


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
