"""Large games with an aggregate externality at desk scale.

The headline construction pairs the truncated series maps psi_i with the
payoff

    G(t)(a, b) = -h(phi(t), a, psi_1(phi(t)), ..., psi_k(phi(t)), theta)
                 - ||a|| * prod_i ||a - m_i(t)||,

where m_i(t) = psi_i(phi(t))/(k+1) + sum_j psi_j(phi(t))/(k+1) are the
mixed points, theta = beta * d(b, mean of the e_i) with beta = (1-gamma)/(4M),
and h carries the oscillating factor theta * |sin((l-gamma)/theta * pi)|
together with planar root-of-unity gaps (|alpha^i - alpha^j| =
2|sin(pi (i-j)/(k+1))|, used directly).  Off the mean aggregate, a player's
unique zero-payoff action is dictated by the residue of
floor((l-gamma)/theta) mod (k+1): the zero action on residue 0, the
residue's mixed point otherwise.  At the mean aggregate every one of the
k+1 candidate actions is optimal, and the canonical tie-break (round-robin
across each block's atoms) realizes the balanced partition whose parts are
independent of the characteristic algebra.  It is the only game here:
``LargeGame`` refuses any other payoff.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels
from .correspondences import CounterexampleBundle, build_counterexample
from .errors import CapacityError, PreconditionError, StructureError
from .spaces import SigmaPartition, block_averages, is_refinement
from .vectors import NORM_EUCLID, norm, row_norms, zero_vector
from .walsh import walsh_integer_spectrum

EXTERNALITY_INTEGRAL = "integral"
EXTERNALITY_CONDITIONAL = "conditional"

MODE_BR_ITERATE = "br_iterate"
MODE_EXHAUSTIVE = "exhaustive"

TIE_TOL = 1e-10


def root_of_unity_gap(i: int, j: int, k: int) -> float:
    """|alpha^i - alpha^j| for the primitive (k+1)-th root of unity."""
    return 2.0 * abs(math.sin(math.pi * (i - j) / (k + 1)))


@dataclass(frozen=True)
class CounterexamplePayoff:
    """Parameters of the explicit payoff; actions live in the bundle's space."""

    bundle: CounterexampleBundle
    M: float
    beta: float
    flavor: str = NORM_EUCLID

    @property
    def k(self) -> int:
        return self.bundle.k

    def mixed_points(self, cell: int) -> np.ndarray:
        """The k mixed points of a cell, rows i = 1..k."""
        b = self.bundle
        psi = np.array([f.values[cell] for f in b.f_list])
        total = psi.sum(axis=0)
        return (psi + total) / (b.k + 1)


@dataclass(frozen=True)
class LargeGame:
    """The explicit game on its bundle's model space: strategy algebra
    ``t_alg`` refining characteristic algebra ``f_alg``, actions, payoff."""

    f_alg: SigmaPartition
    t_alg: SigmaPartition
    actions: np.ndarray          # (nact, d)
    payoff: CounterexamplePayoff
    externality: str = EXTERNALITY_INTEGRAL

    def __post_init__(self):
        if self.externality not in (EXTERNALITY_INTEGRAL, EXTERNALITY_CONDITIONAL):
            raise PreconditionError(f"unknown externality {self.externality!r}")
        acts = np.ascontiguousarray(self.actions, dtype=float)
        if acts.ndim != 2 or acts.shape[0] == 0:
            raise StructureError("need a non-empty (nact, d) action array")
        acts.setflags(write=False)
        object.__setattr__(self, "actions", acts)
        if not isinstance(self.payoff, CounterexamplePayoff):
            raise StructureError(f"need a CounterexamplePayoff, got {self.payoff!r}")
        maxn = float(row_norms(acts, self.payoff.flavor).max())
        if self.payoff.M < maxn - 1e-12:
            raise StructureError(f"M = {self.payoff.M} below the action norm bound {maxn}")
        if not is_refinement(self.t_alg, self.f_alg):
            raise PreconditionError("t_alg must refine f_alg")

    @property
    def space(self):
        return self.payoff.bundle.model.space

    @property
    def nact(self) -> int:
        return self.actions.shape[0]

    @functools.cached_property
    def ctables(self) -> tuple:
        """``_ctables`` of this game, built once: a frozen game never changes them."""
        return _ctables(self)

    @functools.cached_property
    def cell_mixes(self) -> tuple:
        """``_cell_mixes`` of this game, built once."""
        return _cell_mixes(self)

    @functools.cached_property
    def round_robin(self) -> tuple:
        """(cands, rr), built once: the (atoms, nact) bool mask whose row t
        marks atom t's canonical tie set, and the action ``rr[t]`` atom t
        plays on a full tie, the member of its set at its position within
        its characteristic block (ascending ids) modulo the set's size."""
        sets = _canonical_tie_sets(self)
        cands = np.zeros((len(sets), self.nact), dtype=bool)
        rr = np.empty(len(sets), dtype=np.int64)
        for blk in self.f_alg.blocks:
            for p, atom in enumerate(sorted(blk)):
                t = self.space.position(atom)
                cands[t, sets[t]] = True
                rr[t] = sets[t][p % len(sets[t])]
        cands.setflags(write=False)
        rr.setflags(write=False)
        return cands, rr

    @functools.cached_property
    def aggregate_alg(self) -> SigmaPartition:
        """The algebra the aggregate averages over: trivial (the integral) or F."""
        if self.externality == EXTERNALITY_INTEGRAL:
            return SigmaPartition.trivial(self.space)
        return self.f_alg

    @functools.cached_property
    def aggregate_block(self) -> np.ndarray:
        """Each atom's block of ``aggregate_alg``, by position; read-only."""
        block = np.empty(len(self.space.ids), dtype=np.int64)
        for bi, blk in enumerate(self.aggregate_alg.blocks):
            block[[self.space.position(a) for a in blk]] = bi
        block.setflags(write=False)
        return block


@dataclass(frozen=True)
class StrategyProfile:
    """One action index per atom, aligned with the space's id order."""

    play: tuple[int, ...]


@dataclass
class EquilibriumReport:
    residual: float
    aggregate: list
    aggregate_case: str                 # exact-mean | tol-approximate | off-mean
    iterations: int = 0
    trace: list = field(default_factory=list)
    min_aggregate_distance: float | None = None
    partition_masses: list | None = None
    independence_table: list | None = None
    applicable: bool = True
    note: str = ""

    def to_json(self) -> dict:
        doc = {
            "residual": self.residual,
            "aggregate": self.aggregate,
            "aggregate_case": self.aggregate_case,
            "iterations": self.iterations,
            "trace": self.trace,
            "applicable": self.applicable,
        }
        if self.min_aggregate_distance is not None:
            doc["min_aggregate_distance"] = self.min_aggregate_distance
        if self.partition_masses is not None:
            doc["partition_masses"] = self.partition_masses
        if self.independence_table is not None:
            doc["independence_table"] = [
                {"part": i, "walsh_index": n, "lhs": lhs, "rhs": rhs, "pass": ok}
                for (i, n, lhs, rhs, ok) in self.independence_table
            ]
        if self.note:
            doc["note"] = self.note
        return doc


def build_counterexample_game(
    k: int,
    gamma,
    N: int,
    L: int,
    refinement: int = 1,
    extra_actions=(),
    externality: str = EXTERNALITY_INTEGRAL,
    flavor: str = NORM_EUCLID,
) -> LargeGame:
    """The explicit game over a dyadic model, with singleton strategies.

    Actions: the zero vector first, then the mixed points of every cell in
    (cell, i) order, then any extra probe points.  M is the larger of
    1-gamma and the action norm bound, which keeps beta <= 1/4.
    """
    bundle = build_counterexample(k, gamma, N, L, refinement)
    model = bundle.model
    acts = [zero_vector(bundle.d)]
    for c in range(model.ncells):
        psi = np.array([f.values[c] for f in bundle.f_list])
        acts.extend((psi + psi.sum(axis=0)) / (k + 1))
    acts.extend(np.asarray(extra, dtype=float) for extra in extra_actions)
    actions = np.array(acts)
    M = max(float(1 - Fraction(gamma)), float(row_norms(actions, flavor).max()))
    beta = float(1 - Fraction(gamma)) / (4.0 * M)
    payoff = CounterexamplePayoff(bundle=bundle, M=M, beta=beta, flavor=flavor)
    return LargeGame(
        f_alg=bundle.f_alg,
        t_alg=SigmaPartition.singletons(model.space),
        actions=actions,
        payoff=payoff,
        externality=externality,
    )


def _cell_mixes(game: LargeGame) -> tuple:
    """(mixes, row): the k mixed points of every cell, and which to use.

    ``mixes[c]`` is ``mixed_points(c)``, shape (k, d), for each of the
    model's cells c, and a last block of zeros serves the atomic atom;
    atom t at position p takes ``mixes[row[p]]``.  Both are read-only.
    """
    pay = game.payoff
    b = pay.bundle
    model = b.model
    mixes = np.zeros((model.ncells + 1, b.k, b.d))
    for c in range(model.ncells):
        mixes[c] = pay.mixed_points(c)
    ids = model.space.ids
    cells = (model.cell_of(a) for a in ids)
    row = np.fromiter((model.ncells if c is None else c for c in cells),
                      dtype=np.int64, count=len(ids))
    mixes.setflags(write=False)
    row.setflags(write=False)
    return mixes, row


def _ctables(game: LargeGame):
    """Precomputed arrays for the explicit payoff over all (atom, action).

    ``dn[t, a, i]`` is the norm of action a minus the i-th mixed point of
    atom t's cell, and ``p2[t, a]`` is ``na[a]`` times those k gaps,
    multiplied in the order i = 0..k-1.  Atoms of one cell share both rows,
    so they are computed once per cell, by ``row_norms`` over (cell, action)
    pairs in chunks whose (pairs, k, d) differences stay within
    ``_kernels._CHUNK_BYTES``, and then gathered per atom: memory is that of
    ``dn`` and ``p2``, once per cell and once per atom, plus one chunk.
    Every entry equals the per-row ``norm`` loop bit for bit.
    """
    pay = game.payoff
    b = pay.bundle
    model = b.model
    nact = game.nact
    k = b.k
    gamma_f = float(b.gamma)
    ids = model.space.ids
    phi = np.fromiter((float(model.phi(a)) for a in ids), dtype=float, count=len(ids))
    na = row_norms(game.actions, pay.flavor)
    mixes, row = game.cell_mixes
    cell_dn = np.empty((mixes.shape[0], nact, k))
    pairs = cell_dn.reshape(-1, k)
    step = max(1, _kernels._CHUNK_BYTES // (8 * k * b.d))
    for lo in range(0, pairs.shape[0], step):
        q = np.arange(lo, min(lo + step, pairs.shape[0]))
        gaps = game.actions[q % nact, None, :] - mixes[q // nact]
        pairs[lo:lo + q.shape[0]] = row_norms(gaps, pay.flavor)
    cell_p2 = np.tile(na, (mixes.shape[0], 1))
    for i in range(k):
        cell_p2 *= cell_dn[:, :, i]
    dn, p2 = cell_dn[row], cell_p2[row]
    am = np.zeros((k + 1, k + 1))
    for i in range(k + 1):
        for r in range(k + 1):
            am[i, r] = root_of_unity_gap(i, r, k)
    # shared by every later call on the game (``LargeGame.ctables``)
    for table in (phi, na, p2, dn, am):
        table.setflags(write=False)
    return phi, gamma_f, na, p2, dn, am


def aggregate_of(game: LargeGame, profile: StrategyProfile) -> np.ndarray:
    """The profile's block averages over ``aggregate_alg``, one row per block."""
    rows = game.actions[list(profile.play)]
    return np.array(block_averages(game.space, game.aggregate_alg, rows))


def _payoffs_at_aggregate(game: LargeGame, aggregate) -> np.ndarray:
    """(natoms, nact) payoff table at a fixed aggregate, one row per block
    of ``aggregate_alg`` (a lone vector for the one-block algebra): each
    atom plays at its own block's theta."""
    pay = game.payoff
    gaps = np.reshape(aggregate, (len(game.aggregate_alg.blocks), -1)) - pay.bundle.e_mean()
    thetas = pay.beta * row_norms(gaps, pay.flavor)
    return _kernels.payoff_table(thetas[game.aggregate_block], *game.ctables, pay.k)


def residual_of(game: LargeGame, profile: StrategyProfile) -> tuple:
    """Max regret over players at the profile's own aggregate: (residual,
    that aggregate, the payoff table there)."""
    agg = aggregate_of(game, profile)
    table = _payoffs_at_aggregate(game, agg)
    chosen = table[np.arange(table.shape[0]), list(profile.play)]
    return float((table.max(axis=1) - chosen).max()), agg, table


def _zero_action_index(game: LargeGame) -> int:
    """The first action with every coordinate 0, or 0 if there is none."""
    return int(np.argmin(game.actions.any(axis=1)))


def _canonical_tie_sets(game: LargeGame) -> list[list[int]]:
    """Per atom, the zero action plus its own cell's mixed points (ascending).

    These are exactly the candidate optimal actions of the explicit payoff.
    A mixed point names the first action equal to it in every coordinate
    (``np.array_equal``: -0.0 equals 0.0, NaN equals nothing), found for a
    chunk of cells by one broadcast equality.
    """
    mixes, row = game.cell_mixes
    k, d = mixes.shape[1:]
    zero_idx = _zero_action_index(game)
    if game.actions.shape[1] != d:  # no action has a mixed point's shape
        return [[zero_idx] for _ in row]
    # the atomic atom's zero mixed points name the zero action, the first
    # action with every coordinate 0, or none if there is none: {zero_idx}
    sets = []
    step = max(1, _kernels._CHUNK_BYTES // (k * game.nact * d))
    for lo in range(0, mixes.shape[0], step):
        hit = (mixes[lo:lo + step, :, None, :] == game.actions).all(axis=-1)
        first = np.where(hit.any(axis=-1), hit.argmax(axis=-1), zero_idx)
        sets.extend(sorted({zero_idx, *ids}) for ids in first.tolist())
    return [list(sets[r]) for r in row.tolist()]


def _best_responses(game: LargeGame, table: np.ndarray) -> np.ndarray:
    """Every player's response to an (atoms, nact) payoff table, in one
    pass: round-robin on a full tie, else the first tie (``find_equilibrium``)."""
    cands, rr = game.round_robin
    ties = table >= table.max(axis=1, keepdims=True) - TIE_TOL
    full = (ties.sum(axis=1) > 1) & ~(cands & ~ties).any(axis=1)
    return np.where(full, rr, ties.argmax(axis=1))


def find_equilibrium(
    game: LargeGame,
    mode: str = MODE_BR_ITERATE,
    max_iter: int = 50,
    tol: float = 1e-9,
    cap: int = 20_000_000,
    start: StrategyProfile | None = None,
) -> tuple[StrategyProfile, EquilibriumReport]:
    """Search for a pure equilibrium.

    br_iterate: best-response iteration from the all-zero-action profile
    (or ``start``), every player responding at once to the current
    profile's own aggregate (``_best_responses``): the lowest-index action
    within ``TIE_TOL`` of its best payoff, except that a tie of several
    actions covering its canonical candidate set resolves round-robin by
    its position inside its characteristic block, which realizes the
    balanced partition.  Non-convergence returns the best profile seen with
    its residual rather than raising.

    exhaustive: scans every t_alg-measurable profile, one aggregate block at
    a time (``cap`` bounds the sum over blocks of nact ** (t-blocks
    inside)), and returns the first minimum-residual one, plus, under the
    integral externality, the minimum aggregate distance to the mean of the
    e_i encountered anywhere in the scan.
    """
    if mode == MODE_EXHAUSTIVE:
        return _find_exhaustive(game, cap, tol)
    if mode != MODE_BR_ITERATE:
        raise PreconditionError(f"unknown mode {mode!r}")

    profile = start if start is not None else \
        StrategyProfile(tuple([_zero_action_index(game)] * len(game.space.ids)))
    trace = []
    best = None
    it = 0
    for it in range(max_iter + 1):
        res, agg, table = residual_of(game, profile)
        trace.append(res)
        if best is None or res < best[0]:
            best = (res, profile, agg)
        if res <= tol or it == max_iter:
            break
        play = _best_responses(game, table)
        profile = StrategyProfile(tuple(play.tolist()))
    res, profile, agg = best
    report = _report_for(game, res, agg, iterations=it, trace=trace, tol=tol)
    return profile, report


def _report_for(game, res, agg, iterations, trace, tol,
                min_aggdist=None) -> EquilibriumReport:
    pay = game.payoff
    case = "off-mean"
    if game.externality == EXTERNALITY_INTEGRAL:
        agg_json = [float(x) for x in agg[0]]
        dist = norm(agg[0] - pay.bundle.e_mean(), pay.flavor)
        if dist <= 1e-12:
            case = "exact-mean"
        elif dist <= tol:
            case = "tol-approximate"
    else:
        agg_json = [[float(x) for x in v] for v in agg]
        min_aggdist = None
    return EquilibriumReport(
        residual=res,
        aggregate=agg_json,
        aggregate_case=case,
        iterations=iterations,
        trace=trace,
        min_aggregate_distance=min_aggdist,
    )


def _scan_arguments(game: LargeGame, cap: float) -> list[tuple]:
    """(t-blocks, ``_kernels.exhaustive_scan`` arguments) per block A of
    ``aggregate_alg``: its t-blocks B in ``t_alg`` order, each weighing
    n_B / N_A as ``block_averages`` weighs an atom.  Raises ``CapacityError``
    first past ``cap`` profiles: the sum over A of nact ** (t-blocks in A)."""
    space = game.space
    groups = [[] for _ in game.aggregate_alg.blocks]
    for blk in game.t_alg.blocks:
        groups[game.aggregate_block[space.position(min(blk))]].append(blk)
    count = sum(game.nact ** len(group) for group in groups)
    if count > cap:
        raise CapacityError(count, cap)
    pay = game.payoff
    phi, gamma_f, na, p2, dn, am = game.ctables
    out = []
    for blk_a, group in zip(game.aggregate_alg.blocks, groups):
        total = space.numerator(blk_a)
        lens = np.array([len(b) for b in group], dtype=np.int64)
        perm = np.array([space.position(a) for b in group for a in sorted(b)])
        out.append((group, (
            game.nact, np.array([space.numerator(b) / total for b in group]),
            np.cumsum(lens) - lens, lens, game.actions, pay.bundle.e_mean(), pay.beta,
            pay.flavor, phi[perm], gamma_f, na, p2[perm], dn[perm], am, pay.k)))
    return out


def _find_exhaustive(game: LargeGame, cap: int, tol: float):
    """The first profile of least residual, the last t-block fastest.  A
    residual is the maximum of each aggregate block's own, so the least, m,
    is the maximum of the blocks' least ones, and the first profile at m
    plays in each block its first digits whose residual is at most m."""
    scans = _scan_arguments(game, cap)
    found = [_kernels.exhaustive_scan(*args) for _, args in scans]
    least = max(res for res, _, _ in found)
    play = np.empty(len(game.space.ids), dtype=np.int64)
    for (group, args), (res, digits, _) in zip(scans, found):
        if res < least:
            digits = _kernels.exhaustive_scan(*args, bound=least)[1]
        for blk, digit in zip(group, digits.tolist()):
            play[[game.space.position(a) for a in blk]] = digit
    profile = StrategyProfile(tuple(play.tolist()))
    res, agg, _ = residual_of(game, profile)
    report = _report_for(game, res, agg, iterations=0, trace=[res], tol=tol,
                         min_aggdist=min(dist for _, _, dist in found))
    return profile, report


def verify_equilibrium_partition(
    game: LargeGame, profile: StrategyProfile, max_walsh_index: int | None = None
) -> EquilibriumReport:
    """Check the balanced-partition claim on a profile playing only the
    canonical candidate actions.

    Reports each part's exact mass and, for every Walsh block of the
    model's level (up to ``max_walsh_index`` when given), the exact
    independence identity within the interval part.  At truncation level N
    only the identities for indices <= N are forced by the aggregate
    equation, so exhaustively found equilibria should be checked with that
    cutoff; the round-robin construction satisfies every index.  A profile
    playing any other action (or not zero on the atomic part) is flagged
    not applicable instead of checked.
    """
    b = game.payoff.bundle
    model = b.model
    space = model.space
    k = b.k
    res, agg, _ = residual_of(game, profile)
    report = _report_for(game, res, agg, iterations=0, trace=[res], tol=1e-9)

    # part i > 0 plays its cell's i-th mixed point (the first equal to its
    # action, as ``np.array_equal`` compares), part 0 the zero action
    zero_idx = _zero_action_index(game)
    mixes, row = game.cell_mixes
    play = np.array(profile.play)
    same = (game.actions[play][:, None, :] == mixes[row]).all(axis=-1)
    part = np.where(play == zero_idx, 0, np.where(same.any(axis=1), same.argmax(axis=1) + 1, -1))
    atomic = row == model.ncells
    bad = np.flatnonzero(np.where(atomic, play != zero_idx, part < 0))
    if bad.size:
        report.applicable = False
        report.note = "atomic-part player does not play the zero action" if atomic[bad[0]] \
            else f"player {space.ids[bad[0]]} plays outside the candidate set"
        return report
    parts = [{a for a, q in zip(space.ids, np.where(atomic, -1, part).tolist()) if q == i}
             for i in range(k + 1)]

    interval_mass = 1 - b.gamma
    masses = [space.mass(p) if p else Fraction(0) for p in parts]
    report.partition_masses = [f"{m.numerator}/{m.denominator}" for m in masses]
    table = []
    top = model.ncells if max_walsh_index is None \
        else min(model.ncells, max_walsh_index + 1)
    for n in range(1, top):
        dn_set = model.walsh_block(n)
        dn_mass = space.mass(dn_set)
        for i, part in enumerate(parts):
            lhs = space.mass(part & dn_set) * interval_mass
            rhs = masses[i] * dn_mass
            table.append((
                i, n,
                f"{lhs.numerator}/{lhs.denominator}",
                f"{rhs.numerator}/{rhs.denominator}",
                lhs == rhs,
            ))
    report.independence_table = table
    return report


def case1_indicator_parts(
    k: int, mesh_exp: int, shift: int = 0, roles=None
) -> list[np.ndarray]:
    """Case-1 style disjoint indicators on the 2**mesh_exp mesh of (gamma, 1].

    Cell c takes the role roles[(c + shift) mod (k+1)]; role 0 marks the
    uncovered cells and role i the support of the i-th indicator.  Defaults
    reproduce the canonical residue pattern.
    """
    if roles is None:
        roles = list(range(k + 1))
    if sorted(roles) != list(range(k + 1)):
        raise PreconditionError("roles must permute 0..k")
    ncell = 1 << mesh_exp
    role = np.asarray(roles, dtype=np.int64)[(np.arange(ncell) + shift) % (k + 1)]
    return [(role == i).astype(np.int64) for i in range(1, k + 1)]


def _lemma_holds(spectra, n_top: int) -> np.ndarray:
    """Whether sum_{n < n_top} |s_n| 2**-n < 4, exactly, for each spectrum row.

    A float pre-filter decides the rows far from 4.  Each term |s_n| 2**-n
    is exact (|s_n| < 2**53) but for underflow, below 2**-1074, and summing
    m = n_top terms >= 0 in any order errs by at most 2 m 2**-53 of the sum,
    so near 4 the float sum is within m 2**-50 + m 2**-1074 of the true one
    and decides every row farther from 4 than m 2**-48.  The other rows are
    decided in Python integers as
    sum_n |s_n| 2**(n_top - 1 - n) < 2**(n_top + 1).
    """
    terms = np.abs(spectra[:, :n_top], dtype=float)
    terms *= np.ldexp(1.0, -np.arange(n_top))
    approx = terms.sum(axis=1)
    holds = approx < 4.0
    for r in np.flatnonzero(np.abs(approx - 4.0) <= n_top * 2.0 ** -48):
        row = spectra[r, :n_top].tolist()
        exact = sum(abs(x) << (n_top - 1 - n) for n, x in enumerate(row))
        holds[r] = exact < 1 << (n_top + 1)
    return holds


def _lemma_trials(stack, counts, d0, gamma, L):
    """Lemma sums and exact verdicts of trials stacked row by row.

    ``stack`` is an (rows, ncell) array of {0,1} indicators of any dtype;
    the check comes before the int64 cast, so a fraction is refused, not
    truncated.  An int64 stack is overwritten here.  Trial t owns the next
    counts[t] >= 1 rows.  Returns each trial's
    worst float sum over its parts (for display) and its exact verdict:
    with d0 ncell = 1 - gamma > 0, sum_n 2**-n |(1-gamma) s_n / ncell| <
    4 d0 holds exactly when sum_n 2**-n |s_n| < 4.
    """
    ncell = stack.shape[1]
    if np.any((stack != 0) & (stack != 1)):
        raise PreconditionError("parts must be {0,1} indicators")
    stack = stack.astype(np.int64, copy=False)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    qsum = np.add.reduceat(stack, starts, axis=0)
    if np.any(qsum > 1):
        raise PreconditionError("indicator supports overlap")
    if ncell & (ncell - 1):
        raise PreconditionError(f"mesh size {ncell} is not a power of two")
    if d0 * ncell != 1 - gamma:
        raise PreconditionError(
            f"cell width {d0} times {ncell} cells does not tile (gamma, 1]"
        )
    if d0 <= 0:
        raise PreconditionError(f"cell width {d0} must be positive")
    n_top = ncell if L is None else min(ncell, 1 << L)
    # each row becomes its integrand q_i + sum_j q_j - 1
    stack += np.repeat(qsum - 1, counts, axis=0)
    spectra = walsh_integer_spectrum(stack)[:, :n_top]
    holds = np.logical_and.reduceat(_lemma_holds(spectra, n_top), starts)
    # the terms (0.5**n) |integral| of the loop form, summed left to right
    terms = float(1 - gamma) * spectra
    terms /= ncell
    np.abs(terms, out=terms)
    terms *= np.ldexp(1.0, -np.arange(n_top))
    worst = np.maximum.reduceat(np.cumsum(terms, axis=1, out=terms)[:, -1], starts)
    return worst, holds


def lemma_bound_trials(trials, d0, gamma=0, L: int | None = None):
    """``lemma_bound_check`` over an iterable of part lists, batched.

    Consumes the trials in order, stacking the parts of consecutive trials
    into chunks whose temporaries stay near ``_kernels._CHUNK_BYTES``, and
    returns (worst sums, verdicts) as arrays with one entry per trial; each
    entry equals that trial's ``lemma_bound_check``.
    """
    gamma = Fraction(gamma)
    d0 = Fraction(d0)
    worst, holds = [], []
    rows, counts = [], []

    def flush():
        w, h = _lemma_trials(np.stack(rows), counts, d0, gamma, L)
        worst.append(w)
        holds.append(h)
        rows.clear()
        counts.clear()

    for parts in trials:
        qs = [np.asarray(q) for q in parts]
        if not qs:
            raise PreconditionError("need at least one indicator part")
        ncell = qs[0].shape[0]
        if any(q.shape != (ncell,) for q in qs):
            raise StructureError("indicator parts live on different meshes")
        # the stacked rows take half the budget: the butterfly's copy and
        # the permuted spectrum are live beside them
        if rows and (ncell != rows[0].shape[0]
                     or 8 * ncell * (len(rows) + len(qs)) > _kernels._CHUNK_BYTES // 2):
            flush()
        rows.extend(qs)
        counts.append(len(qs))
    if rows:
        flush()
    if not worst:
        return np.empty(0), np.empty(0, dtype=bool)
    return np.concatenate(worst), np.concatenate(holds)


def lemma_bound_check(parts, d0, gamma=0, L: int | None = None):
    """The weighted Walsh-coefficient sum of q_i + sum_j q_j - 1 against 4*d0.

    ``parts`` are {0,1} cell indicators on the uniform mesh of (gamma, 1]
    whose cell width is d0 (the mesh must be dyadic after rescaling to
    [0,1]).  Integrals are exact dyadic cell sums; the weighted sum is
    truncated at index 2**L - 1 when L is given (terms beyond the mesh
    resolution vanish identically).  Returns (worst sum over i, 4*d0,
    verdict): the sum is a float for display, the verdict is decided
    exactly on the integer spectrum.
    """
    worst, holds = lemma_bound_trials([parts], d0, gamma, L)
    return float(worst[0]), 4.0 * float(d0), bool(holds[0])
