"""Truncated model of a separable Banach space and its dual.

Points of the space and of its dual are both represented by length-``d``
float64 coordinate vectors against a biorthogonal system: coordinate ``m``
of a primal vector is the value the ``m``-th dual basis functional takes on
it, and symmetrically on the dual side.  Basis vectors are unit in every
supported norm flavor, so normalizing denominators in series constructions
are literal ones.

Each norm flavor is written once, in ``row_norms``, a reduction over the
last axis that gives every row the bits of its own 1-D norm; ``norm`` is
its one-row case.

Besides the three norm flavors, a workspace may read distances in the
weak or weak-star topology.  Both use one weighted-l1 metric, which weighs
the ``m``-th coordinate gap by ``2**-(m+1)`` (0-based indexing; the weight
convention only scales absolute metric values, never convergence verdicts).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import PreconditionError

NORM_SUM = "sum"       # l1
NORM_EUCLID = "euclid"  # l2
NORM_MAX = "max"       # l-infinity
NORM_FLAVORS = (NORM_SUM, NORM_EUCLID, NORM_MAX)

TOPOLOGY_NORM = "norm"
TOPOLOGY_WEAK = "weak"            # half-weighted l1 (primal reading)
TOPOLOGY_WEAK_STAR = "weak_star"  # the same metric (dual reading)
TOPOLOGIES = (TOPOLOGY_NORM, TOPOLOGY_WEAK, TOPOLOGY_WEAK_STAR)


@dataclass(frozen=True)
class Workspace:
    """Ambient truncation: dimension, norm flavor, and convergence topology."""

    d: int
    norm_flavor: str = NORM_EUCLID
    topology: str = TOPOLOGY_NORM

    def __post_init__(self):
        if self.d < 1:
            raise PreconditionError(f"truncation dimension must be >= 1, got {self.d}")
        if self.norm_flavor not in NORM_FLAVORS:
            raise PreconditionError(f"unknown norm flavor {self.norm_flavor!r}")
        if self.topology not in TOPOLOGIES:
            raise PreconditionError(f"unknown topology tag {self.topology!r}")

    def metric_mode(self) -> tuple[int, np.ndarray]:
        """(kernel mode, coordinate weights) for the workspace topology."""
        if self.topology in (TOPOLOGY_WEAK, TOPOLOGY_WEAK_STAR):
            return _kernels.MODE_WSUM, half_weights(self.d)
        return norm_mode(self.norm_flavor, self.d)


def zero_vector(d: int) -> np.ndarray:
    return np.zeros(d)


def basis_vector(n: int, d: int) -> np.ndarray:
    if not 0 <= n < d:
        raise IndexError(f"basis index {n} outside truncation of dimension {d}")
    v = np.zeros(d)
    v[n] = 1.0
    return v


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """Sums over the last axis of terms >= +0 in numpy's order for a lone
    1-D array (below 8 terms in turn; up to 128, eight running sums of every
    eighth term, then the rest; past 128, two halves), one coordinate at a
    time over all rows, so a stack of short rows costs a few array passes."""
    n = terms.shape[-1]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(terms[..., :half]) + _pairwise_sum(terms[..., half:])
    cols, out, rest = [terms[..., m] for m in range(n)], np.zeros(terms.shape[:-1]), n % 8
    if n >= 8:
        s = cols[:8]
        for i in range(8, n - rest, 8):
            s = [a + b for a, b in zip(s, cols[i:i + 8])]
        out, half = s[0] + s[1], s[4] + s[5]
        out += s[2] + s[3]
        half += s[6] + s[7]
        out += half
    for col in cols[n - rest:]:
        out += col
    return out


def row_norms(x: np.ndarray, flavor: str = NORM_EUCLID) -> np.ndarray:
    """Norm of every row of ``x``: a reduction over its last axis.

    ``_pairwise_sum`` adds each row's terms in one fixed order, so row
    ``i`` equals the norm of ``x[i]`` alone bit for bit, whatever the
    layout of ``x``.  Rows of length 0 have norm 0 in every flavor.
    """
    x = np.asarray(x, dtype=float)
    if flavor == NORM_SUM:
        return _pairwise_sum(np.abs(x))
    if flavor == NORM_EUCLID:
        return np.sqrt(_pairwise_sum(x * x))
    if flavor == NORM_MAX:
        # every |x| is >= +0, so a zero start changes no maximum
        return np.max(np.abs(x), axis=-1, initial=0.0)
    raise PreconditionError(f"unknown norm flavor {flavor!r}")


def norm(v: np.ndarray, flavor: str = NORM_EUCLID) -> float:
    """Norm of a whole array, all its entries taken as one vector: the
    one-row case of ``row_norms``.  The entries are read in memory order,
    as a reduction over every axis reads them."""
    return float(row_norms(np.ravel(v, order="K"), flavor))


def half_weights(d: int) -> np.ndarray:
    """Coordinate weights 2**-(m+1), m = 0..d-1."""
    return 0.5 ** (np.arange(d, dtype=float) + 1.0)


def norm_mode(flavor: str, d: int) -> tuple[int, np.ndarray]:
    """(kernel mode, weights) pair implementing a norm flavor."""
    ones = np.ones(d)
    if flavor == NORM_SUM:
        return _kernels.MODE_WSUM, ones
    if flavor == NORM_EUCLID:
        return _kernels.MODE_EUCLID, ones
    if flavor == NORM_MAX:
        return _kernels.MODE_MAX, ones
    raise PreconditionError(f"unknown norm flavor {flavor!r}")
