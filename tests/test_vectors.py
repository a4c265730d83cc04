import numpy as np
import pytest

from corrint import _kernels
from corrint.errors import PreconditionError
from corrint.vectors import (
    Workspace,
    basis_vector,
    norm,
    row_norms,
    zero_vector,
)


def _weak(topology):
    """The distance of two vectors, or of two stacks row by row, as the
    nearest-distance kernel reads it in a workspace of that topology."""
    def dist(v, w):
        v, w = np.atleast_2d(v), np.atleast_2d(w)
        mode, weights = Workspace(d=v.shape[1], topology=topology).metric_mode()
        out = _kernels._row_dists(v.T, w.T, mode, weights)
        return float(out[0]) if out.shape == (1,) else out
    return dist


rho_w = _weak("weak")
d_w = _weak("weak_star")


def _norm_loop(v, flavor):
    """The norm of one vector, as ``norm`` computed it before ``row_norms``."""
    v = np.asarray(v, dtype=float)
    if flavor == "sum":
        return float(np.sum(np.abs(v)))
    if flavor == "euclid":
        return float(np.sqrt(np.sum(v * v)))
    return float(np.max(np.abs(v))) if v.size else 0.0


def test_biorthogonality_exact():
    # coordinate m of a vector is the m-th dual functional's value on it
    d = 8
    for m in range(d):
        for n in range(d):
            assert basis_vector(n, d)[m] == (1.0 if m == n else 0.0)


def test_norm_examples():
    d = 6
    assert norm(zero_vector(d), "sum") == 0.0
    for flavor in ("sum", "euclid", "max"):
        assert norm(basis_vector(5, d), flavor) == 1.0
    assert norm(basis_vector(0, d) + basis_vector(1, d), "sum") == 2.0
    with pytest.raises(PreconditionError):
        norm(zero_vector(d), "l7")


def test_weak_metric_examples():
    d = 4
    v = basis_vector(0, d)
    assert rho_w(v, v) == 0.0
    assert rho_w(v, zero_vector(d)) == 0.5
    assert rho_w(basis_vector(0, d) + basis_vector(1, d), basis_vector(0, d)) == 0.25
    assert d_w(v, zero_vector(d)) == 0.5


def test_metric_properties_random_triples():
    rng = np.random.default_rng(3)
    d = 7
    x, y, z = rng.normal(size=(3, 1000, d))
    for metric in (rho_w, d_w):
        assert np.array_equal(metric(x, y), metric(y, x))
        assert not np.any(metric(x, x))
        assert np.all(metric(x, z) <= metric(x, y) + metric(y, z) + 1e-15)


def test_weak_metric_dominated_by_sum_norm():
    rng = np.random.default_rng(4)
    for _ in range(500):
        x, y = rng.normal(size=(2, 9))
        assert rho_w(x, y) <= norm(x - y, "sum") + 1e-15


def test_vector_ops_deterministic():
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(2, 6))
    assert norm(x + y, "euclid") == norm(x + y, "euclid")
    assert rho_w(x, y) == rho_w(x, y)


def test_workspace_validation():
    ws = Workspace(d=6, norm_flavor="euclid", topology="weak")
    with pytest.raises(PreconditionError):
        Workspace(d=0)
    with pytest.raises(PreconditionError):
        Workspace(d=3, norm_flavor="nope")
    mode, weights = ws.metric_mode()
    assert weights[0] == 0.5 and weights[1] == 0.25


def _rows(d, rng):
    # magnitudes over ten decades, so that the summation order shows in the
    # last bits, and signed zeros
    x = rng.normal(size=(3, 5, d)) * 10.0 ** rng.integers(-5, 5, size=(3, 5, d))
    x[0, 0] = -0.0
    x[0, 1, ::2] = -0.0
    return x


@pytest.mark.parametrize("flavor", ["sum", "euclid", "max"])
@pytest.mark.parametrize("d", [0, 1, 8, 9, 48, 130, 300])
def test_row_norms_equal_the_per_row_loop(d, flavor):
    # numpy sums a lone vector of 8 or more entries pairwise, and past 128
    # in halves: each row must be reduced the same way, whatever the layout
    # of the stack
    x = _rows(d, np.random.default_rng(40 + d))
    layouts = [x, np.asfortranarray(x), x[:, ::-1], np.swapaxes(np.swapaxes(x, 0, 2).copy(), 0, 2)]
    for stack in layouts:
        got = row_norms(stack, flavor)
        assert got.shape == stack.shape[:-1]
        want = [_norm_loop(row, flavor).hex() for row in stack.reshape(15, d)]
        assert [float(v).hex() for v in got.ravel()] == want
        assert [norm(row, flavor).hex() for row in stack.reshape(15, d)] == want


@pytest.mark.parametrize("flavor", ["sum", "euclid", "max"])
@pytest.mark.parametrize("d", [0, 1, 8, 9, 48, 130, 300])
def test_norm_of_a_whole_array_equals_the_old_norm(d, flavor):
    # callers pass stacks too (a conditional aggregate has one row per
    # block): norm takes all of their entries as one vector
    x = _rows(d, np.random.default_rng(60 + d))
    layouts = [x, np.asfortranarray(x), x[:, ::-1], np.swapaxes(np.swapaxes(x, 0, 2).copy(), 0, 2),
               x[0], np.array(-3.0)]
    for v in layouts:
        assert norm(v, flavor).hex() == _norm_loop(v, flavor).hex()


@pytest.mark.parametrize("flavor", ["sum", "euclid", "max"])
def test_norm_of_an_empty_vector_is_zero(flavor):
    assert norm(np.zeros(0), flavor) == 0.0
    assert row_norms(np.zeros((4, 0)), flavor).tolist() == [0.0] * 4


def test_row_norms_refuses_unknown_flavor():
    with pytest.raises(PreconditionError):
        row_norms(np.ones((2, 3)), "l7")
