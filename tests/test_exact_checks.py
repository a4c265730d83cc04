"""tower-barycenter against its per-instance form, its memory, the shape
of the tower and lemma-bound draws, and negative controls for the verdicts
of tower-barycenter, rcd-mixture, lemma-bound, walsh-orthogonality,
counterexample-integrals, lyapunov-exactness, convexity-decay, uhc-decay
and necessity-gap.

tower-barycenter runs its instances as disjoint unions of up to
``TOWER_BATCH``; ``_oracles.tower_barycenter_loop`` runs the same draws
with one small space per instance.  A negative control injects one
fault through a monkeypatch, or runs a config whose verdict is false, and
shows the verdict false and the exit code 1, so a check whose condition
stopped deciding anything would fail here.
"""
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from _oracles import tower_barycenter_loop
from _perfbench import load
from corrint import game, scenarios
from corrint.cli import main
from corrint.rcd import TransitionKernel
from corrint.set_integration import ConditionalSet
from corrint.spaces import DyadicModel, block_starts

LEMMA_CHECK = next(item["config"]["checks"][0] for item in load("workloads").generate("exact", 1)
                   if item["config"]["checks"][0]["kind"] == "lemma-bound")


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("instances", [1, 2, scenarios.TOWER_BATCH - 1, scenarios.TOWER_BATCH,
                                       scenarios.TOWER_BATCH + 1, 2 * scenarios.TOWER_BATCH + 3])
def test_tower_barycenter_equals_the_per_instance_loop(instances, seed):
    params = {"instances": instances, "tol": 1e-12}
    assert scenarios.check_tower_barycenter(params, seed) == \
        tower_barycenter_loop(instances, 1e-12, seed)


def test_tower_barycenter_memory_is_bounded_by_its_batch():
    # one union of all 600 instances peaks near 11.6 MB; a batch of 50, 1.2 MB
    params = {"instances": 600, "tol": 1e-12}
    scenarios.check_tower_barycenter(params, 1)  # imports and caches warm
    tracemalloc.start()
    try:
        scenarios.check_tower_barycenter(params, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


@pytest.mark.parametrize("seed", range(0, 400, 7))
def test_vector_picks_equal_the_scalar_draws(seed):
    # one integer draw of n entries on default_rng gives the values of n
    # scalar draws and leaves the generator where they leave it
    for n in range(1, 20):
        loop, vector = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
        picks = vector.integers(0, 3, n)
        assert picks.dtype == np.int64
        assert picks.tolist() == [int(loop.integers(0, 3)) for _ in range(n)]
        assert vector.integers(0, 1 << 62, 3).tolist() == loop.integers(0, 1 << 62, 3).tolist()


@pytest.mark.parametrize("batch", [1, 2, scenarios.TOWER_BATCH - 1, scenarios.TOWER_BATCH])
def test_tower_draws_use_every_block(batch):
    # each instance has 4..12 atoms; its F-labels are 0..m_F - 1 after the
    # instances before it, every one used, m_F in [2, n]; its G-labels
    # likewise, m_G in [1, m_F], one per F-block; so a draw that left a
    # block empty fails here, and one that never reached an end of a block
    # count fails at the end
    seen_f, seen_g = set(), set()
    for seed in range(200):
        sizes, f, g, values, picks = scenarios._tower_draws(np.random.default_rng(seed), batch)
        assert sizes.shape == (batch,) and sizes.min() >= 4 and sizes.max() <= 12
        assert values.shape == (sizes.sum(), 3, 3) and picks.shape == f.shape == g.shape
        assert set(picks.tolist()) <= {0, 1, 2}
        f_next = g_next = 0
        for start, n in zip(block_starts(sizes).tolist(), sizes.tolist()):
            fi, gi = f[start:start + n] - f_next, g[start:start + n] - g_next
            m_f, m_g = len(set(fi.tolist())), len(set(gi.tolist()))
            assert sorted(set(fi.tolist())) == list(range(m_f)) and 2 <= m_f <= n
            assert sorted(set(gi.tolist())) == list(range(m_g)) and 1 <= m_g <= m_f
            assert all(len(set(gi[fi == b].tolist())) == 1 for b in range(m_f))
            seen_f.add((n, m_f))
            seen_g.add((m_f, m_g))
            f_next, g_next = f_next + m_f, g_next + m_g
    # both ends of each block count are drawn
    assert any(m == n for n, m in seen_f) and any(m == 2 for _, m in seen_f)
    assert any(m == m_f for m_f, m in seen_g) and any(m == 1 for _, m in seen_g)


@pytest.mark.parametrize("seed", range(0, 400, 7))
def test_lemma_draws_reach_every_modulus(seed):
    # the exact workload's lemma-bound config: on each of its meshes, every
    # roles row opens with a permutation of 0..kk, shift is in [0, kk], the
    # trials reach every modulus 2..kmax + 1, and each role leads some row
    trials, kmax = LEMMA_CHECK["trials"], LEMMA_CHECK["kmax"]
    rng = np.random.default_rng(seed)
    for _ in LEMMA_CHECK["meshes"]:
        kk, shift, roles = scenarios._lemma_draws(rng, trials, kmax)
        assert kk.shape == shift.shape == (trials,) and roles.shape == (trials, kmax + 1)
        assert set(kk.tolist()) == set(range(1, kmax + 1))
        assert (shift >= 0).all() and (shift <= kk).all()
        for k, row in zip(kk.tolist(), roles.tolist()):
            assert sorted(row[:k + 1]) == list(range(k + 1))
        assert set(roles[kk == kmax, 0].tolist()) == set(range(kmax + 1))


def _run(tmp_path, capsys, check) -> tuple[int, dict]:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "name": "x", "seed": 3, "checks": [check]}))
    code = main(["run", str(cfg)])
    return code, json.loads(capsys.readouterr().out)["checks"][0]


def test_tower_condition_fails_on_a_wrong_lifted_weight(tmp_path, capsys, monkeypatch):
    real = scenarios.block_averages

    def wrong_weight(space, alg, values):
        lifted = np.array(values)
        lifted[0] *= 1 + 2 ** -20  # atom 0's lifted row weighs slightly more
        return real(space, alg, lifted)

    monkeypatch.setattr(scenarios, "block_averages", wrong_weight)
    code, res = _run(tmp_path, capsys, {"kind": "tower-barycenter", "instances": 20})
    assert code == 1 and res["verdict"] is False
    assert res["worst_tower_error"] > 1e-12 >= res["worst_barycenter_error"]


def test_barycenter_condition_fails_on_a_perturbed_barycenter(tmp_path, capsys, monkeypatch):
    real = TransitionKernel.barycenters

    def perturbed(self):
        out = real(self)
        out[0] = out[0] + 1e-9
        return out

    monkeypatch.setattr(TransitionKernel, "barycenters", perturbed)
    code, res = _run(tmp_path, capsys, {"kind": "tower-barycenter", "instances": 20})
    assert code == 1 and res["verdict"] is False
    assert res["worst_barycenter_error"] > 1e-12 >= res["worst_tower_error"]


def test_rcd_mixture_fails_on_one_flipped_weight(tmp_path, capsys, monkeypatch):
    real = scenarios.kernel_mix

    def flipped(k0, k1, alpha):
        # the mixture at alpha = 1/4 weighs the kernels the other way round
        return real(k0, k1, 1 - alpha if alpha == Fraction(1, 4) else alpha)

    monkeypatch.setattr(scenarios, "kernel_mix", flipped)
    code, res = _run(tmp_path, capsys, {"kind": "rcd-mixture", "resolution": 4})
    assert code == 1 and res["verdict"] is False
    assert [m["exact"] for m in res["mixtures"]] == [True, False, True, True, True]


def test_lemma_trials_fail_on_a_scaled_residue_basis(tmp_path, capsys, monkeypatch):
    real = game._residue_spectra

    def scaled(m, mesh_exp):
        return 4 * real(m, mesh_exp)

    monkeypatch.setattr(game, "_residue_spectra", scaled)
    code, res = _run(tmp_path, capsys, {"kind": "lemma-bound", "meshes": [3, 4], "trials": 20})
    assert code == 1 and res["verdict"] is False
    assert [m["all_trials_hold"] for m in res["meshes"]] == [False, False]
    assert all(m["canonical_sum"] < m["bound"] for m in res["meshes"])


def test_lemma_canonical_row_fails_on_a_failing_check(tmp_path, capsys, monkeypatch):
    real = scenarios.lemma_bound_check

    def failing(parts, d0):
        total, bound, _ = real(parts, d0)
        return total, bound, False

    monkeypatch.setattr(scenarios, "lemma_bound_check", failing)
    code, res = _run(tmp_path, capsys, {"kind": "lemma-bound", "meshes": [3, 4], "trials": 20})
    assert code == 1 and res["verdict"] is False
    assert [m["all_trials_hold"] for m in res["meshes"]] == [False, False]
    assert all(m["worst_ratio"] < 1 for m in res["meshes"])


def test_walsh_orthogonality_fails_on_one_off_diagonal_entry(tmp_path, capsys, monkeypatch):
    real = scenarios.walsh_gram

    def patched(max_index, level):
        gram = real(max_index, level)
        gram[2, 5] = 1  # W_2 and W_5 no longer orthogonal
        return gram

    monkeypatch.setattr(scenarios, "walsh_gram", patched)
    code, res = _run(tmp_path, capsys, {"kind": "walsh-orthogonality", "level": 4,
                                        "max_index": 8})
    assert code == 1 and res["verdict"] is False
    assert res["failures"] == [[2, 5, 1]]


def _integral_cases(tmp_path, capsys) -> tuple[int, dict]:
    return _run(tmp_path, capsys, {"kind": "counterexample-integrals", "k": 2, "N": 2,
                                   "L": 4, "gammas": ["0", "1/4"]})


def test_counterexample_norm_condition_fails_alone(tmp_path, capsys, monkeypatch):
    real = scenarios.norm
    monkeypatch.setattr(scenarios, "norm", lambda v, flavor: real(v, flavor) + 1e-9)
    code, res = _integral_cases(tmp_path, capsys)
    assert code == 1 and res["verdict"] is False
    for case in res["cases"]:
        assert abs(case["e1_norm"] - case["expected"]) > 1e-12
        assert case["basis_match"] and case["vanishes_on_atomic_part"]


def test_counterexample_basis_condition_fails_alone(tmp_path, capsys, monkeypatch):
    real = scenarios.basis_vector

    def tilted(i, d):
        v = real(i, d)
        v[-1] += 1e-9  # every e_j is compared with a slightly wrong basis vector
        return v

    monkeypatch.setattr(scenarios, "basis_vector", tilted)
    code, res = _integral_cases(tmp_path, capsys)
    assert code == 1 and res["verdict"] is False
    for case in res["cases"]:
        assert abs(case["e1_norm"] - case["expected"]) <= 1e-12
        assert not case["basis_match"] and case["vanishes_on_atomic_part"]


def test_counterexample_atomic_part_condition_fails_alone(tmp_path, capsys, monkeypatch):
    code, res = _integral_cases(tmp_path, capsys)
    assert code == 0 and [c["vanishes_on_atomic_part"] for c in res["cases"]] == [True, True]
    # the atomic atom put in cell 0, so its value set is no longer {0}
    cells = DyadicModel.cells.func

    def atomic_in_cell_0(self):
        moved = cells(self).copy()
        moved[moved == self.ncells] = 0
        return moved

    monkeypatch.setattr(DyadicModel, "cells", property(atomic_in_cell_0))
    code, res = _integral_cases(tmp_path, capsys)
    assert code == 1 and res["verdict"] is False
    assert [c["vanishes_on_atomic_part"] for c in res["cases"]] == [True, False]
    for case in res["cases"]:
        assert abs(case["e1_norm"] - case["expected"]) <= 1e-12 and case["basis_match"]


def _lyapunov(tmp_path, capsys) -> tuple[int, dict]:
    return _run(tmp_path, capsys, {"kind": "lyapunov-exactness", "k": 2, "N": 2, "L": 2,
                                   "refinement": 3})


def test_lyapunov_membership_condition_fails_alone(tmp_path, capsys, monkeypatch):
    # the conditional set no longer admits the mixture's conditional expectation
    monkeypatch.setattr(ConditionalSet, "contains_function", lambda self, func: False)
    code, res = _lyapunov(tmp_path, capsys)
    assert code == 1 and res["verdict"] is False
    assert res["mixture_in_conditional_set"] is False
    assert res["mix_error"] <= 1e-12 and res["integral_error"] <= 1e-12


def test_lyapunov_integral_condition_fails_alone(tmp_path, capsys, monkeypatch):
    real = scenarios.integrate_selection
    monkeypatch.setattr(scenarios, "integrate_selection", lambda sel: real(sel) + 1e-9)
    code, res = _lyapunov(tmp_path, capsys)
    assert code == 1 and res["verdict"] is False
    assert res["integral_error"] > 1e-12
    assert res["mix_error"] <= 1e-12 and res["mixture_in_conditional_set"] is True


def _last_value(monkeypatch, name, calls, last):
    """Replace ``scenarios.<name>`` by the real function, except that its
    ``calls``-th call returns ``last(the values of the calls before it)``."""
    real, seen = getattr(scenarios, name), []

    def scripted(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        if len(seen) == calls:
            seen[-1] = last(seen[:-1])
        return seen[-1]

    monkeypatch.setattr(scenarios, name, scripted)


def test_convexity_monotone_condition_fails_alone(tmp_path, capsys, monkeypatch):
    # the level-2 gap rises 1e-4 above level 1's, and still passes final_tol
    _last_value(monkeypatch, "convexity_gap", 2, lambda gaps: gaps[-1] + 1e-4)
    code, res = _run(tmp_path, capsys, {"kind": "convexity-decay", "levels": [1, 2],
                                        "final_tol": 1})
    assert code == 1 and res["verdict"] is False
    assert res["monotone"] is False and res["final_gap"] < 1


def _uhc(tmp_path, capsys, final_tol) -> tuple[int, dict]:
    # the bundled check, whose semidistances in the weak topology fall
    check = scenarios.load_bundled("uhc-decay")["checks"][0]
    return _run(tmp_path, capsys, {**check, "final_tol": final_tol})


def test_uhc_monotone_condition_fails_alone(tmp_path, capsys, monkeypatch):
    # the last of the five semidistances rises 1e-4 above the one before
    _last_value(monkeypatch, "hausdorff_semidistance", 5, lambda sigmas: sigmas[-1] + 1e-4)
    code, res = _uhc(tmp_path, capsys, 1)
    assert code == 1 and res["verdict"] is False
    assert res["monotone"] is False and res["final"] < 1


def test_uhc_final_condition_fails_alone(tmp_path, capsys, monkeypatch):
    # the last semidistance, 0 in fact, read just above final_tol
    _last_value(monkeypatch, "hausdorff_semidistance", 5, lambda sigmas: 1.5e-6)
    code, res = _uhc(tmp_path, capsys, 1e-6)
    assert code == 1 and res["verdict"] is False
    assert res["monotone"] is True and res["final"] == 1.5e-6


def test_necessity_gap_fails_where_the_midpoint_is_attained(tmp_path, capsys):
    # at k = 1, N = 0 and L = 1 the midpoint is one of the cloud's three points
    code, res = _run(tmp_path, capsys, {"kind": "necessity-gap", "k": 1, "N": 0, "L": 1})
    assert code == 1 and res["verdict"] is False
    assert res["midpoint_gap"] == 0.0 and res["midpoint_present"] is True
