"""tower-barycenter against its per-instance form, its memory, the tower
draws, and negative controls for the verdicts of tower-barycenter,
rcd-mixture, lemma-bound, walsh-orthogonality, counterexample-integrals,
lyapunov-exactness, convexity-decay and uhc-decay.

tower-barycenter runs its instances as disjoint unions of up to
``TOWER_BATCH``; ``_oracles.tower_barycenter_loop`` is the check as it was
written, one small space per instance.  A negative control injects one
fault through a monkeypatch and shows the verdict false and the exit code
1, so a check whose condition stopped deciding anything would fail here.
"""
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from _oracles import tower_barycenter_loop
from corrint import game, scenarios
from corrint.cli import main
from corrint.correspondences import StepFunction
from corrint.rcd import TransitionKernel
from corrint.set_integration import ConditionalSet


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
    # _tower_union draws each instance's picks in one call; on default_rng
    # that gives the values of one scalar draw per atom and leaves the
    # generator where they leave it
    for n in range(1, 20):
        loop, vector = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
        picks = vector.integers(0, 3, n)
        assert picks.dtype == np.int64
        assert picks.tolist() == [int(loop.integers(0, 3)) for _ in range(n)]
        assert vector.integers(0, 1 << 62, 3).tolist() == loop.integers(0, 1 << 62, 3).tolist()


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
    # f_1 read on its first cell wherever it is evaluated, so it no longer
    # vanishes on the atomic part [0, gamma]
    monkeypatch.setattr(StepFunction, "eval_at", lambda self, l: self.values[0].copy())
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
