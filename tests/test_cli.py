import contextlib
import io
import json
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrint.cli import main
from corrint.scenarios import PARAMS
from corrint.vectors import NORM_FLAVORS, TOPOLOGIES


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "corrint.cli", *args],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "e1-nonconvexity" in out
    assert len(out) == 12


def test_run_bundled_pass(capsys):
    assert main(["run", "--bundled", "walsh-orthogonality"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["checks"][0]["kind"] == "walsh-orthogonality"


def test_run_writes_report_and_csv(tmp_path, capsys):
    code = main([
        "lemma-bound", "--meshes", "3..4", "--trials", "20",
        "--out", str(tmp_path), "--emit-plot-data",
    ])
    capsys.readouterr()
    assert code == 0
    report = json.loads((tmp_path / "lemma-bound.json").read_text())
    assert report["pass"] is True
    csvs = list(tmp_path.glob("*.csv"))
    assert len(csvs) == 1
    header = csvs[0].read_text().splitlines()[0]
    assert header.startswith("mesh,")


def test_malformed_config_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": 1, "name": "x",\n  "checks": [}')
    code, out, err = run_cli(["run", str(bad)])
    assert code == 2
    assert "line" in err and "column" in err


def test_unknown_kind_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "name": "x", "seed": 0,
        "checks": [{"kind": "no-such-check"}],
    }))
    code, out, err = run_cli(["run", str(cfg)])
    assert code == 2


@pytest.mark.parametrize("checks", [
    ["oops"],
    [{"kind": "convexity-decay", "levels": []}],
    [{"kind": "lyapunov-exactness", "gamma": "1/0"}],
    # values of the wrong type or out of bounds
    [{"kind": "necessity-gap", "k": "two"}],
    [{"kind": "convexity-decay", "samples": "x"}],
    [{"kind": "tower-barycenter", "instances": "a"}],
    [{"kind": "game-nonexistence", "L": "3"}],
    [{"kind": "necessity-gap", "cap": "x"}],
    [{"kind": "convexity-decay", "levels": ["a"]}],
    [{"kind": "tower-barycenter", "tol": "x"}],
    [{"kind": "game-equilibrium", "max_iter": -1}],
    [{"kind": "rcd-mixture", "resolution": "4"}],
    [{"kind": "rcd-mixture", "d": 0}],
    [{"kind": "necessity-gap", "workspace": []}],
    [{"kind": "necessity-gap", "workspace": {"d": "x"}}],
    # a metric dimension other than the counterexample's k(N+1) = 6
    [{"kind": "necessity-gap", "workspace": {"d": 3, "norm": "sum"}}],
    [{"kind": "necessity-gap", "workspace": {"d": 7}}],
    # a misspelled choice or key, which no longer runs on defaults
    [{"kind": "game-equilibrium", "mode": "exhastive"}],
    [{"kind": "tower-barycenter", "instancse": 5}],
])
def test_malformed_check_exit_2(tmp_path, checks):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "name": "x", "seed": 0, "checks": checks}))
    code, out, err = run_cli(["run", str(cfg)])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("check", [
    {"kind": "lemma-bound", "kmax": 0},
    {"kind": "lemma-bound", "trials": "3"},
    {"kind": "lemma-bound", "k": True},
    {"kind": "lemma-bound", "meshes": []},
    {"kind": "lemma-bound", "meshes": "3..8"},
    {"kind": "lemma-bound", "meshes": [3, -1]},
    {"kind": "walsh-orthogonality", "level": -1},
    {"kind": "walsh-orthogonality", "max_index": 0},
    {"kind": "walsh-orthogonality", "level": 2, "max_index": 5},
])
def test_malformed_walsh_check_exit_2(tmp_path, check):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "name": "x", "seed": 0, "checks": [check]}))
    code, out, err = run_cli(["run", str(cfg)])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("check", [
    # refused before anything of that size is allocated
    {"kind": "lemma-bound", "meshes": [3, 70]},
    {"kind": "lemma-bound", "meshes": [10 ** 9]},
    {"kind": "lemma-bound", "meshes": [21], "kmax": 4},
    {"kind": "walsh-orthogonality", "level": 70},
    {"kind": "convexity-decay", "levels": [1, 40]},
    {"kind": "uhc-decay", "L": 40},
    {"kind": "rcd-mixture", "d": 1000000000000},
    {"kind": "counterexample-integrals", "L": 40},
    {"kind": "lyapunov-exactness", "refinement": 10 ** 8},
    {"kind": "game-equilibrium", "L": 40},
    {"kind": "game-nonexistence", "refinement": 10 ** 8},
])
def test_oversized_walsh_check_exit_3(tmp_path, check):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "name": "x", "seed": 0, "checks": [check]}))
    code, out, err = run_cli(["run", str(cfg)])
    assert code == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_python_dash_m_corrint_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "corrint", "run", "--bundled", "walsh-orthogonality"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["checks"][0]["kind"] == "walsh-orthogonality"


def test_capacity_exit_3(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "name": "x", "seed": 0,
        "checks": [{"kind": "necessity-gap", "k": 2, "gamma": "0",
                    "N": 2, "L": 3, "cap": 10}],
    }))
    code, out, err = run_cli(["run", str(cfg)])
    assert code == 3
    assert "6561" in err


def test_conditional_set_beyond_int64_exit_0(tmp_path):
    # 16 blocks of 35 averages each: 35**16 functions, past len()'s range
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "name": "x", "seed": 0,
        "checks": [{"kind": "lyapunov-exactness", "k": 3, "L": 4, "refinement": 4}],
    }))
    code, out, err = run_cli(["run", str(cfg)])
    assert code == 0
    assert "Traceback" not in err
    assert json.loads(out)["checks"][0]["conditional_set_size"] == 35 ** 16


def test_verdict_failure_exit_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "name": "x", "seed": 0,
        "checks": [{"kind": "uhc-decay", "k": 2, "gamma": "0", "N": 2,
                    "L": 2, "final_tol": 0.0}],
    }))
    code = main(["run", str(cfg)])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("gamma, profiles", [("0", 8 * 17 ** 3), ("1/4", 8 * 17 ** 3 + 17)])
def test_conditional_exhaustive_default_exit_1(tmp_path, capsys, gamma, profiles):
    # the cap counts each cell's 17**3 block profiles (and the atomic
    # atom's 17), not the 17**24 or 17**25 profiles of the whole space
    check = {"kind": "game-equilibrium", "externality": "conditional", "mode": "exhaustive",
             "gamma": gamma}
    cfg = tmp_path / "cfg.json"
    for cap, exit_code in ((profiles, 1), (profiles - 1, 3)):
        cfg.write_text(json.dumps({"schema": 1, "name": "x", "seed": 0,
                                   "checks": [{**check, "cap": cap}]}))
        assert main(["run", str(cfg)]) == exit_code
        out, err = capsys.readouterr()
        if exit_code == 1:
            assert json.loads(out)["pass"] is False
        else:
            assert out == "" and f"{profiles} profiles exceed cap" in err


def test_reports_are_byte_identical(tmp_path):
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        code, out, err = run_cli([
            "run", "--bundled", "rcd-mixture", "--out", str(d),
        ])
        assert code == 0
        outs.append((d / "rcd-mixture.json").read_bytes())
    assert outs[0] == outs[1]


def test_game_equilibrium_subcommand(capsys):
    code = main(["game-equilibrium", "--k", "2", "--gamma", "0", "--L", "3"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    chk = report["checks"][0]
    assert chk["partition_masses"] == ["1/3", "1/3", "1/3"]
    assert chk["residual"] < 1e-9


def test_game_equilibrium_config_file(tmp_path, capsys):
    cfg = tmp_path / "game.json"
    cfg.write_text(json.dumps({
        "mode": "br_iterate", "k": 2, "gamma": "0", "L": 3, "N": 2,
        "refinement": 3, "externality": "integral", "tol": 1e-9,
        "max_iter": 50, "seed": 0,
    }))
    code = main(["game-equilibrium", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_necessity_demo_coincide(capsys):
    code = main(["necessity-demo", "--k", "2", "--L", "3", "--coincide"])
    out = capsys.readouterr().out
    assert code == 0
    chk = json.loads(out)["checks"][0]
    assert chk["midpoint_present"] is False
    assert chk["midpoint_gap"] > 1e-9


def test_necessity_gap_non_dyadic_cloud_size(tmp_path, capsys):
    # the 3**9 selections at gamma = 1/3 have 1,071 distinct integrals,
    # counted exactly in Fractions; sums that float fuzz splits must merge
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "name": "x", "seed": 0,
        "checks": [{"kind": "necessity-gap", "k": 2, "gamma": "1/3", "N": 2, "L": 3}],
    }))
    code = main(["run", str(cfg)])
    chk = json.loads(capsys.readouterr().out)["checks"][0]
    assert code == 0
    assert chk["selections"] == 3 ** 9
    assert chk["cloud_size"] == 1071


def test_convexity_demo_small(capsys):
    # a truncated series still reports its gaps but cannot meet the
    # full-depth final tolerance, so the verdict exit code is 1
    code = main([
        "convexity-demo", "--levels", "1..3", "--samples", "32",
    ])
    out = capsys.readouterr().out
    assert code == 1
    chk = json.loads(out)["checks"][0]
    assert len(chk["series"]) == 3
    assert chk["monotone"] is True


def test_game_equilibrium_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "game.json"
    cfg.write_text(json.dumps({"L": 4}))
    code = main(["game-equilibrium", "--config", str(cfg), "--L", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["checks"][0]["L"] == 3


def test_game_equilibrium_coincide_defaults(capsys):
    # --coincide switches to the non-existence certificate at its own L=2
    code = main(["game-equilibrium", "--coincide"])
    chk = json.loads(capsys.readouterr().out)["checks"][0]
    assert code == 0
    assert chk["kind"] == "game-nonexistence"
    assert chk["L"] == 2


@pytest.mark.parametrize("argv", [
    ["convexity-demo", "--levels", "x"],
    ["lemma-bound", "--meshes", "x"],
])
def test_bad_range_flag_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


# -- fuzzed configs -------------------------------------------------------------

_SMALL = st.integers(-2, 4)
_JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.lists(_SMALL, max_size=2), st.dictionaries(st.text(max_size=2), _SMALL, max_size=2),
)
_RATIONAL = st.one_of(_SMALL, st.sampled_from(["1/4", "1/3", "3/4", "1/0", "x", "-1/2"]))


def _good(spec):
    """Small values of a parameter's own type."""
    if spec.type == "ints":
        return st.lists(_SMALL, max_size=3)
    if spec.type == "rationals":
        return st.lists(_RATIONAL, max_size=3)
    if spec.type == "rational":
        return _RATIONAL
    if spec.type == "choice":
        return st.sampled_from(spec.choices)
    if spec.type == "workspace":
        return st.fixed_dictionaries({}, optional={
            "d": _SMALL,
            "norm": st.sampled_from(NORM_FLAVORS),
            "topology": st.sampled_from(TOPOLOGIES),
        })
    return _SMALL


def _bad(spec):
    """Junk of other types, wrong list shapes and undeclared workspace keys."""
    out = st.one_of(_JUNK, st.lists(st.lists(_SMALL, max_size=2), min_size=1, max_size=2))
    if spec.type == "workspace":
        out |= st.fixed_dictionaries({"dd": _SMALL}, optional={"d": _JUNK, "norm": _JUNK})
    return out


def _check(kind, value, undeclared):
    # cap is always drawn small: a Minkowski fold step may build 64 x cap
    # rows, so at the default cap a small-int cloud check can take gigabytes
    table = PARAMS[kind]
    required = {"cap": value(table["cap"])} if "cap" in table else {}
    optional = {key: value(spec) for key, spec in table.items() if key != "cap"}
    if undeclared:
        optional["undeclared"] = _SMALL
    return st.fixed_dictionaries({"kind": st.just(kind), **required}, optional=optional)


def _mixed(spec):
    return st.one_of(_good(spec), _bad(spec))


# half the checks are well typed, so that many reach their runner
_CHECKS = st.one_of(
    [_check(kind, _good, False) for kind in PARAMS if kind != "determinism"]
    + [_check(kind, _mixed, True) for kind in PARAMS if kind != "determinism"]
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(check=_CHECKS, seed=st.one_of(_SMALL, _SMALL, _JUNK))
def test_fuzzed_configs_keep_exit_codes(check, seed):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1, "name": "x", "seed": seed, "checks": [check]}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(cfg)])
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert out.getvalue() == ""
        assert len(err.getvalue().strip().splitlines()) == 1
    else:
        assert json.loads(out.getvalue())["pass"] is (code == 0)


def _readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("corrint ") and "my-scenario.json" not in line]


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    # the documented examples run as written, so they cannot drift from the table
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) >= 7
    t0 = time.perf_counter()
    for argv in lines:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert time.perf_counter() - t0 < 5.0
