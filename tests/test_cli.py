import json
import subprocess
import sys

import pytest

from corrint.cli import main


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
