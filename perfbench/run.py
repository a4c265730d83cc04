"""corrint benchmark: seeded scenario workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload clouds --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload, one fresh process each

Each workload runs in a fresh worker process (``worker.py``), closed loop
with one client and no extra threads; numpy's BLAS pool is capped at the
number of CPUs this process may use.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run (``tracer.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of a run, with
the configs run, each report's sha256 and the environment, goes to
``perfbench/results/``; any config there replays with ``corrint run CONFIG``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

WORKER = HERE / "worker.py"
RESULTS = HERE / "results"

# A run must end within 180 s.
WORKER_TIMEOUT_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _scenario_layers() -> list[tracer.Layer]:
    """The check runners, labelled by kind, each required on the workloads running it."""
    on: dict[str, list[str]] = {}
    for w in workloads.WORKLOADS:
        for item in workloads.generate(w, 0):
            on.setdefault(item["config"]["checks"][0]["kind"], []).append(w)
    return [tracer.Layer("corrint.scenarios", "CHECKS", (f"scenarios.{kind}",),
                         tuple(ws)) for kind, ws in sorted(on.items())]


def per_layer() -> tuple[dict[str, str], dict[str, set[str]]]:
    """Every per-layer metric with its unit, and the metrics each workload must reach.

    ``tracer.LAYERS`` is the one table of them; BENCHMARK.json declares the same.
    """
    units: dict[str, str] = {}
    required: dict[str, set[str]] = {w: set() for w in workloads.WORKLOADS}
    for layer in _scenario_layers() + tracer.LAYERS:
        for name, unit in layer.metrics():
            units[name] = unit
            for w in layer.on:
                required[w].add(name)
    micro = ["kernels.micro.fwht_16384.s", "kernels.micro.min_dists_128x50k.s",
             "kernels.micro.exhaustive_6561.s"]
    units.update({name: "s" for name in micro})
    units.update({"tracing.overhead_s": "s", "failed_ratio": "1"})
    for names in required.values():
        names.update(micro)
    return units, required


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _check_declared(per_layer_units: dict[str, str]) -> None:
    """Fail when BENCHMARK.json declares other metrics than this benchmark reports."""
    path = Path.cwd() / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    for key, ours in (("end_to_end", dict(END_TO_END)), ("per_layer", per_layer_units)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != ours:
            diff = sorted(set(declared.items()) ^ set(ours.items()))
            raise BenchError(f"BENCHMARK.json {key} differs from the benchmark's: {diff}")


def _worker_env() -> dict[str, str]:
    cap = str(len(os.sched_getaffinity(0)))
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=cap, OMP_NUM_THREADS=cap, MKL_NUM_THREADS=cap,
        CORRINT_KERNELS="numpy", PYTHONHASHSEED="0",
    )
    # setup_s times imports from cached bytecode, as of an installed package,
    # whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _worker(args: list[str], timeout: float) -> dict:
    """Run a worker to its end and return its JSON result."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], capture_output=True,
                              text=True, timeout=timeout, env=_worker_env())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} ran past {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker {args} printed no result:\n{proc.stderr}") from exc


def _layer_values(res: dict, units: dict[str, str], required: set[str]) -> dict[str, dict]:
    """The per-layer metrics of a traced run; fails when a layer was not reached.

    A metric no layer of the workload reaches reads 0.  One the workload
    must reach and that reads 0 means a wrapped function was renamed or no
    longer called, so the run fails rather than report it.
    """
    if res["missing"]:
        raise BenchError(f"functions to trace not found in corrint: {res['missing']}")
    layers = res.pop("layers")
    layers["failed_ratio"] = res["failed_ratio"]
    unreached = sorted(n for n in required if not layers.get(n) and not n.endswith(".self_s"))
    if unreached:
        raise BenchError(f"{res['workload']}: layers not reached: {unreached}")
    return {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in units.items()}


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run the workload in a fresh worker process and keep its record."""
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{trace}"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        args += ["--spans", f"{stem}.spans.json"]
    res = _worker(args, WORKER_TIMEOUT_S)

    failed = len(res["failures"])
    res.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
               failed=failed, failed_ratio=failed / res["attempted"])
    if trace:
        units, required = per_layer()
        res["metrics"] = _layer_values(res, units, required[workload])
    else:
        res["metrics"] = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}
    Path(f"{stem}.json").write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
    return res


def _describe(res: dict) -> list[str]:
    """Human-readable lines for one workload's result."""
    w = res["workload"]
    cal = res["calibration_s"]
    lines = [
        f"{w}: seed {res['seed']}, {len(res['configs'])} scenarios, "
        f"failed_ratio {res['failed_ratio']:.4g} (1) = {res['failed']}/{res['attempted']}, "
        f"calibration {cal['start']:.4f} s -> {cal['end']:.4f} s"
    ]
    if not res["trace"]:
        passes = [sum(p.values()) for p in res["passes"]["untraced"]]
        notes = {"setup_s": f"fastest of {len(res['setup_s_samples'])} fresh interpreters "
                            f"spread over the run; median "
                            f"{statistics.median(res['setup_s_samples']):.4g} s",
                 "pass_s": f"fastest run of each scenario over {len(passes)} passes after "
                           f"one warm-up, summed; median pass {statistics.median(passes):.4g} s",
                 "peak_rss_mb": "worker process"}
        for name, m in res["metrics"].items():
            lines.append(f"  {name} = {m['value']:.6g} {m['unit']}  ({notes[name]})")
    else:
        for root, group in sorted(res["self_s_by_root"].items()):
            top = ", ".join(f"{k} {v:.3f}" for k, v in list(group.items())[:3])
            lines.append(f"  self s under {root}: {top}")
        overhead = res["metrics"]["tracing.overhead_s"]["value"]
        lines.append(f"  tracing.overhead_s = {overhead:.4g} s")
    for f in res["failures"][:5]:
        lines.append(f"  FAILED {f['scenario']}: {'; '.join(f['reasons'])}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (Path.cwd() / "src" / "corrint" / "__init__.py").is_file():
        print("run from the root of a corrint checkout (no src/corrint here)", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        _check_declared(per_layer()[0])
        results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for res in results:
        print("\n".join(_describe(res)))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
