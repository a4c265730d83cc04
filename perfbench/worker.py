"""One workload in one fresh process: set up, run passes, check, report.

``run.py`` starts this script; it prints one JSON object as the last line of
its standard output.  With ``--setup-only`` it stops as soon as the first
scenario could start and reports that moment, so that set-up can be timed
from outside: an untraced run starts such fresh interpreters between its
passes, one at a time, and times each.

A pass runs every scenario of the workload once, closed loop with one
client: each scenario is ``run_scenario_dict``, ``strip_csv`` and
``render_report``, the calls ``corrint run CONFIG`` makes.  The first pass
warms caches and is not timed into ``pass_s``; passes then repeat while
another one, as long as the last, would end within ``--seconds`` of the
start of the first.  With ``--trace 1``
untraced and traced passes alternate, and the kernel micro-benchmarks run
last.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads


def _import_corrint(root: Path):
    """Import corrint from the checkout's ``src``, and from nowhere else."""
    pkg = root / "src" / "corrint"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"no corrint sources at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import corrint
    from corrint import scenarios

    if Path(corrint.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"imported corrint from {corrint.__file__}, not from {pkg}")
    return scenarios


# Fresh interpreters timed for setup_s in an untraced run, spread evenly over
# the run between passes, so that a host slow for some seconds moves few of
# them.
SETUP_PROBES = 24


def _probe_setup(argv: list[str]) -> float:
    """Seconds from starting a fresh interpreter until its first scenario could start.

    ``time.perf_counter`` reads the system-wide monotonic clock on Linux, so
    the probe's ``ready`` time and this start time are on one clock.
    """
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, __file__, *argv, "--setup-only"],
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["ready"] - started


def setup_seconds(samples: list[float]) -> float:
    """Set-up time undisturbed by other tenants: the fastest probe.

    Start-up of one interpreter moved between 0.13 s and 0.33 s within
    minutes on a shared two-CPU host; the fastest of many probes spread over
    the run is the estimate such phases disturb least.
    """
    return min(samples)


def _calibrate() -> float:
    """Seconds for a fixed interpreter loop; shows host drift beside the numbers."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class Runner:
    """Runs passes over a workload's scenarios and keeps their outcomes."""

    def __init__(self, scenarios, items: list[dict]):
        self.scenarios = scenarios
        self.items = items
        self.attempted = 0
        self.failures: list[dict] = []
        self.digests: dict[str, str] = {}

    def _operation(self, item: dict) -> float:
        """Run one scenario, record any failure, return its wall time."""
        sc = self.scenarios
        name = item["config"]["name"]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            report = sc.run_scenario_dict(item["config"])
            text = sc.render_report(sc.strip_csv(report))
        except Exception:  # a raising scenario is a failed operation, not a crash
            self.failures.append({"scenario": name, "reasons": ["raised"],
                                  "traceback": traceback.format_exc()})
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        reasons = []
        if report.get("pass") is not True:
            reasons.append("verdict false")
        check = (report.get("checks") or [{}])[0]
        for key, want in item["expect"].items():
            if check.get(key) != want:
                reasons.append(f"{key} is {check.get(key)!r}, expected {want!r}")
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests.setdefault(name, digest) != digest:
            reasons.append("report bytes differ from the first pass")
        if reasons:
            self.failures.append({"scenario": name, "reasons": reasons})
        return elapsed

    def run_pass(self) -> dict[str, float]:
        """One pass over every scenario: scenario name -> wall seconds."""
        return {item["config"]["name"]: self._operation(item) for item in self.items}


def pass_seconds(passes: list[dict[str, float]]) -> float:
    """Undisturbed time of one pass: each scenario's fastest run, summed.

    Other tenants of the host slow single runs by up to half, for seconds at
    a time; the fastest of several runs of a scenario is the estimate such
    bursts disturb least.
    """
    return sum(min(p[name] for p in passes) for name in passes[0])


def _fits(*last_passes: dict[str, float], deadline: float) -> bool:
    """Whether passes as long as the last ones would end by the deadline."""
    needed = sum(sum(p.values()) for p in last_passes)
    return time.perf_counter() + needed <= deadline


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _micro_benchmarks() -> dict[str, float]:
    """The kernel micro-benchmarks, each the median of several calls."""
    import numpy as np

    from corrint import _kernels
    from corrint.game import LargeGame, build_counterexample_game, find_equilibrium

    v = np.random.default_rng(1).normal(size=1 << 14)
    rng = np.random.default_rng(2)
    targets = rng.normal(size=(128, 6))
    cloud = rng.normal(size=(50_000, 6))
    weights = np.ones(6)
    game = build_counterexample_game(2, 0, 2, 2, refinement=4)
    game = LargeGame(f_alg=game.f_alg, t_alg=game.f_alg, actions=game.actions,
                     payoff=game.payoff, externality=game.externality)
    return {
        "kernels.micro.fwht_16384.s": _median_time(lambda: _kernels.fwht_f64(v), 25),
        "kernels.micro.min_dists_128x50k.s": _median_time(
            lambda: _kernels.min_dists(targets, cloud, _kernels.MODE_EUCLID, weights), 3),
        "kernels.micro.exhaustive_6561.s": _median_time(
            lambda: find_equilibrium(game, mode="exhaustive", cap=10 ** 7), 3),
    }


def _layer_metrics(tracer, traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-pass means of every span total and counter of the traced passes."""
    n = len(traced)
    out = {}
    for label, (incl, self_s, calls) in tracer.summary().items():
        out[f"{label}.s"] = incl / n
        out[f"{label}.self_s"] = self_s / n
        out[f"{label}.calls"] = calls / n
    for name, value in tracer.counts.items():
        out[name] = value / n
    rows_in = out.get("set_integration.dedup_points.rows_in", 0)
    if rows_in:
        out["set_integration.dedup_points.ratio"] = (
            out["set_integration.dedup_points.rows_out"] / rows_in)
    out["tracing.overhead_s"] = pass_seconds(traced) - pass_seconds(untraced)
    return out


def _environment() -> dict:
    import numpy as np

    from corrint import _kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_path": _kernels.KERNEL_PATH,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the traced spans (with --trace 1)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    scenarios = _import_corrint(Path.cwd())
    items = workloads.generate(args.workload, args.seed)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    calibration_start = _calibrate()
    runner = Runner(scenarios, items)
    start = time.perf_counter()
    deadline = start + args.seconds
    warmup = runner.run_pass()
    untraced: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    result: dict = {}
    if args.trace:
        from tracer import Tracer

        # alternate untraced and traced passes, so that host drift during
        # the run lands on both sides of tracing.overhead_s alike
        tracer = Tracer()
        while not traced or _fits(untraced[-1], traced[-1], deadline=deadline):
            untraced.append(runner.run_pass())
            tracer.install()
            try:
                traced.append(runner.run_pass())
            finally:
                tracer.uninstall()
        result["layers"] = {**_layer_metrics(tracer, traced, untraced),
                            **_micro_benchmarks()}
        result["self_s_by_root"] = {
            root: {k: v / len(traced) for k, v in sorted(group.items(), key=lambda kv: -kv[1])}
            for root, group in tracer.self_by_root().items()
        }
        result["missing"] = tracer.missing
        result["tracing_spans"] = len(tracer.spans) / len(traced)
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.dump()))
    else:
        probe_argv = ["--workload", args.workload, "--seed", str(args.seed)]
        setup: list[float] = []
        while not untraced or _fits(untraced[-1], deadline=deadline):
            untraced.append(runner.run_pass())
            due = SETUP_PROBES * (time.perf_counter() - start) / args.seconds
            while len(setup) < min(due, SETUP_PROBES):
                setup.append(_probe_setup(probe_argv))
        while len(setup) < SETUP_PROBES:
            setup.append(_probe_setup(probe_argv))
        result["setup_s_samples"] = setup
        result["setup_s"] = setup_seconds(setup)
    calibration_end = _calibrate()

    result.update({
        "ready": ready,
        "passes": {"warmup": warmup, "untraced": untraced, "traced": traced},
        "pass_s": pass_seconds(untraced),
        "attempted": runner.attempted,
        "failures": runner.failures,
        "report_sha256": runner.digests,
        "configs": [item["config"] for item in items],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calibration_s": {"start": calibration_start, "end": calibration_end},
        "environment": _environment(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
