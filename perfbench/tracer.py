"""Outside-in tracer: wraps corrint's public functions from the benchmark.

Nothing under ``src/`` knows about it.  ``install`` replaces each function
listed in ``LAYERS`` with a wrapper, in every ``corrint.*`` module that
binds the same function object (``scenarios.py`` imports functions by
name, and ``scenarios.CHECKS`` maps kinds to runners), and ``uninstall``
puts the originals back.

A timed wrapper records a span ``[label, start, end, parent]`` in memory;
self time is a span's duration minus that of its child spans.  Hot scalar
functions are only counted, because a span per call would cost more than
the call.  Labels follow ``<module>.<function>``; the kernel module is
labelled ``kernels`` because metric names may not start with ``_``.
"""
from __future__ import annotations

import functools
import sys
import time
from typing import Callable, NamedTuple

from workloads import WORKLOADS


def _kind_label(kind: str) -> str:
    return f"scenarios.{kind}"


def _find_equilibrium_label(args, kwargs) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "br_iterate")
    return "game.find_equilibrium." + ("br" if mode == "br_iterate" else "exhaustive")


def _on_min_dists(tr, args, kwargs, out):
    targets, cloud = args[0], args[1]
    pairs = targets.shape[0] * cloud.shape[0]
    tr.count("kernels.min_dists.pairs", pairs)
    tr.count("kernels.min_dists.bytes_computed", pairs * cloud.shape[1] * 8)


def _on_find_equilibrium(tr, args, kwargs, out):
    if _find_equilibrium_label(args, kwargs).endswith(".br"):
        tr.count("game.br_iterations", out[1].iterations)


def _on_dedup(tr, args, kwargs, out):
    tr.count("set_integration.dedup_points.rows_in", len(args[0]))
    tr.count("set_integration.dedup_points.rows_out", len(out))


def _count_len(name: str, arg: int | None = None):
    """Hook counting ``len`` of the result, or of positional argument ``arg``."""
    return lambda tr, args, kwargs, out: tr.count(name, len(out if arg is None else args[arg]))


class Layer(NamedTuple):
    """One wrapped function of corrint and the per-layer metrics it yields.

    ``labels`` are the span labels it records: the only one, or the one
    ``pick(args, kwargs)`` names.  ``hook(tracer, args, kwargs, result)``
    runs after each call and records the ``counters``, given as
    (metric name, unit).  ``calls`` adds ``<label>.calls``; an untimed layer
    is only counted, because a span per call would cost more than the call.
    ``on`` names the workloads that must reach the layer, so that a wrapped
    function renamed in corrint fails the traced run instead of reading 0.
    """
    module: str
    attr: str
    labels: tuple[str, ...]
    on: tuple[str, ...]
    hook: Callable | None = None
    counters: tuple[tuple[str, str], ...] = ()
    calls: bool = False
    timed: bool = True
    pick: Callable | None = None

    def metrics(self) -> list[tuple[str, str]]:
        """(name, unit) of every metric this layer yields."""
        out = []
        for label in self.labels:
            if self.timed:
                out += [(f"{label}.s", "s"), (f"{label}.self_s", "s")]
            if self.calls or not self.timed:
                out.append((f"{label}.calls", "count"))
        return out + list(self.counters)


ALL = WORKLOADS

LAYERS = [
    Layer("corrint.scenarios", "render_report", ("scenarios.render_report",), ALL,
          _count_len("scenarios.render_report.bytes"),
          (("scenarios.render_report.bytes", "B"),)),
    Layer("corrint.set_integration", "aumann_integral_set",
          ("set_integration.aumann_integral_set",), ("clouds",),
          _count_len("set_integration.aumann_integral_set.points"),
          (("set_integration.aumann_integral_set.points", "count"),)),
    Layer("corrint.set_integration", "dedup_points", ("set_integration.dedup_points",),
          ("clouds", "exact"), _on_dedup,
          (("set_integration.dedup_points.rows_in", "count"),
           ("set_integration.dedup_points.rows_out", "count"),
           ("set_integration.dedup_points.ratio", "1"))),
    Layer("corrint.set_integration", "convexity_gap", ("set_integration.convexity_gap",),
          ("clouds",)),
    Layer("corrint.set_integration", "hausdorff_semidistance",
          ("set_integration.hausdorff_semidistance",), ("clouds",)),
    Layer("corrint.set_integration", "conditional_set", ("set_integration.conditional_set",),
          ("exact",), _count_len("set_integration.conditional_set.functions"),
          (("set_integration.conditional_set.functions", "count"),)),
    Layer("corrint.set_integration", "lyapunov_mix", ("set_integration.lyapunov_mix",),
          ("exact",)),
    Layer("corrint.set_integration", "conditional_expectation",
          ("set_integration.conditional_expectation",), ("exact",)),
    Layer("corrint._kernels", "min_dists", ("kernels.min_dists",), ("clouds", "exact"),
          _on_min_dists,
          (("kernels.min_dists.pairs", "count"), ("kernels.min_dists.bytes_computed", "B")),
          calls=True),
    Layer("corrint._kernels", "exhaustive_scan", ("kernels.exhaustive_scan",), ("game",),
          lambda tr, a, k, out: tr.count("kernels.exhaustive_scan.profiles", a[0] ** len(a[1])),
          (("kernels.exhaustive_scan.profiles", "count"),)),
    Layer("corrint._kernels", "payoff_table", ("kernels.payoff_table",), ("game",), calls=True),
    Layer("corrint._kernels", "fwht_f64", ("kernels.fwht",), ("exact",),
          _count_len("kernels.fwht.points", 0), (("kernels.fwht.points", "count"),)),
    Layer("corrint._kernels", "fwht_i64", ("kernels.fwht",), ("exact",),
          _count_len("kernels.fwht.points", 0), (("kernels.fwht.points", "count"),)),
    Layer("corrint.game", "find_equilibrium",
          ("game.find_equilibrium.br", "game.find_equilibrium.exhaustive"), ("game",),
          _on_find_equilibrium, (("game.br_iterations", "count"),),
          pick=_find_equilibrium_label),
    Layer("corrint.game", "residual_of", ("game.residual_of",), ("game",), calls=True),
    Layer("corrint.game", "verify_equilibrium_partition",
          ("game.verify_equilibrium_partition",), ("game",)),
    Layer("corrint.game", "lemma_bound_check", ("game.lemma_bound_check",), ("exact",),
          calls=True),
    Layer("corrint.walsh", "walsh_integer_spectrum", ("walsh.walsh_integer_spectrum",),
          ("exact",), calls=True),
    Layer("corrint.walsh", "walsh_sign_on_cell", ("walsh.walsh_sign_on_cell",), ALL,
          timed=False),
    Layer("corrint.spaces", "DiscreteSpace.mass", ("spaces.DiscreteSpace.mass",), ALL,
          calls=True),
    Layer("corrint.spaces", "DiscreteSpace.mass_of", ("spaces.DiscreteSpace.mass_of",),
          ("exact",), timed=False),
    # only generic payoffs call it, and no workload has one: it reads 0
    # until a change routes the counterexample game through it
    Layer("corrint.spaces", "SigmaPartition.block_index_of",
          ("spaces.SigmaPartition.block_index_of",), (), timed=False),
    Layer("corrint.correspondences", "build_counterexample",
          ("correspondences.build_counterexample",), ALL, calls=True),
    Layer("corrint.correspondences", "block_choice_sets",
          ("correspondences.block_choice_sets",), ("clouds", "exact")),
    Layer("corrint.rcd", "rcd_of_selection", ("rcd.rcd_of_selection",), ("exact",)),
    Layer("corrint.rcd", "kernel_mix", ("rcd.kernel_mix",), ("exact",)),
]


class Tracer:
    """Spans and counters of one traced stretch of a run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _timed(self, fn, label, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None])
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if hook is not None:
                hook(self, args, kwargs, out)
            return out
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def _rebind(self, original, new) -> None:
        """Point every corrint module binding of ``original`` at ``new``,
        including values of module-level dicts such as ``CHECKS``."""
        for modname, mod in list(sys.modules.items()):
            if modname != "corrint" and not modname.startswith("corrint."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patch(mod, attr, new)
                elif isinstance(val, dict) and not attr.startswith("__"):
                    for key, item in list(val.items()):
                        if item is original:
                            self._patch(val, key, new)

    def install(self) -> None:
        """Wrap every function of ``LAYERS`` and every check runner."""
        self.missing = []
        scenarios = sys.modules["corrint.scenarios"]
        for kind, runner in list(scenarios.CHECKS.items()):
            self._rebind(runner, self._timed(runner, _kind_label(kind), None))
        for layer in LAYERS:
            mod = sys.modules.get(layer.module)
            owner_name, _, fn_name = layer.attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, fn_name, None)
            if original is None:
                self.missing.append(f"{layer.module}.{layer.attr}")
                continue
            if getattr(original, "__wrapped__", None) is not None:
                continue  # a second binding of a function wrapped above
            if layer.timed:
                new = self._timed(original, layer.pick or layer.labels[0], layer.hook)
            else:
                new = self._counted(original, layer.labels[0] + ".calls")
            if owner_name:
                self._patch(owner, fn_name, new)
            else:
                self._rebind(original, new)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _self_seconds(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, list]:
        """label -> [inclusive seconds, self seconds, calls].

        Inclusive time counts only the outermost span of a label, so a
        function reached again below itself is not counted twice.
        """
        spans = self.spans
        totals: dict[str, list] = {}
        for (name, start, end, parent), own in zip(spans, self._self_seconds()):
            row = totals.setdefault(name, [0.0, 0.0, 0])
            q = parent
            while q is not None and spans[q][0] != name:
                q = spans[q][3]
            if q is None:
                row[0] += end - start
            row[1] += own
            row[2] += 1
        return totals

    def self_by_root(self) -> dict[str, dict[str, float]]:
        """Self seconds of every label, grouped by the root span it ran under."""
        spans = self.spans
        root = [0] * len(spans)
        out: dict[str, dict[str, float]] = {}
        for i, ((name, _, _, parent), own) in enumerate(zip(spans, self._self_seconds())):
            root[i] = i if parent is None else root[parent]
            group = out.setdefault(spans[root[i]][0], {})
            group[name] = group.get(name, 0.0) + own
        return out

    def dump(self) -> dict:
        """Spans in compact form: labels once, then [label index, start, end, parent]."""
        labels: dict[str, int] = {}
        rows = []
        for name, start, end, parent in self.spans:
            rows.append([labels.setdefault(name, len(labels)), start, end, parent])
        return {"labels": list(labels), "spans": rows, "counts": dict(self.counts)}
