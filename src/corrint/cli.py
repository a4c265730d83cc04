"""Command-line interface: scenario runner plus thin demo subcommands.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 configuration or
parse error, 3 capacity exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import CapacityError, ConfigError, CorrintError
from .scenarios import (
    PARAMS,
    SEED,
    bundled_names,
    extract_csv_tables,
    load_bundled,
    render_report,
    run_scenario_dict,
    strip_csv,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3


def _emit(report: dict, out_dir: str | None, emit_plot_data: bool) -> None:
    tables = extract_csv_tables(report) if emit_plot_data else {}
    text = render_report(strip_csv(report))
    sys.stdout.write(text)
    out = Path(out_dir or ".")
    if out_dir:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{report['name']}.json").write_text(text)
    for fname, body in tables.items():
        (out / fname).write_text(body)


def _run(config: dict, args) -> int:
    report = run_scenario_dict(config)
    _emit(report, args.out, args.emit_plot_data)
    return EXIT_OK if report["pass"] else EXIT_VERDICT


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigError(f"{path}: {exc}") from exc


# demo subcommand -> (check kind, kind under --coincide or None, help, flags);
# a flag names a parameter of the kind, or is "seed" or "config"
DEMOS = {
    "convexity-demo": ("convexity-decay", None, "integral-cloud gap decay series",
                       "k gamma N L seed cap levels samples"),
    "lyapunov-mix": ("lyapunov-exactness", None, "exact conditional-expectation mixing",
                     "k gamma N L refinement cap"),
    "necessity-demo": ("necessity-gap", "necessity-gap", "midpoint-absence certificate",
                       "k gamma N L cap"),
    "uhc-demo": ("uhc-decay", None, "semidistance decay of truncations", "k gamma N L cap"),
    "game-equilibrium": ("game-equilibrium", "game-nonexistence",
                         "best-response equilibrium run",
                         "k gamma N L refinement seed cap mode externality tol max_iter config"),
    "lemma-bound": ("lemma-bound", None, "weighted Walsh sum vs 4*d0", "k seed meshes trials"),
    "rcd-check": ("rcd-mixture", None, "kernel mixture realization check", "resolution"),
}


def _add_demo(subs, command: str) -> None:
    """A demo subcommand; its flags default to None, so the check table's defaults hold."""
    kind, coincide_kind, help_text, flags = DEMOS[command]
    sub = subs.add_parser(command, help=help_text)
    for flag in flags.split():
        if flag == "config":
            sub.add_argument("--config", help="JSON file with check fields; flags override")
            continue
        spec = SEED if flag == "seed" else PARAMS[kind][flag]
        sub.add_argument("--" + flag.replace("_", "-"),
                         type={"int": int, "real": float}.get(spec.type),
                         choices=spec.choices or None, help=spec.doc)
    if coincide_kind:
        sub.add_argument("--coincide", action="store_true", default=None,
                         help="run with the strategy algebra equal to the characteristic "
                              f"algebra: the {coincide_kind} check")
    sub.add_argument("--out", default=None, help="directory for the report and CSVs")
    sub.add_argument("--emit-plot-data", action="store_true",
                     help="write series tables as CSV")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="corrint",
        description="Exact desk-scale set-valued integration toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="run a scenario config (JSON, schema 1)")
    grp = run_p.add_mutually_exclusive_group(required=True)
    grp.add_argument("config", nargs="?", help="path to a scenario JSON file")
    grp.add_argument("--bundled", help="name of a bundled scenario")
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--emit-plot-data", action="store_true")

    subs.add_parser("list-scenarios", help="list bundled scenario names")
    for command in DEMOS:
        _add_demo(subs, command)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except CorrintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _parse_range(flag: str, spec: str) -> list[int]:
    """``lo..hi`` or a comma-separated list of integers."""
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(x) for x in spec.split(",") if x]
    except ValueError:
        raise ConfigError(f"--{flag}: expected lo..hi or a comma-separated list of "
                          f"integers, got {spec!r}") from None


def _dispatch(args) -> int:
    if args.command == "list-scenarios":
        print("\n".join(bundled_names()))
        return EXIT_OK
    if args.command == "run":
        config = load_bundled(args.bundled) if args.bundled \
            else _load_config_file(args.config)
        return _run(config, args)
    # a demo: the flags given override the --config file, and both override
    # the check table's defaults
    kind, coincide_kind, _, flags = DEMOS[args.command]
    check = _load_config_file(args.config) if getattr(args, "config", None) else {}
    if not isinstance(check, dict):
        raise ConfigError(f"{args.config}: expected a JSON object")
    for flag in flags.split() + ["coincide"]:
        value = getattr(args, flag, None)
        if value is not None and flag != "config":
            ints = flag in PARAMS[kind] and PARAMS[kind][flag].type == "ints"
            check[flag] = _parse_range(flag, value) if ints else value
    coincide = check.pop("coincide", False)
    if not isinstance(coincide, bool):
        raise ConfigError(f"'coincide' must be true or false, got {coincide!r}")
    check = {key: v for key, v in check.items() if v is not None}
    check["kind"] = coincide_kind if coincide else kind
    scenario = {"schema": 1, "name": args.command, "seed": check.pop("seed", 0),
                "checks": [check]}
    return _run(scenario, args)


if __name__ == "__main__":
    sys.exit(main())
