"""Command-line entry point.

Subcommands: run, validate, preset, list.  Exit codes: 0 ok, 2 config
error, 3 solver error, 4 budget violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_BUDGET = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degcontrol",
        description="Hierarchical control experiments for a degenerate "
                    "parabolic equation on a moving domain")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", metavar="PATH", help="JSON scenario config")
    src.add_argument("--preset", metavar="NAME", help="named preset")
    run.add_argument("--out", metavar="DIR", default="runs/latest",
                     help="output directory (default: runs/latest)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--threads", type=int, default=None,
                     metavar="N", help="cap the BLAS thread pools at N")

    val = sub.add_parser("validate", help="validate a config file")
    val.add_argument("--config", metavar="PATH", required=True)

    pre = sub.add_parser("preset", help="print a preset config as JSON")
    pre.add_argument("name")
    pre.add_argument("--out", metavar="PATH", default=None,
                     help="write to a file instead of stdout")

    sub.add_parser("list", help="list presets and experiment kinds")
    return parser


def _set_threads(n: int) -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def _print_issues(issues) -> None:
    for issue in issues:
        print(f"error: {issue}", file=sys.stderr)


def _load(harness, args):
    """The config of --preset or --config, or None once the reason it
    cannot be loaded is printed."""
    try:
        if getattr(args, "preset", None):
            return harness.preset(args.preset)
        return harness.ScenarioConfig.from_json(args.config)
    except harness.ConfigError as exc:
        _print_issues(exc.issues)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
    return None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    threads = getattr(args, "threads", None)
    if threads is not None:
        if threads < 1:
            print(f"error: --threads must be at least 1, got {threads}",
                  file=sys.stderr)
            return EXIT_CONFIG
        _set_threads(threads)

    # import after the thread caps so the pools honor them
    from . import harness
    from .solvers import SolverError

    if args.command == "list":
        print("presets:")
        for name in harness.list_presets():
            print(f"  {name}")
        print("experiment kinds:")
        for kind in harness.KINDS:
            print(f"  {kind}")
        return EXIT_OK

    if args.command == "preset":
        try:
            config = harness.preset(args.name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return EXIT_CONFIG
        text = config.to_json(args.out)
        if args.out is None:
            print(text)
        return EXIT_OK

    config = _load(harness, args)
    if config is None:
        return EXIT_CONFIG
    if args.command == "validate":
        issues = harness.validate_config(config)
        _print_issues(issues)
        if issues:
            return EXIT_CONFIG
        print("config ok")
        return EXIT_OK

    # run_scenario validates the config as it builds the run
    try:
        record = harness.run_scenario(config, args.out, seed=args.seed)
    except harness.ConfigError as exc:
        _print_issues(exc.issues)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        # a config that validation let through but the model rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    print(f"kind: {record.kind}")
    print(f"config hash: {record.config_hash}  seed: {record.seed}")
    print(f"wall time: {record.timings.get('total_s', 0.0):.3f} s")
    for line in json.dumps(record.report, indent=2,
                           sort_keys=True).splitlines():
        print(f"  {line}")
    print(f"outputs in {args.out}: {', '.join(record.outputs)}")
    if record.report.get("budget_exceeded"):
        print("budget limit exceeded", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
