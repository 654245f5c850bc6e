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
                     help="cap BLAS thread pools")
    run.add_argument("--deterministic", action="store_true",
                     help="single-threaded, fully seeded execution")

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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "deterministic", False):
        _set_threads(1)
    elif getattr(args, "threads", None):
        _set_threads(args.threads)

    # import after the thread caps so the pools honor them
    from . import harness
    from .nullcontrol import CGStagnationError, NewtonFailureError
    from .solvers import StepFailureError, SweepFailureError

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

    if args.command == "validate":
        try:
            config = harness.ScenarioConfig.from_json(args.config)
        except harness.ConfigError as exc:
            for issue in exc.issues:
                print(f"error: {issue}", file=sys.stderr)
            return EXIT_CONFIG
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        issues = harness.validate_config(config)
        if issues:
            for issue in issues:
                print(f"error: {issue}", file=sys.stderr)
            return EXIT_CONFIG
        print("config ok")
        return EXIT_OK

    # run
    try:
        if args.preset:
            config = harness.preset(args.preset)
        else:
            config = harness.ScenarioConfig.from_json(args.config)
        issues = harness.validate_config(config)
        if issues:
            raise harness.ConfigError(issues)
    except harness.ConfigError as exc:
        for issue in exc.issues:
            print(f"error: {issue}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        record = harness.run_scenario(config, args.out, seed=args.seed,
                                      deterministic=args.deterministic)
    except (StepFailureError, SweepFailureError, NewtonFailureError,
            CGStagnationError) as exc:
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
