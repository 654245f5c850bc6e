"""Time a fixed list of runs in fresh single-thread processes and write
one ledger entry.

    python bench/run_bench.py OUT PARENT [--repeats K] [--grid N M]
                              [--configs NAME ...]

Each config runs K times in this script's checkout and K times in the
checkout PARENT, alternating between the two so that both sides see the
same host.  Every run is a fresh Python process with
PYTHONPATH=<checkout>/src and the BLAS thread caps (OMP_NUM_THREADS and
friends) set to 1 in its environment, so they hold before numpy loads.
The process times `harness.run_scenario` alone (wall seconds) and then
reads its peak RSS (`ru_maxrss`), which covers the interpreter, the
imports and the run.  Per config and checkout, OUT records the median
and every run of both figures, the error of a run that raised, and the
accuracy keys of its report.json: every number but its timings, keyed
as tools/same_outputs.py's drift check keys them.  OUT also records the
numpy and scipy versions, the Python version and nproc.  The ledger's files are named
BENCH_<n>.json at the repository root, one per change that backs a
figure with them.

CONFIGS are the observability kind at (64,128), (128,256) and (256,512)
and the two benchmark workloads, taken from tools/same_outputs.py so
that every figure sits next to a drift check of the same run.  --grid
overrides every config's grid (a quick run); --configs picks a subset.
Exits 1 when a run fails or writes no report, 0 otherwise.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from same_outputs import (  # noqa: E402
    _THREAD_CAPS, CONFIGS as SAME_OUTPUTS, _numbers)


def _observability(N: int, M: int) -> dict:
    return {"grid": {"N": N, "M": M}, "experiment": {"kind": "observability"}}


CONFIGS = {
    "observability-64x128": _observability(64, 128),
    "observability-128x256": SAME_OUTPUTS["observability-128x256"],
    "observability-256x512": _observability(256, 512),
    "newton-desk": SAME_OUTPUTS["newton-desk"],
    "adjoint-sampling": SAME_OUTPUTS["adjoint-sampling"],
}

# one run: argv[1] the config, argv[2] the output directory; prints one
# JSON line
_RUN = """\
import json, resource, sys, time
import numpy, scipy
from degcontrol import harness
start = time.perf_counter()
try:
    harness.run_scenario(json.loads(sys.argv[1]), sys.argv[2], seed=0)
    error = None
except Exception as exc:
    error = f"{type(exc).__name__}: {exc}"
wall = time.perf_counter() - start
print(json.dumps({
    "wall_s": wall,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "error": error, "package": harness.__file__,
    "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""


def run_once(checkout: Path, config: dict, out: Path) -> dict:
    """One run of `config` in a fresh process on `checkout`'s package:
    its wall time, peak RSS, error (None when it finished), accuracy keys
    and versions."""
    src = checkout.resolve() / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({cap: "1" for cap in _THREAD_CAPS})
    done = subprocess.run(
        [sys.executable, "-c", _RUN, json.dumps(config), str(out)],
        env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: run exited {done.returncode}: "
                           f"{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not Path(result.pop("package")).resolve().is_relative_to(src):
        raise RuntimeError(f"degcontrol was not imported from {src}")
    report = out / "report.json"
    result["accuracy"] = dict(_numbers(report)) if report.is_file() else None
    return result


def summary(runs: list) -> dict:
    """Medians and every run of one config on one checkout; the accuracy
    keys of its first run (every run takes seed 0) and the first error."""
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "wall_s_runs": [r["wall_s"] for r in runs],
        "peak_rss_mb_runs": [r["peak_rss_mb"] for r in runs],
        "error": next((r["error"] for r in runs if r["error"]), None),
        "accuracy": runs[0]["accuracy"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("parent", type=Path)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--grid", type=int, nargs=2, metavar=("N", "M"))
    parser.add_argument("--configs", nargs="+", choices=list(CONFIGS),
                        default=list(CONFIGS))
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    sides = {"change": ROOT, "parent": args.parent}
    entry = {"repeats": args.repeats, "configs": {}}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.configs:
            config = copy.deepcopy(CONFIGS[name])
            if args.grid is not None:
                config["grid"] = {"N": args.grid[0], "M": args.grid[1]}
            runs = {side: [] for side in sides}
            for i in range(args.repeats):
                # alternate which side runs first
                order = list(sides) if i % 2 == 0 else list(sides)[::-1]
                for side in order:
                    out = Path(tmp, name, side, str(i))
                    runs[side].append(run_once(sides[side], config, out))
            entry["configs"][name] = {"config": config, **{
                side: summary(side_runs) for side, side_runs in runs.items()}}
            for side, side_runs in runs.items():
                s = entry["configs"][name][side]
                failed |= s["error"] is not None or s["accuracy"] is None
                print(f"{name} [{side}]: wall {s['wall_s']:.3f} s, peak "
                      f"RSS {s['peak_rss_mb']:.1f} MB"
                      + (f", {s['error']}" if s["error"] else ""),
                      flush=True)
    first = runs["change"][0]
    entry["environment"] = {
        "python": platform.python_version(), "numpy": first["numpy"],
        "scipy": first["scipy"], "nproc": len(os.sched_getaffinity(0)),
        "threads": 1}
    args.out.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
