"""Check that two checkouts compute the same outputs on a fixed list of runs.

    python tools/same_outputs.py PARENT CHANGE [--grid N M]
                                 [--configs NAME ...]

PARENT and CHANGE are checkout roots (directories holding src/degcontrol).
Each config runs once per checkout through the CLI (`run --seed 0`), each
run in its own Python subprocess with PYTHONPATH=<checkout>/src and the
BLAS thread caps (OMP_NUM_THREADS and friends) set to 1.  For every
config the exit codes, the output file names, report.json without its
`timings` and every CSV byte for byte are compared, and one line per
config says `identical` or names what differs; a run that writes no
report.json counts as a difference.  Each file that differs is followed
by the largest relative difference of its numbers, position by position
(`inf` when the two files do not hold as many numbers); for report.json
it names the key where that difference is, as in `at
report.scales.1.0.terminal_l2` (list items by position).  A CSV adds its
drift on the parent's scale: the largest difference divided by the
largest magnitude in the parent's columns that moved, so that a value
near zero does not make a small move look large, and a column that never
moves, such as the time `t`, sets no scale.  Exits 1 on any difference,
0 when every config is identical.

--grid overrides every config's grid (a quick run); --configs picks a
subset of CONFIGS.  The benchmark's workloads and its guards take their
configs from perfbench/workloads.py of this tool's checkout, so that the
check runs exactly what the benchmark runs.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import WORKLOADS, guard_config  # noqa: E402


def _guard(guard: str, workload: str) -> dict:
    """The config of a guard as the benchmark runs it beside `workload`."""
    return guard_config(guard, WORKLOADS[workload]["config"]["grid"])


# config name -> scenario overrides; a "preset" entry starts from that
# preset of the checkout being run
CONFIGS = {
    "newton-desk": WORKLOADS["newton-desk"]["config"],
    "adjoint-sampling": WORKLOADS["adjoint-sampling"]["config"],
    "observability-alphas": {
        "grid": {"N": 32, "M": 64},
        "game": {"alpha1": 0.7, "alpha2": 0.3},
        "experiment": {"kind": "observability"},
    },
    "observability-unweighted": {
        "grid": {"N": 32, "M": 64},
        "game": {"jacobian_weighting": False},
        "experiment": {"kind": "observability"},
    },
    "guard-linear-control": _guard("linear-control", "newton-desk"),
    "linear-control-budget": {
        "grid": {"N": 32, "M": 64},
        "experiment": {"kind": "linear-control", "budget_limit": 1e-12},
    },
    "guard-nash": _guard("nash", "adjoint-sampling"),
    "linear-control-64x128": {
        "grid": {"N": 64, "M": 128},
        "experiment": {"kind": "linear-control"},
    },
    # an operator of 1.19M stored entries, where the band is filled at
    # scale
    "linear-control-128x256": {
        "grid": {"N": 128, "M": 256},
        "experiment": {"kind": "linear-control"},
    },
    # the shortest horizon at which the default alpha's solve passes at
    # this grid, where the weights span the most decades
    "linear-control-short-horizon": {
        "grid": {"N": 32, "M": 64},
        "geometry": {"T": 0.25},
        "experiment": {"kind": "linear-control"},
    },
    "linear-control-unweighted": {
        "grid": {"N": 32, "M": 64},
        "game": {"jacobian_weighting": False, "alpha1": 2.0, "mu2": 3.0},
        "experiment": {"kind": "linear-control"},
    },
    # the only nonlinear run with wt = l(t) in the constant part of the
    # Newton remainder
    "nonlinear-control-unweighted": {
        "grid": {"N": 32, "M": 64},
        "game": {"jacobian_weighting": False, "alpha1": 2.0, "mu2": 3.0},
        "experiment": {"kind": "nonlinear-control",
                       "scale_factors": [1.0, 3.0]},
    },
    "nonlinear-control-64x128": {
        "grid": {"N": 64, "M": 128},
        "experiment": {"kind": "nonlinear-control"},
    },
    "theorem1-small-data-64x128": {
        "preset": "theorem1-small-data",
        "grid": {"N": 64, "M": 128},
    },
    "prop2-mu-sweep": {
        "preset": "prop2-mu-sweep",
    },
    # a short horizon, where the targets' 1/rho0 profile spans the most
    # decades
    "nash-short-horizon": {
        "grid": {"N": 16, "M": 16},
        "geometry": {"T": 0.1},
        "experiment": {"kind": "nash"},
    },
    # the long Picard sweeps: small penalties, where the Nash loop takes
    # 34 sweeps and the adjoint sweep 15
    "nash-small-mu": {
        "grid": {"N": 32, "M": 64},
        "game": {"mu1": 3e-3, "mu2": 3e-3},
        "experiment": {"kind": "nash"},
    },
    "observability-small-mu": {
        "grid": {"N": 32, "M": 64},
        "game": {"mu1": 0.01, "mu2": 0.01},
        "experiment": {"kind": "observability"},
    },
    # the one F = 0 run of a kind that reads F
    "nash-f-zero": {
        "grid": {"N": 32, "M": 64},
        "nonlinearity": {"kappa1": 0.0, "kappa2": 0.0},
        "experiment": {"kind": "nash"},
    },
    "forward-leader": {
        "grid": {"N": 32, "M": 64},
        "experiment": {"kind": "forward", "h_amplitude": 0.5},
    },
    # the one run on the sinusoidal family
    "forward-sinusoidal": {
        "grid": {"N": 32, "M": 64},
        "geometry": {"family": "sinusoidal", "l0": 1.5, "k": 0.3, "w": 6.0},
        "experiment": {"kind": "forward"},
    },
    # the one run on the exponential family, and with b_exp apart from 2
    "nash-exponential": {
        "grid": {"N": 32, "M": 64},
        "geometry": {"family": "exponential", "k": 0.2, "b_exp": 3.0},
        "experiment": {"kind": "nash"},
    },
    # the one run with the windows and the bridge moved, all four windows
    # given
    "observability-moved-windows": {
        "grid": {"N": 32, "M": 64},
        "game": {"windows": {"O": [0.55, 0.8], "O1": [0.1, 0.2],
                             "O2": [0.85, 0.95], "Od": [0.5, 0.7]}},
        "carleman": {"alpha_p": 0.6, "beta_p": 0.7},
        "experiment": {"kind": "observability"},
    },
    # the one nash run with a leader source
    "nash-leader-source": {
        "grid": {"N": 32, "M": 64},
        "experiment": {"kind": "nash", "h_amplitude": 0.5},
    },
    # the one run where GameSpec.targets returns zero fields
    "nash-no-targets": {
        "grid": {"N": 32, "M": 64},
        "game": {"target_amplitude": 0.0},
        "experiment": {"kind": "nash"},
    },
    # the one convexity run with wt = l(t), in the Nash solves and the
    # second-derivative form
    "convexity-unweighted": {
        "grid": {"N": 32, "M": 64},
        "game": {"jacobian_weighting": False},
        "experiment": {"kind": "convexity"},
    },
    "diagnostics": {
        "grid": {"N": 32, "M": 64},
        "experiment": {"kind": "diagnostics"},
    },
    "mms-convergence": {
        "preset": "mms-convergence",
    },
    # the default (affine) domain, where the upwind drift is first order
    "mms-affine": {
        "experiment": {"kind": "mms-convergence"},
    },
}

_CLI = ("import sys; from degcontrol import cli; "
        "sys.exit(cli.main(sys.argv[1:]))")
_THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cli(checkout: Path, args: list,
         cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    env.update({cap: "1" for cap in _THREAD_CAPS})
    return subprocess.run([sys.executable, "-c", _CLI, *args], cwd=cwd,
                          env=env, capture_output=True, text=True)


def scenario(checkout: Path, name: str, grid, work: Path) -> dict:
    """The config `name` as run in `checkout`, with the grid override."""
    spec = copy.deepcopy(CONFIGS[name])
    preset = spec.pop("preset", None)
    if preset is not None:
        done = _cli(checkout, ["preset", preset], work)
        if done.returncode != 0:
            raise RuntimeError(f"{checkout}: preset {preset}: {done.stderr}")
        config = json.loads(done.stdout)
        for section, fields in spec.items():
            config[section].update(fields)
        spec = config
    if grid is not None:
        spec.setdefault("grid", {}).update({"N": grid[0], "M": grid[1]})
    return spec


def run(checkout: Path, name: str, grid, work: Path) -> tuple:
    """Runs one config in one checkout; returns (exit code, output dir)."""
    work.mkdir(parents=True)
    path = work / "config.in.json"
    path.write_text(json.dumps(scenario(checkout, name, grid, work)))
    out = work / "out"
    done = _cli(checkout, ["run", "--config", str(path), "--out", str(out),
                           "--seed", "0"], work)
    return done.returncode, out


def _report_text(path: Path) -> str:
    report = json.loads(path.read_text())
    report.pop("timings", None)
    return json.dumps(report, sort_keys=True)


def compare(a: Path, b: Path) -> list:
    """What differs between two output directories: [] when report.json
    (minus timings) and every CSV are the same and no file is missing.
    Runs that wrote no report.json (a failed run) compare as different."""
    names_a = {p.name for p in a.glob("*")} if a.is_dir() else set()
    names_b = {p.name for p in b.glob("*")} if b.is_dir() else set()
    diffs = [f"only in one run: {name}"
             for name in sorted(names_a ^ names_b)]
    if "report.json" not in names_a | names_b:
        diffs.append("no report.json in either run")
    for name in sorted(names_a & names_b):
        if name == "report.json":
            same = _report_text(a / name) == _report_text(b / name)
        elif name.endswith(".csv"):
            same = (a / name).read_bytes() == (b / name).read_bytes()
        else:
            continue
        if not same:
            diffs.append(name)
    return diffs


def _numbers(path: Path) -> list:
    """The (key, number) pairs of a report.json (without timings), or of
    a CSV with key None, in order.  A report number's key is its path of
    dictionary keys and list positions, joined by dots."""
    if path.name != "report.json":
        return [(None, x) for row in _rows(path) for x in row]
    numbers = []

    def walk(obj, key):
        if isinstance(obj, dict):
            for name in sorted(obj):
                walk(obj[name], f"{key}.{name}" if key else name)
        elif isinstance(obj, list):
            for i, item in enumerate(obj):
                walk(item, f"{key}.{i}")
        elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
            numbers.append((key, float(obj)))

    walk(json.loads(_report_text(path)), "")
    return numbers


def _rows(path: Path) -> list:
    """The rows of a CSV as lists of numbers, without its header."""
    rows = []
    for line in path.read_text().splitlines():
        try:
            rows.append([float(token) for token in line.split(",")])
        except ValueError:  # the header
            pass
    return rows


def _moved(xs: list, ys: list) -> list | None:
    """The positions at which two equally long number lists differ; None
    when the lists cannot be paired: their lengths differ, or one number
    is not finite where the other is (two NaNs count as equal)."""
    if len(xs) != len(ys):
        return None
    moved = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            return None
        moved.append(i)
    return moved


def _largest(a: Path, b: Path) -> tuple:
    """(largest |x - y| / max(|x|, |y|) over the numbers of two files,
    pair by pair, the key of a's number where it is); (inf, None) when
    they cannot be paired (see `_moved`), (0.0, None) when none moved."""
    keyed = _numbers(a)
    xs, ys = [x for _, x in keyed], [y for _, y in _numbers(b)]
    moved = _moved(xs, ys)
    if moved is None:
        return math.inf, None
    rel = [(abs(xs[i] - ys[i]) / max(abs(xs[i]), abs(ys[i])), keyed[i][0])
           for i in moved]
    return max(rel, key=lambda r: r[0], default=(0.0, None))


def drift(a: Path, b: Path) -> float:
    """Largest |x - y| / max(|x|, |y|) over the numbers of two files, pair
    by pair; inf when they cannot be paired (see `_moved`)."""
    return _largest(a, b)[0]


def scaled_drift(a: Path, b: Path) -> float:
    """Largest |x - y| over two CSVs, divided by the largest finite |x| of
    a, the parent, in the columns where some number moved; inf when the
    files cannot be paired column by column (see `_moved`)."""
    cols_a, cols_b = (list(zip(*_rows(path))) for path in (a, b))
    if len(cols_a) != len(cols_b):
        return math.inf
    worst = scale = 0.0
    for xs, ys in zip(cols_a, cols_b):
        moved = _moved(xs, ys)
        if moved is None:
            return math.inf
        if moved:
            worst = max(worst, max(abs(xs[i] - ys[i]) for i in moved))
            scale = max(scale, max(abs(x) for x in xs if math.isfinite(x)))
    if worst == 0.0:
        return 0.0
    return worst / scale if scale > 0.0 else math.inf


def _drift_note(a: Path, b: Path) -> str:
    largest, key = _largest(a, b)
    note = f"largest relative difference {largest:.1e}"
    if key is not None:
        note += f" at {key}"
    if a.suffix == ".csv":
        note += f", {scaled_drift(a, b):.1e} of the parent's scale"
    return note


def describe(a: Path, b: Path) -> list:
    """`compare(a, b)`, with each differing file's `drift`, for
    report.json the key where it is, and for a CSV its `scaled_drift`."""
    return [f"{name} ({_drift_note(a / name, b / name)})"
            if (a / name).is_file() and (b / name).is_file() else name
            for name in compare(a, b)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--grid", type=int, nargs=2, metavar=("N", "M"))
    parser.add_argument("--configs", nargs="+", choices=sorted(CONFIGS),
                        default=list(CONFIGS))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        differing = 0
        for name in args.configs:
            start = time.perf_counter()
            code_a, out_a = run(args.parent, name, args.grid,
                                Path(tmp, name, "parent"))
            code_b, out_b = run(args.change, name, args.grid,
                                Path(tmp, name, "change"))
            diffs = describe(out_a, out_b)
            if code_a != code_b:
                diffs.insert(0, f"exit code {code_a} != {code_b}")
            files = ", ".join(sorted(p.name for p in out_b.glob("*")
                                     if p.suffix == ".csv"
                                     or p.name == "report.json"))
            verdict = ("identical" if not diffs
                       else "DIFFERS: " + "; ".join(diffs))
            print(f"{name}: {verdict} (exit {code_b}; {files}; "
                  f"{time.perf_counter() - start:.1f} s)", flush=True)
            differing += bool(diffs)
    print(f"{len(args.configs) - differing} of {len(args.configs)} configs "
          "identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
