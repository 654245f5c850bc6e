"""degcontrol benchmark: time to solution with accuracy guards, per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload newton-desk --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --smoke --trace 1

Every scenario run happens in a fresh single-process worker
(perfbench/worker.py) whose environment caps the BLAS thread pools before
its interpreter starts.  The load is a closed loop with one client: one
scenario at a time, as a researcher runs the batch tool.

--trace 0 measures the end-to-end metrics.  It runs the workload's
scenario repeatedly, one worker per repetition, at least MIN_REPS times,
and then stops starting new ones once another would overrun --seconds.
One more worker computes the accuracy guards outside any timed region.
setup_s and peak_rss_mb are medians over all these workers.

The host's speed drifts by up to 2x over seconds to minutes, which no
number of repetitions averages out, so each repetition's worker also
times passes of a fixed reference kernel (reference.py) for REFERENCE_S
seconds just before and just after its scenario.  wall_ref and cpu_ref
are the scenario's mean wall and CPU time over the repetitions, divided
by the mean time of one pass over the whole run: the scenario's cost in
reference passes.  The environment line lists the samples behind them,
with the wall and CPU times in seconds.

--trace 1 measures the per-layer metrics from pairs of one untraced and
one traced repetition, alternating which of the two runs first, at least
MIN_PAIRS pairs and then as many as fit in --seconds.  Layer times are
medians over the traced repetitions.  It checks that the report of every
repetition is identical and that the counters repeat exactly between the
traced ones.  The tracing overhead is the median over the pairs of
traced minus untraced wall time; trace.overhead_est_s, the cost of one
span on a no-op times the number of spans, is the figure to check it by.

--smoke shrinks every grid to 16 x 16 so that all code paths run in
seconds.  --workload all runs every workload in turn.  Each workload
prints a table of its metrics, an environment line, and a JSON result
line; the metric names and units must match BENCHMARK.json.  The exit
code is 0 when every output was correct, 1 when a check failed and 2
when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from worker import RESULT_PREFIX

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SCRATCH = ".perfbench_tmp"
MIN_REPS = 4
MIN_PAIRS = 2
# seconds of reference kernel on either side of a timed scenario
REFERENCE_S = 0.2
# the smoke run only has to cover the code paths
SMOKE_MIN_REPS = 2
SMOKE_REFERENCE_S = 0.01
WORKER_TIMEOUT_S = 170.0
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
ACCURACY_METRICS = {"terminal": "terminal_digits",
                    "reconstruction": "reconstruction_digits",
                    "nash_residual": "nash_residual_digits"}
# counters a later change may cite as exact counts
REPEATING = ("solvers.lu_factorizations", "nullcontrol.hum_lu_nnz",
             "nullcontrol.hum_unknowns", "nash.sweeps",
             "nullcontrol.newton_steps", "solvers.coupled_sweeps",
             "nullcontrol.cg_iterations")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ, **THREAD_CAPS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def run_worker(job: dict) -> dict:
    """Starts one worker on job, waits for it and returns its result."""
    job = dict(job, root=str(ROOT), spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
            capture_output=True, text=True, env=_worker_env(), cwd=ROOT,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout} s") from exc
    lines = [line for line in proc.stdout.splitlines()
             if line.startswith(RESULT_PREFIX)]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1][len(RESULT_PREFIX):])


class Run:
    """One workload run: its jobs share a scratch directory and a seed."""

    def __init__(self, workload: str, seed: int, smoke: bool, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.config = workloads.scenario_config(workload, smoke)
        self.scratch = scratch
        self.results: list = []
        self.errors: list = []

    def job(self, mode: str, trace: bool = False,
            reference_s: float = 0.0) -> dict:
        out = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=self.scratch))
        result = run_worker({
            "mode": mode, "trace": trace, "workload": self.workload,
            "config": self.config, "seed": self.seed, "out": str(out),
            "reference_s": reference_s,
            "guards": workloads.WORKLOADS[self.workload]["guards"]})
        shutil.rmtree(out, ignore_errors=True)
        self.results.append(result)
        if result.get("error"):
            self.errors.append(result["error"])
        return result

    def ops(self) -> tuple:
        ops = [ok for r in self.results for _, ok in r.get("ops", [])]
        return len(ops), sum(1 for ok in ops if not ok)

    def accuracy(self) -> dict:
        worst: dict = {}
        for r in self.results:
            for key, value in r.get("accuracy", {}).items():
                worst[key] = max(worst.get(key, 0.0), value)
        return worst


def repeat(step, minimum: int, seconds: float) -> list:
    """Calls step at least minimum times, then while another fits."""
    results, durations = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(step(len(results)))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if (len(results) >= minimum
                and elapsed + statistics.median(durations) > seconds):
            return results


def measure_end_to_end(run: Run, seconds: float) -> dict:
    reference_s = SMOKE_REFERENCE_S if run.smoke else REFERENCE_S
    reps = repeat(lambda i: run.job("rep", reference_s=reference_s),
                  SMOKE_MIN_REPS if run.smoke else MIN_REPS, seconds)
    check = run.job("check")
    passes = [t for r in reps for t in r["reference_passes_s"]]
    pass_s = statistics.fmean(passes)
    attempted, failed = run.ops()
    accuracy = run.accuracy()
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in run.results),
        "wall_ref": statistics.fmean(r["wall_s"] for r in reps) / pass_s,
        "cpu_ref": statistics.fmean(r["cpu_s"] for r in reps) / pass_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "passed_ops_frac": (attempted - failed) / attempted,
        "duality_digits": workloads.digits(check["duality"]),
    }
    for key, name in ACCURACY_METRICS.items():
        metrics[name] = workloads.digits(accuracy.get(key, float("nan")))
    info = dict(check["environment"], nproc=len(os.sched_getaffinity(0)),
                repetitions=len(reps), setup_samples=len(run.results),
                wall_s=statistics.fmean(r["wall_s"] for r in reps),
                cpu_s=statistics.fmean(r["cpu_s"] for r in reps),
                reference_pass_s=pass_s, reference_passes=len(passes),
                rep_wall_s=[round(r["wall_s"], 4) for r in reps],
                setup_samples_s=[round(r["setup_s"], 4) for r in run.results])
    return {"metrics": metrics, "info": info, "problems": []}


def measure_per_layer(run: Run, seconds: float) -> dict:
    def pair(i):
        order = (False, True) if i % 2 == 0 else (True, False)
        by_trace = {trace: run.job("rep", trace=trace) for trace in order}
        return by_trace[False], by_trace[True]

    pairs = repeat(pair, MIN_PAIRS, seconds)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    problems = []
    reports = {r["report"] for r in plain + traced}
    if len(reports) != 1 or None in reports:
        problems.append("report differs between untraced and traced runs")
    first = traced[0]["trace"]
    for name in REPEATING:
        values = [r["trace"][name] for r in traced]
        if len(set(values)) != 1:
            problems.append(f"{name} did not repeat: {values}")
    metrics = {}
    for name, value in first.items():
        if name.endswith("_s"):
            value = statistics.median(r["trace"][name] for r in traced)
        metrics[name] = value
    metrics["harness.output_bytes"] = traced[0]["output_bytes"]
    metrics["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in pairs)
    info = dict(plain[0]["environment"], nproc=len(os.sched_getaffinity(0)),
                pairs=len(pairs),
                untraced_wall_s=statistics.median(r["wall_s"] for r in plain),
                traced_wall_s=statistics.median(r["wall_s"] for r in traced))
    return {"metrics": metrics, "info": info, "problems": problems}


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found; run from the checkout root")
    return json.loads(path.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, spec: dict) -> dict:
    (ROOT / SCRATCH).mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / SCRATCH))
    try:
        run = Run(name, seed, smoke, scratch)
        if trace:
            measured = measure_per_layer(run, seconds)
        else:
            measured = measure_end_to_end(run, seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    problems = measured["problems"] + run.errors
    if set(declared) != set(measured["metrics"]):
        problems.append("metric names differ from BENCHMARK.json: "
                        + ", ".join(sorted(set(declared)
                                           ^ set(measured["metrics"]))))
    attempted, failed = run.ops()
    return {
        "workload": name, "info": measured["info"], "problems": problems,
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": declared.get(k, "?")}
                        for k, v in sorted(measured["metrics"].items())},
        },
    }


def print_workload(out: dict) -> None:
    print(f"== {out['workload']}")
    for name, m in out["result"]["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    for problem in out["problems"]:
        print(f"  PROBLEM: {problem}")
    print("environment " + json.dumps(out["info"], sort_keys=True))
    print(json.dumps(out["result"]), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="16 x 16 grids: every code path in seconds")
    args = parser.parse_args(argv)
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    try:
        if not (ROOT / "src" / "degcontrol" / "__init__.py").is_file():
            raise BenchError(f"no degcontrol sources under {ROOT / 'src'}; "
                             "run from the root of a checkout")
        spec = load_spec()
        correct = True
        for name in names:
            out = run_workload(name, args.seed, args.seconds,
                               bool(args.trace), args.smoke, spec)
            print_workload(out)
            correct = correct and out["result"]["correct"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
