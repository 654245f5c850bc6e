"""One benchmark worker: a fresh single-process interpreter per job.

The parent starts it with the BLAS thread caps already in its
environment and writes one JSON job to its standard input.  The worker
imports degcontrol, builds and validates the scenario config, and from
that point counts as ready.  A "rep" job runs the scenario once,
untraced or traced, timing only the call to run_scenario, and then checks
its outputs.  An untraced rep also times passes of the reference kernel
(perfbench/reference.py) for reference_s seconds just before and just
after the scenario.  A "check" job computes, outside
any timed region, the weighted-transpose duality mismatch on the
workload's grid and runs the guard scenarios, on that grid or a coarser
one (workloads.GUARD_GRID).  The worker prints one
result line prefixed with RESULT_PREFIX.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path

RESULT_PREFIX = "PERFBENCH-RESULT "


def _threads() -> int:
    """Threads of this process after a BLAS call, from /proc/self/status."""
    import numpy as np

    a = np.ones((256, 256))
    float((a @ a)[0, 0])
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def _environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "threads": _threads()}


def _run(harness, config, seed, out_dir: Path):
    """Runs one scenario; returns the error it raised, or None."""
    try:
        harness.run_scenario(config, out_dir, seed=seed)
    except Exception as exc:  # an operation that raised is a failed one
        return f"{type(exc).__name__}: {exc}"
    return None


def _check(workloads, name, config, out_dir: Path, error):
    """Checks a finished scenario; returns (ops, accuracy, report, error)."""
    if error is None:
        try:
            report = json.loads(
                (out_dir / "report.json").read_text())["report"]
            ops, accuracy = workloads.check_scenario(name, config, report,
                                                     out_dir)
            return ops, accuracy, json.dumps(report, sort_keys=True), None
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    return [("scenario", False)], {}, None, error


def _duality(config: dict, seed: int, pairs: int = 3) -> float:
    """Worst mismatch of the summation-by-parts identity over random pairs.

    The mismatch is taken relative to the sum of the magnitudes of the
    identity's terms, so a near-zero inner product cannot inflate it.
    """
    import numpy as np
    from degcontrol.solvers import (CylinderProblem, solve_backward_linear,
                                    solve_forward_linear)

    prob = CylinderProblem.default(N=config["grid"]["N"],
                                   M=config["grid"]["M"])
    ops = prob.linearized_ops()
    M, n = prob.mesh.M, prob.grid.N - 1
    dt = prob.mesh.dt
    wv = prob.grid.interior_volumes
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        f = rng.standard_normal((M + 1, n))
        g = rng.standard_normal((M + 1, n))
        y0 = np.pad(rng.standard_normal(n), 1)
        y = solve_forward_linear(ops, y0, f)
        p = solve_backward_linear(ops, g)
        terms = [dt * wv * f[1:] * p.values[1:, 1:-1],
                 wv * y0[1:-1] * p.values[1, 1:-1],
                 -dt * wv * g[1:] * y.values[1:, 1:-1]]
        mismatch = abs(sum(float(np.sum(t)) for t in terms))
        worst = max(worst, mismatch / sum(float(np.sum(np.abs(t)))
                                          for t in terms))
    return float(worst)


def main() -> int:
    job = json.loads(sys.stdin.read())
    from degcontrol import harness

    import reference
    import tracer as tracing
    import workloads

    root = Path(job["root"]).resolve()
    if not Path(harness.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"degcontrol imported from {harness.__file__}, "
                         f"not from {root / 'src'}")
    config = harness.ScenarioConfig.from_dict(job["config"])
    issues = harness.validate_config(config)
    if issues:
        raise SystemExit("invalid benchmark config: " + "; ".join(issues))
    result = {"setup_s": time.monotonic() - job["spawned"]}
    out_dir = Path(job["out"])
    if job["mode"] == "rep":
        tracer = None
        if job["trace"]:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        if job["reference_s"]:
            reference.kernel()
            passes = reference.loop_times(job["reference_s"])
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        error = _run(harness, job["config"], job["seed"], out_dir)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        if job["reference_s"]:
            result["reference_passes_s"] = (
                passes + reference.loop_times(job["reference_s"]))
        ops, accuracy, report, error = _check(
            workloads, job["workload"], job["config"], out_dir, error)
        result.update(
            wall_s=wall,
            cpu_s=(after.ru_utime - before.ru_utime
                   + after.ru_stime - before.ru_stime),
            peak_rss_mb=after.ru_maxrss / 1024.0,
            ops=ops, accuracy=accuracy, report=report, error=error,
            output_bytes=sum(p.stat().st_size for p in out_dir.iterdir()))
        if tracer is not None:
            result["trace"] = tracer.metrics()
            result["trace"]["trace.overhead_est_s"] = (
                tracing.span_cost() * len(tracer.spans))
    elif job["mode"] == "check":
        duality = _duality(job["config"], job["seed"])
        ops = [("duality", duality <= workloads.DUALITY_MAX)]
        accuracy: dict = {}
        for guard in job["guards"]:
            gdir = out_dir / guard
            gconfig = workloads.guard_config(guard, job["config"]["grid"])
            gops, gacc, _, error = _check(
                workloads, guard, gconfig, gdir,
                _run(harness, gconfig, job["seed"], gdir))
            ops += [(f"{guard} guard: {op}", ok) for op, ok in gops]
            accuracy.update(gacc)
            if error:
                result["error"] = error
        result.update(duality=duality, ops=ops, accuracy=accuracy)
    result["environment"] = _environment()
    print(RESULT_PREFIX + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
