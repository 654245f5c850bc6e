"""The benchmark's workloads: scenario configs, operations and their checks.

The configs live here rather than in the package presets, so that editing
a preset does not change what is measured; BENCHMARK.json records why each
workload was chosen.  Grids are sized so that one repetition takes about
three to five seconds on one core and a run holds eight or more.  Each
workload names the operations it performs and how each one is checked,
and which guard scenarios supply the accuracy numbers its own scenario
does not produce.

Two workloads, the fewest that time every layer: newton-desk times
nullcontrol (HUM build and solves, Newton), nash (gradients), solvers
and operators; adjoint-sampling times carleman and the coupled sweeps.
The follower fixed point (convexity) and the linear-control estimates
are not timed: four workloads did not fit enough repetitions into the
time the benchmark may take to hold their figures steady on a shared
host.  The linear-control and nash scenarios still run, untimed, as the
accuracy guards.

This module is imported by the parent process, which never imports
``degcontrol``; only the check functions (called in the workers) touch
numpy.
"""

from __future__ import annotations

import copy
import math

SMOKE_GRID = {"N": 16, "M": 16}
SMOKE_SAMPLES = 4

# thresholds of the per-operation checks
TERMINAL_MAX = 1e-9
RECONSTRUCTION_MAX = 1e-8
NASH_RESIDUAL_MAX = 1e-6
DUALITY_MAX = 1e-12

# digits are capped at the resolution of double precision, so an error
# that happens to be exactly zero still gives a finite number
DIGITS_CAP = 16.0

WORKLOADS = {
    # Theorem-1 path on a coarse grid: Newton remainders, shared-HUM solves
    # and Nash gradients; scale 300 exercises the divergence path on purpose
    "newton-desk": {
        "config": {
            "grid": {"N": 32, "M": 64},
            "experiment": {"kind": "nonlinear-control",
                           "scale_factors": [1.0, 3.0, 300.0]},
        },
        # the paper's locality result: this scale must not converge
        "divergent_scales": [300.0],
        "guards": ["linear-control"],
    },
    # one cached linearized operator set, then many coupled adjoint sweeps:
    # solves many times rather than builds; the only workload covering the
    # Carleman ratios
    "adjoint-sampling": {
        "config": {
            "grid": {"N": 64, "M": 128},
            "experiment": {"kind": "observability", "samples": 50},
        },
        "guards": ["linear-control", "nash"],
    },
}

GUARD_CONFIGS = {
    "linear-control": {"experiment": {"kind": "linear-control"}},
    "nash": {"experiment": {"kind": "nash"}},
}
# guards run on the workload's grid, but no finer than this: they check
# accuracy, and on the finer grids they would cost more than a repetition
GUARD_GRID = {"N": 32, "M": 64}


def scenario_config(workload: str, smoke: bool) -> dict:
    """The workload's config; the smoke variant shrinks grid and samples."""
    cfg = copy.deepcopy(WORKLOADS[workload]["config"])
    if smoke:
        cfg["grid"] = dict(SMOKE_GRID)
        if "samples" in cfg["experiment"]:
            cfg["experiment"]["samples"] = SMOKE_SAMPLES
    return cfg


def guard_config(guard: str, grid: dict) -> dict:
    cfg = copy.deepcopy(GUARD_CONFIGS[guard])
    cfg["grid"] = {k: min(grid[k], GUARD_GRID[k]) for k in GUARD_GRID}
    return cfg


def digits(error: float) -> float:
    """-log10 of an error, capped at DIGITS_CAP; NaN or inf gives 0."""
    if not math.isfinite(error):
        return 0.0
    if error <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(error))


def check_scenario(workload_or_guard: str, config: dict, report: dict,
                   out_dir) -> tuple:
    """Checks one finished scenario.

    Returns (ops, accuracy): ops is a list of (operation, passed) pairs,
    accuracy maps "terminal", "reconstruction" and "nash_residual" to
    the largest error of that kind the scenario reports.
    """
    kind = config["experiment"]["kind"]
    return _CHECKS[kind](workload_or_guard, config, report, out_dir)


def _check_nonlinear(name, config, report, out_dir):
    divergent = WORKLOADS.get(name, {}).get("divergent_scales", [])
    ops, terminal, qeq = [], [], []
    for factor in config["experiment"]["scale_factors"]:
        res = report["scales"][str(factor)]
        if factor in divergent:
            ok = (not res["converged"]
                  and res.get("failure") == "NewtonFailureError")
        else:
            ok = (res["converged"]
                  and res["terminal_l2"] <= TERMINAL_MAX
                  and max(res["quasi_equilibrium_residuals"])
                  <= NASH_RESIDUAL_MAX)
        if res["converged"]:
            terminal.append(res["terminal_l2"])
            qeq.extend(res["quasi_equilibrium_residuals"])
        ops.append((f"scale {factor:g}", bool(ok)))
    accuracy = {}
    if terminal:
        accuracy["terminal"] = max(terminal)
    if qeq:
        accuracy["nash_residual"] = max(qeq)
    return ops, accuracy


def _check_linear(name, config, report, out_dir):
    recon = max(report["reconstruction"].values())
    ok = (report["terminal_l2"] <= TERMINAL_MAX
          and recon <= RECONSTRUCTION_MAX)
    return ([("linear solve", bool(ok))],
            {"terminal": report["terminal_l2"], "reconstruction": recon})


def _check_observability(name, config, report, out_dir):
    import numpy as np

    samples = config["experiment"]["samples"]
    rows = np.loadtxt(out_dir / "ratios.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    good = np.all(np.isfinite(rows), axis=1) & bool(report["comp_pesos_ok"])
    ops = [(f"sample {i}", bool(ok)) for i, ok in enumerate(good)]
    # a sample whose ratio was skipped as degenerate is a failed one
    ops.extend([("sample skipped", False)] * (samples - len(ops)))
    return ops, {}


def _check_nash(name, config, report, out_dir):
    res = max(report["residuals"].values())
    return ([("nash equilibrium", bool(res <= NASH_RESIDUAL_MAX))],
            {"nash_residual": res})


_CHECKS = {
    "nonlinear-control": _check_nonlinear,
    "linear-control": _check_linear,
    "observability": _check_observability,
    "nash": _check_nash,
}
