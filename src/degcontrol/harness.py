"""Scenario configuration, presets, and reproducible experiment runs.

A ScenarioConfig is a nested plain dictionary with defaults for every
field; one config plus a seed fully determines a run.  run_scenario
dispatches on the experiment kind, writes CSV files for curves and a
JSON report for scalars, and returns a RunRecord whose hash covers the
canonical config so that identical (config, seed) pairs reproduce
identical outputs.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .carleman import (CarlemanParams, CarlemanWeights, adjoint_basis,
                       check_admissible, empirical_carleman,
                       empirical_observability)
from .geometry import ControlGeometry, DegeneracySpec, MovingDomainSpec
from .grids import TrajectoryField
from .nash import (GameSpec, convexity_margin, evaluate_functional,
                   fit_mu_star, functional_gradient, make_default_targets,
                   nash_fixed_point)
from .nullcontrol import (HUMSolver, LinearControlProblem, NewtonFailureError,
                          solve_linear_null_control,
                          solve_nonlinear_null_control,
                          verify_additional_estimates)
from .semilinear import SemilinearF
from .solvers import (CylinderProblem, StepFailureError, SweepFailureError,
                      dump_trajectory_csv, energy_diagnostics,
                      solve_forward_semilinear)

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioConfig",
    "RunRecord",
    "ConfigError",
    "default_config",
    "validate_config",
    "preset",
    "list_presets",
    "run_scenario",
    "emit_plot_data",
]

SCHEMA_VERSION = 1

FAMILIES = ("constant", "affine", "exponential", "sinusoidal")
KINDS = ("forward", "nash", "convexity", "observability", "linear-control",
         "nonlinear-control", "diagnostics")
# each study runs in place of its kind's experiment, and only with that kind
STUDIES = {"mms-convergence": "diagnostics"}
WINDOWS = ("O", "O1", "O2", "Od")

_DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "geometry": {
        "alpha": 0.5,
        "b_exp": 2.0,
        "family": "affine",
        "l0": 1.0,
        "k": 0.25,
        "w": 1.0,
        "T": 1.0,
    },
    "grid": {"N": 64, "gamma": 2.0, "M": 128},
    "game": {
        "windows": {
            "O": [0.3, 0.5],
            "O1": [0.55, 0.7],
            "O2": [0.75, 0.9],
            "Od": [0.4, 0.6],
        },
        "alpha1": 1.0,
        "alpha2": 1.0,
        "mu1": 5.0,
        "mu2": 5.0,
        "target_amplitude": 1.0,
        "jacobian_weighting": True,
    },
    "nonlinearity": {"label": "sinusoidal", "kappa1": 2.0, "kappa2": 2.0},
    "carleman": {
        "s": 2.0,
        "lam": None,
        "alpha_p": 0.35,
        "beta_p": 0.45,
        "m_floor": None,
        "cap_ratio": 1e3,
    },
    "solver": {
        "newton_tol": 1e-9,
        "newton_max": 10,
        "tol_terminal": 1e-6,
    },
    "experiment": {
        "kind": "forward",
        "y0_amplitude": 0.01,
        "y0_mode": "sine",
        "h_amplitude": 0.0,
        "samples": 20,
        "scale_factors": [1.0],
        "mu_grid": [1.0, 5.0, 25.0, 125.0],
        "budget_limit": None,
        "study": None,
    },
}


class ConfigError(ValueError):
    """Raised when a scenario config fails validation; carries all issues."""

    def __init__(self, issues):
        super().__init__("invalid config:\n  " + "\n  ".join(issues))
        self.issues = list(issues)


def default_config() -> dict:
    return copy.deepcopy(_DEFAULTS)


def _merge(base: dict, override: dict, path: str, issues: list) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            issues.append(f"unknown field {here}")
            continue
        if isinstance(base[key], dict) and not here.endswith("windows"):
            if not isinstance(val, dict):
                issues.append(f"{here}: expected a section, got {type(val).__name__}")
                continue
            out[key] = _merge(base[key], val, here, issues)
        else:
            out[key] = copy.deepcopy(val)
    return out


@dataclass
class ScenarioConfig:
    """Nested configuration with defaults for every field."""

    data: dict = field(default_factory=default_config)

    @classmethod
    def from_dict(cls, overrides: dict) -> "ScenarioConfig":
        if not isinstance(overrides, dict):
            raise ConfigError(["config: expected an object of sections"])
        issues: list = []
        merged = _merge(_DEFAULTS, overrides, "", issues)
        if issues:
            raise ConfigError(issues)
        return cls(data=merged)

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_json(self, path=None) -> str:
        text = json.dumps(self.data, indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    def canonical_hash(self) -> str:
        blob = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def __getitem__(self, key):
        return self.data[key]


def _is_number(val) -> bool:
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and math.isfinite(val))


# per type of default: its name in an issue, and the check of a value
_TYPES = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer",
          lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
    list: ("a non-empty list of finite numbers",
           lambda v: isinstance(v, list) and v and all(map(_is_number, v))),
}
# the type of a field whose default is None, when it is set
_OPTIONAL = {"carleman.lam": float, "carleman.m_floor": float,
             "experiment.budget_limit": float, "experiment.study": str}


def _type_issues(base: dict, cfg: dict, path: str) -> list:
    """Fields whose value does not have the type of their default."""
    issues = []
    for key, default in base.items():
        here = f"{path}.{key}" if path else key
        val = cfg[key]
        if here == "game.windows":
            issues.extend(_window_type_issues(val))
        elif isinstance(default, dict):
            issues.extend(_type_issues(default, val, here))
        elif default is not None or val is not None:
            name, ok = _TYPES[type(default) if default is not None
                              else _OPTIONAL[here]]
            if not ok(val):
                issues.append(f"{here}: expected {name}, got {val!r}")
    return issues


def _window_type_issues(wins) -> list:
    if not isinstance(wins, dict):
        return ["game.windows: expected a section of windows"]
    issues = [f"game.windows.{name}: unknown window"
              for name in wins if name not in WINDOWS]
    for name in WINDOWS:
        if name not in wins:
            issues.append(f"game.windows.{name}: missing")
        elif not (isinstance(wins[name], (list, tuple))
                  and len(wins[name]) == 2
                  and all(map(_is_number, wins[name]))):
            issues.append(f"game.windows.{name}: expected a pair [a, b] of "
                          f"numbers, got {wins[name]!r}")
    return issues


def validate_config(config: ScenarioConfig | dict) -> list:
    """Returns the full list of offending fields (empty means valid).

    Every field must first have the type of its default; the range checks
    run only once all types are right.
    """
    if isinstance(config, ScenarioConfig):
        cfg = config.data
    else:
        try:
            cfg = ScenarioConfig.from_dict(config).data
        except ConfigError as exc:
            return exc.issues
    issues = _type_issues(_DEFAULTS, cfg, "")
    if issues:
        return issues
    g = cfg["geometry"]
    if not 0.0 < g["alpha"] < 1.0:
        issues.append("geometry.alpha: weak degeneracy requires 0 < alpha < 1")
    if g["T"] <= 0:
        issues.append("geometry.T: must be positive")
    if g["family"] not in FAMILIES:
        issues.append(f"geometry.family: unknown family {g['family']!r}")
    if g["l0"] < 1.0:
        issues.append("geometry.l0: domain scale must satisfy l(t) >= 1")
    if g["b_exp"] <= 1.0:
        issues.append("geometry.b_exp: gradient weight exponent must exceed 1")
    # the family's own checks, once the fields it is built from are valid
    if g["T"] > 0 and g["l0"] >= 1.0 and g["family"] in FAMILIES:
        try:
            MovingDomainSpec(T=g["T"], family=g["family"], l0=g["l0"],
                             k=g["k"], w=g["w"]).validate()
        except ValueError as exc:
            issues.append(f"geometry: {exc}")
    grid = cfg["grid"]
    if not 8 <= grid["N"] <= 1024:
        issues.append("grid.N: supported range is [8, 1024]")
    if not 8 <= grid["M"] <= 4096:
        issues.append("grid.M: supported range is [8, 4096]")
    if grid["gamma"] < 1.0:
        issues.append("grid.gamma: grading exponent must be >= 1")
    game = cfg["game"]
    wins = game["windows"]
    window_issues = [f"game.windows.{name}: must satisfy 0 < a < b < 1"
                     for name in WINDOWS
                     if not 0.0 < wins[name][0] < wins[name][1] < 1.0]
    issues.extend(window_issues)
    if not window_issues:
        try:
            ControlGeometry(O=tuple(wins["O"]), O1=tuple(wins["O1"]),
                            O2=tuple(wins["O2"]), Od=tuple(wins["Od"]))
        except ValueError as exc:
            issues.append(f"game.windows: {exc}")
    for name in ("alpha1", "alpha2", "mu1", "mu2"):
        if game[name] <= 0:
            issues.append(f"game.{name}: must be positive")
    nl = cfg["nonlinearity"]
    if nl["label"] not in ("sinusoidal", "zero"):
        issues.append(f"nonlinearity.label: unknown label {nl['label']!r}")
    car = cfg["carleman"]
    carleman_issues = []
    if car["s"] <= 0:
        carleman_issues.append("carleman.s: must be positive")
    if not (0.0 < car["alpha_p"] < car["beta_p"] < 1.0):
        carleman_issues.append("carleman: need 0 < alpha_p < beta_p < 1")
    if car["cap_ratio"] < 10.0:
        carleman_issues.append("carleman.cap_ratio: must be at least 10")
    if car["m_floor"] is not None and car["m_floor"] <= 0:
        carleman_issues.append("carleman.m_floor: must be positive")
    issues.extend(carleman_issues)
    # a set lambda must be admissible for the profile Psi: the weights' own
    # check, once the fields they are built from are valid
    if (car["lam"] is not None and not carleman_issues
            and 0.0 < g["alpha"] < 1.0):
        try:
            check_admissible(_weight_params(cfg), DegeneracySpec(g["alpha"]))
        except ValueError as exc:
            issues.append(f"carleman.lam: {exc}")
    # the bridge of Psi must lie inside the leader window O
    if not carleman_issues and not window_issues:
        try:
            _weight_params(cfg).check_inside(tuple(wins["O"]))
        except ValueError as exc:
            issues.append(f"carleman: {exc}")
    exp = cfg["experiment"]
    if exp["kind"] not in KINDS:
        issues.append(
            f"experiment.kind: {exp['kind']!r} not one of {', '.join(KINDS)}")
    if exp["samples"] < 1:
        issues.append("experiment.samples: must be at least 1")
    # the observability samplers model the followers with wt = 1
    if exp["kind"] == "observability" and not game["jacobian_weighting"]:
        issues.append("game.jacobian_weighting: observability runs sample "
                      "the wt = 1 system; false has no effect there")
    if exp["y0_mode"] not in ("sine", "random"):
        issues.append(f"experiment.y0_mode: unknown {exp['y0_mode']!r}")
    study = exp["study"]
    if study is not None and study not in STUDIES:
        issues.append(f"experiment.study: unknown study {study!r}; "
                      f"known: {', '.join(STUDIES)}")
    elif study is not None and STUDIES[study] != exp["kind"]:
        issues.append(f"experiment.study: {study!r} runs with kind "
                      f"{STUDIES[study]!r}, not {exp['kind']!r}")
    return issues


_PRESETS = {
    "theorem1-small-data": {
        "experiment": {"kind": "nonlinear-control", "y0_amplitude": 0.01,
                       "scale_factors": [1.0, 3.0, 300.0]},
    },
    "prop2-mu-sweep": {
        "experiment": {"kind": "convexity",
                       "mu_grid": [1.0, 5.0, 25.0, 125.0]},
    },
    "observability-baseline": {
        "experiment": {"kind": "observability", "samples": 20},
    },
    "mms-convergence": {
        "experiment": {"kind": "diagnostics", "study": "mms-convergence"},
    },
}
_PRESET_ALIASES = {"small-sine": "theorem1-small-data"}


def list_presets() -> list:
    return sorted(_PRESETS)


def preset(name: str) -> ScenarioConfig:
    key = _PRESET_ALIASES.get(name, name)
    if key not in _PRESETS:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(list_presets())}")
    return ScenarioConfig.from_dict(copy.deepcopy(_PRESETS[key]))


@dataclass
class RunRecord:
    """Everything needed to reproduce and audit one scenario run."""

    config_hash: str
    seed: int
    kind: str
    timings: dict
    report: dict
    outputs: list
    deterministic: bool = True

    def to_json(self, path=None) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "kind": self.kind,
            "deterministic": self.deterministic,
            "timings": self.timings,
            "report": self.report,
            "outputs": self.outputs,
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text


def _build_F(cfg: dict) -> SemilinearF:
    nl = cfg["nonlinearity"]
    if nl["label"] == "zero":
        return SemilinearF.zero()
    return SemilinearF.sinusoidal(nl["kappa1"], nl["kappa2"])


def _build_problem(cfg: dict) -> CylinderProblem:
    g, grid, game = cfg["geometry"], cfg["grid"], cfg["game"]
    wins = game["windows"]
    windows = ControlGeometry(O=tuple(wins["O"]), O1=tuple(wins["O1"]),
                              O2=tuple(wins["O2"]), Od=tuple(wins["Od"]))
    return CylinderProblem.default(
        N=int(grid["N"]), M=int(grid["M"]), alpha=g["alpha"], T=g["T"],
        gamma=grid["gamma"], b_exp=g["b_exp"], family=g["family"],
        l0=g["l0"], k=g["k"], w=g["w"], windows=windows, F=_build_F(cfg))


def _weight_params(cfg: dict) -> CarlemanParams:
    car = cfg["carleman"]
    return CarlemanParams(s=car["s"], lam=car["lam"], alpha_p=car["alpha_p"],
                          beta_p=car["beta_p"], m_floor=car["m_floor"],
                          cap_ratio=car["cap_ratio"])


def _build_weights(cfg: dict, prob: CylinderProblem) -> CarlemanWeights:
    return CarlemanWeights(_weight_params(cfg), prob.deg, prob.grid,
                           prob.mesh)


def _build_game(cfg: dict, prob: CylinderProblem,
                weights: CarlemanWeights | None = None) -> GameSpec:
    g = cfg["game"]
    game = GameSpec(alpha1=g["alpha1"], alpha2=g["alpha2"],
                    mu1=g["mu1"], mu2=g["mu2"],
                    jacobian_weighting=g["jacobian_weighting"])
    if g["target_amplitude"] != 0.0:
        game.target1, game.target2 = make_default_targets(
            prob, weights=weights, amplitude=g["target_amplitude"])
    return game


def _initial_data(cfg: dict, prob: CylinderProblem,
                  rng: np.random.Generator) -> np.ndarray:
    exp = cfg["experiment"]
    x = prob.grid.nodes
    if exp["y0_mode"] == "sine":
        y0 = exp["y0_amplitude"] * np.sin(np.pi * x)
    elif exp["y0_mode"] == "random":
        modes = np.arange(1, 6)
        coeff = rng.standard_normal(modes.size) / modes
        y0 = exp["y0_amplitude"] * (
            np.sin(np.pi * np.outer(x, modes)) @ coeff)
    else:
        raise ConfigError([f"experiment.y0_mode: unknown {exp['y0_mode']!r}"])
    y0[0] = y0[-1] = 0.0
    return y0


def _write_csv(path: Path, header: str, rows: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(rows), delimiter=",", header=header,
               comments="")


def run_scenario(config: ScenarioConfig | dict, out_dir, seed: int = 0,
                 deterministic: bool = True) -> RunRecord:
    """Runs one experiment, writes its artifacts, returns the record."""
    if not isinstance(config, ScenarioConfig):
        config = ScenarioConfig.from_dict(config)
    issues = validate_config(config)
    if issues:
        raise ConfigError(issues)
    cfg = config.data
    kind = cfg["experiment"]["kind"]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    timings: dict = {}
    outputs: list = []
    t_start = time.perf_counter()
    runner = _RUNNERS[kind if cfg["experiment"]["study"] is None
                      else cfg["experiment"]["study"]]
    report = runner(cfg, out, rng, outputs, timings)
    timings["total_s"] = round(time.perf_counter() - t_start, 3)
    record = RunRecord(config_hash=config.canonical_hash(), seed=seed,
                       kind=kind, timings=timings, report=report,
                       outputs=outputs, deterministic=deterministic)
    record.to_json(out / "report.json")
    outputs.append("report.json")
    config.to_json(out / "config.json")
    return record


def _run_forward(cfg, out, rng, outputs, timings):
    prob = _build_problem(cfg)
    y0 = _initial_data(cfg, prob, rng)
    h = None
    if cfg["experiment"]["h_amplitude"] != 0.0:
        h = prob.new_field()
        h.values[:] = (cfg["experiment"]["h_amplitude"]
                       * np.sin(np.pi * prob.grid.nodes)[None, :])
    y = solve_forward_semilinear(prob, y0, h=h)
    dump_trajectory_csv(y, out / "state.csv")
    outputs.append("state.csv")
    diag = energy_diagnostics(prob, {"y": y})
    return {
        "y0_l2": prob.grid.norm(y0),
        "terminal_l2": prob.grid.norm(y.values[-1]),
        "l2q": y.l2q_norm(),
        "sup_l2": diag.sup_l2["y"],
        "grad_energy": diag.grad_energy["y"],
    }


def _run_nash(cfg, out, rng, outputs, timings):
    prob = _build_problem(cfg)
    weights = _build_weights(cfg, prob)
    game = _build_game(cfg, prob, weights)
    y0 = _initial_data(cfg, prob, rng)
    h = prob.new_field()
    h.values[:] = (cfg["experiment"]["h_amplitude"]
                   * np.sin(np.pi * prob.grid.nodes)[None, :])
    sol = nash_fixed_point(prob, game, h, y0)
    for name in ("v1", "v2"):
        dump_trajectory_csv(getattr(sol, name), out / f"{name}.csv")
        outputs.append(f"{name}.csv")
    J1 = evaluate_functional(prob, game, 1, sol.y, sol.v1)
    J2 = evaluate_functional(prob, game, 2, sol.y, sol.v2)
    # J-landscape along a probe line through the equilibrium
    eps_grid = np.linspace(-0.5, 0.5, 21)
    probe = sol.v1.copy()
    vals = []
    for eps in eps_grid:
        v1 = sol.v1.copy()
        v1.values = (1.0 + eps) * probe.values
        y = solve_forward_semilinear(prob, y0, h=h, v1=v1, v2=sol.v2)
        vals.append(evaluate_functional(prob, game, 1, y, v1))
    _write_csv(out / "j_landscape.csv", "eps,J1",
               np.column_stack([eps_grid, vals]))
    outputs.append("j_landscape.csv")
    return {
        "sweeps": len(sol.history),
        "residuals": sol.residuals,
        "J1": J1,
        "J2": J2,
    }


def _run_convexity(cfg, out, rng, outputs, timings):
    prob = _build_problem(cfg)
    weights = _build_weights(cfg, prob)
    game = _build_game(cfg, prob, weights)
    y0 = _initial_data(cfg, prob, rng)
    h = prob.new_field()
    margins = []
    for mu in cfg["experiment"]["mu_grid"]:
        game = replace(game, mu1=float(mu), mu2=float(mu))
        state = nash_fixed_point(prob, game, h, y0)
        m = convexity_margin(prob, game, state, probes=4, rng=rng)
        margins.append((mu, m["margin"], m["certified"]))
    fit = fit_mu_star(prob, game, h, y0, rng=rng)
    _write_csv(out / "margins.csv", "mu,margin,certified",
               np.array([(a, b, float(c)) for a, b, c in margins]))
    outputs.append("margins.csv")
    return {
        "mu_grid": [m[0] for m in margins],
        "margins": [m[1] for m in margins],
        "certified": [bool(m[2]) for m in margins],
        "mu_star": fit["mu_star"],
    }


def _run_observability(cfg, out, rng, outputs, timings):
    prob = _build_problem(cfg)
    weights = _build_weights(cfg, prob)
    game = _build_game(cfg, prob, weights)
    n = cfg["experiment"]["samples"]
    # one block solve serves both samplers
    basis = adjoint_basis(prob, mus=game.mus, alphas=game.alphas)
    obs = empirical_observability(prob, weights, samples=n, rng=rng,
                                  mus=game.mus, alphas=game.alphas,
                                  basis=basis)
    car = empirical_carleman(prob, weights, samples=n, rng=rng,
                             mus=game.mus, alphas=game.alphas, basis=basis)
    _write_csv(out / "ratios.csv", "observability,carleman",
               np.column_stack([obs["ratios"], car["ratios"]]))
    outputs.append("ratios.csv")
    return {
        "observability_max_ratio": obs["max_ratio"],
        "carleman_max_ratio": car["max_ratio"],
        "carleman_source_share": car["source_share"],
        "lambda": weights.lam,
        "comp_pesos_ok": weights.identity_report()["comp_pesos_ok"],
    }


def _run_linear_control(cfg, out, rng, outputs, timings):
    cfg = copy.deepcopy(cfg)
    cfg["nonlinearity"]["label"] = "zero"
    prob = _build_problem(cfg)
    weights = _build_weights(cfg, prob)
    game = _build_game(cfg, prob, weights)
    y0 = _initial_data(cfg, prob, rng)
    lcp = LinearControlProblem(prob, weights, game, y0)
    limit = cfg["experiment"]["budget_limit"]
    triple = solve_linear_null_control(
        lcp, budget_limit=np.inf if limit is None else float(limit))
    est = verify_additional_estimates(lcp, triple)
    dump_trajectory_csv(triple.y, out / "state.csv")
    dump_trajectory_csv(triple.h, out / "leader.csv")
    outputs.extend(["state.csv", "leader.csv"])
    return {
        "terminal_l2": triple.terminal_norm,
        "y0_l2": prob.grid.norm(y0),
        "budget_constant": triple.budget_constant,
        "budget_exceeded": triple.budget_exceeded,
        "kappa0": triple.kappa0,
        "reconstruction": triple.residuals,
        "additional_estimates": {k: est[k] for k in
                                 ("C_prop5", "C_prop6", "all_finite")},
    }


def _run_nonlinear_control(cfg, out, rng, outputs, timings):
    prob = _build_problem(cfg)
    weights = _build_weights(cfg, prob)
    game = _build_game(cfg, prob, weights)
    sv = cfg["solver"]
    base_y0 = _initial_data(cfg, prob, rng)
    hum = HUMSolver(prob, weights, game)
    results = {}
    for factor in cfg["experiment"]["scale_factors"]:
        y0 = factor * base_y0
        try:
            triple, history = solve_nonlinear_null_control(
                prob, weights, game, y0,
                tol_z=sv["newton_tol"], tol_terminal=sv["tol_terminal"],
                max_newton=int(sv["newton_max"]), hum=hum)
        except (NewtonFailureError, StepFailureError, SweepFailureError) as exc:
            results[str(factor)] = {"converged": False,
                                    "failure": type(exc).__name__}
            if isinstance(exc, NewtonFailureError):
                results[str(factor)]["failure_reason"] = exc.reason
            continue
        v = game.controls(prob, (triple.p1.values, triple.p2.values))
        grads = functional_gradient(prob, game, triple.h, *v, y0)
        qeq = [float(np.max(np.abs(g.values))
                     / (1.0 + np.max(np.abs(v_i.values))))
               for g, v_i in zip(grads, v)]
        results[str(factor)] = {
            "converged": True,
            "newton_steps": len(history),
            "terminal_l2": triple.terminal_norm,
            "quasi_equilibrium_residuals": qeq,
            "budget_constant": triple.budget_constant,
        }
        if factor == 1.0:
            dump_trajectory_csv(triple.y, out / "state.csv")
            dump_trajectory_csv(triple.h, out / "leader.csv")
            outputs.extend(["state.csv", "leader.csv"])
    return {"scales": results}


def _run_diagnostics(cfg, out, rng, outputs, timings):
    prob = _build_problem(cfg)
    weights = _build_weights(cfg, prob)
    report = weights.identity_report()
    weights.to_csv(out / "weights.csv")
    outputs.append("weights.csv")
    y0 = _initial_data(cfg, prob, rng)
    y = solve_forward_semilinear(prob, y0)
    diag = energy_diagnostics(prob, {"y": y})
    return {
        "weight_identities": {k: report[k] for k in
                              ("identity_log_rel", "comp_pesos_ok",
                               "lambda", "zeta0")},
        "sup_l2": diag.sup_l2["y"],
        "grad_energy": diag.grad_energy["y"],
    }


def _run_mms(cfg, out, rng, outputs, timings):
    """Manufactured-solution refinement study; reports both slopes."""
    from .mms import space_order_study, time_order_study
    tstudy = time_order_study()
    sstudy = space_order_study()
    _write_csv(out / "mms_time.csv", "M,error",
               np.column_stack([tstudy["M"], tstudy["errors"]]))
    _write_csv(out / "mms_space.csv", "N,error",
               np.column_stack([sstudy["N"], sstudy["errors"]]))
    outputs.extend(["mms_time.csv", "mms_space.csv"])
    return {"time_slope": tstudy["slope"], "space_slope": sstudy["slope"]}


_RUNNERS = {
    "forward": _run_forward,
    "nash": _run_nash,
    "convexity": _run_convexity,
    "observability": _run_observability,
    "linear-control": _run_linear_control,
    "nonlinear-control": _run_nonlinear_control,
    "diagnostics": _run_diagnostics,
    "mms-convergence": _run_mms,
}


def emit_plot_data(record: RunRecord, out_dir) -> list:
    """Writes plot-ready CSV bundles for a finished run.

    Curve files produced during the run are already CSV; this adds a
    scalar summary table so plotting tools need no JSON parsing.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []

    def flatten(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                flatten(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                flatten(f"{prefix}[{i}]", v)
        elif isinstance(obj, (int, float, bool, np.floating, np.integer)):
            rows.append((prefix, float(obj)))

    flatten("", record.report)
    path = out / "summary.csv"
    with open(path, "w") as fh:
        fh.write("quantity,value\n")
        for name, val in rows:
            fh.write(f"{name},{val!r}\n")
    return [str(path)]
