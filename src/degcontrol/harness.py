"""Scenario configuration, presets, and reproducible experiment runs.

A ScenarioConfig is a nested plain dictionary with defaults for every
field; one config plus a seed fully determines a run, and its
schema_version must be SCHEMA_VERSION.  build_run builds every problem,
with its Carleman weights and game, from a config; validation and
run_scenario both call it, and then refuse a field that differs from
its default but that the run of the config's kind does not read
(accepted_fields).  The source paper's ties to the leader window O
(TIES) bind only the runs that read both fields of a tie, and a window
must hold an interior node of the grid only in the runs that read it.
run_scenario then runs the one runner of its experiment kind (KINDS
lists them, the `mms-convergence` study among them), writes CSV files
for curves and a JSON report for scalars, and returns a RunRecord whose
hash covers the canonical config so that identical (config, seed) pairs
reproduce identical outputs.
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
                       empirical_carleman, empirical_observability,
                       log_observation_peak, weight_roots)
from .geometry import (ControlGeometry, DegeneracySpec, GradientWeightSpec,
                       MovingDomainSpec)
from .grids import SpatialGrid, TimeMesh, TrajectoryField
from .mms import _HI, _LO, space_order_study, time_order_study
from .nash import (GameSpec, convexity_margin, evaluate_functional,
                   fit_mu_star, functional_gradient, make_default_targets,
                   nash_fixed_point)
from .nullcontrol import (HUMSolver, NewtonFailureError,
                          solve_nonlinear_null_control,
                          verify_additional_estimates)
from .semilinear import SemilinearF
from .solvers import (CylinderProblem, dump_trajectory_csv,
                      energy_diagnostics, solve_forward_semilinear)

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioConfig",
    "RunRecord",
    "ConfigError",
    "default_config",
    "validate_config",
    "build_run",
    "preset",
    "list_presets",
    "run_scenario",
]

SCHEMA_VERSION = 1

WINDOWS = ("O", "O1", "O2", "Od")
# below this a mass of positive terms is 0 or subnormal
_LOG_TINY = math.log(np.finfo(float).tiny)

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
    },
}


# The config fields that each kind's run reads: those its runner reads,
# and those of the problem, weights and game it runs on that the
# runner's calls touch.  `accepted_fields` turns an entry into what
# validation accepts for a config.
_DOMAIN = ("geometry.alpha", "geometry.family", "geometry.l0", "geometry.k",
           "geometry.w", "geometry.T", "grid.N", "grid.gamma", "grid.M")
# F's label and parameters, and the gradient weight, which acts only
# through F's argument; F = 0 is kappa1 = kappa2 = 0
_F = ("nonlinearity.label", "nonlinearity.kappa1", "nonlinearity.kappa2",
      "geometry.b_exp")
# the kinds that run the F = 0 problem, whatever the kappas; every other
# kind reads F, which READS leaves out
F_ZERO_KINDS = ("linear-control", "mms-convergence")
# the kinds whose subject is F, which build_run refuses at F = 0, and why
_NEEDS_F = {
    "convexity": "a convexity run measures Prop 2's follower convexity, "
                 "which F's second derivatives can break; with F = 0 the "
                 "followers' problem is linear-quadratic and the margin "
                 "does not depend on y0 or the targets",
    "nonlinear-control": "a nonlinear-control run is Theorem 1's Newton "
                         "loop on F; with F = 0 the loop's remainder is "
                         "constant and its tolerance and step budget go "
                         "unread",
}
_Y0 = ("experiment.y0_amplitude", "experiment.y0_mode")
# the followers' couplings, but for their penalties
_FOLLOWERS = ("game.windows.O1", "game.windows.O2", "game.windows.Od",
              "game.alpha1", "game.alpha2", "game.jacobian_weighting")
_MUS = ("game.mu1", "game.mu2")
# the Carleman weights' log tables; cap_ratio caps only their normalized
# copies, which the HUM system and the weights' CSV read
_WEIGHTS = ("carleman.s", "carleman.lam", "carleman.alpha_p",
            "carleman.beta_p", "carleman.m_floor")
_HUM = ("game.windows.O", *_FOLLOWERS, *_MUS, *_WEIGHTS,
        "carleman.cap_ratio")
READS = {
    # O as the support of the leader's source h
    "forward": (*_DOMAIN, *_Y0, "experiment.h_amplitude", "game.windows.O"),
    "nash": (*_DOMAIN, *_Y0, "experiment.h_amplitude", "game.windows.O",
             *_FOLLOWERS, *_MUS, "game.target_amplitude", *_WEIGHTS),
    # mu_grid sets both penalties
    "convexity": (*_DOMAIN, *_Y0, "experiment.mu_grid", *_FOLLOWERS,
                  "game.target_amplitude", *_WEIGHTS),
    "observability": (*_DOMAIN, "experiment.samples", "game.windows.O",
                      *_FOLLOWERS, *_MUS, *_WEIGHTS),
    "linear-control": (*_DOMAIN, *_Y0, "experiment.budget_limit", *_HUM),
    "nonlinear-control": (*_DOMAIN, *_Y0, "experiment.scale_factors",
                          *_HUM, "game.target_amplitude", "solver.newton_tol",
                          "solver.newton_max", "solver.tol_terminal"),
    "diagnostics": (*_DOMAIN, *_Y0, *_WEIGHTS, "carleman.cap_ratio"),
    # the problem it refines, without its weights or game
    "mms-convergence": _DOMAIN,
}


def _overlap(w, o) -> bool:
    return max(w[0], o[0]) < min(w[1], o[1])


# The source paper's ties to the leader window O: (field, the rule its
# interval w keeps with O, the issue when it does not), checked only in
# a run that reads the field and O.  carleman.alpha_p's interval is the
# bridge [alpha_p, beta_p], whose two fields a run reads together.
TIES = (
    *[(f"game.windows.{name}", lambda w, o: not _overlap(w, o),
       f"game.windows: follower window {name} must be disjoint from O")
      for name in ("O1", "O2")],
    ("game.windows.Od", _overlap,
     "game.windows: observation window Od must intersect O"),
    ("carleman.alpha_p", lambda w, o: o[0] < w[0] and w[1] < o[1],
     "carleman: [alpha', beta']=[{w[0]},{w[1]}] not inside O={o}"),
)


def _mesh(cfg: dict) -> TimeMesh | None:
    """The run's time mesh; None where grid.M or geometry.T is refused."""
    M, T = cfg["grid"]["M"], cfg["geometry"]["T"]
    return TimeMesh(M, T) if 8 <= M <= 4096 and T > 0 else None


def _zero_to_roundoff(cfg: dict, *kappas: str) -> bool:
    """Whether F's `kappas` all act as 0: each is 0 or, on the run's mesh,
    so small that its step dt |kappa| is below the roundoff of 1."""
    mesh = _mesh(cfg)
    return all(k == 0 or (mesh is not None and 1.0 + mesh.dt * abs(k) == 1.0)
               for k in (cfg["nonlinearity"][name] for name in kappas))


def accepted_fields(cfg: dict) -> set:
    """The fields that validation accepts set apart from their defaults
    in `cfg`, a well-typed config of a known kind: the fields its run
    reads (its kind's entry of READS, F's unless the kind is one of
    F_ZERO_KINDS, schema_version and the kind, less the fields that the
    config's other values leave unused)."""
    kind = cfg["experiment"]["kind"]
    fields = {"schema_version", "experiment.kind", *READS[kind]}
    if kind not in F_ZERO_KINDS:
        fields.update(_F)
    if _zero_to_roundoff(cfg, "kappa2"):
        # the gradient weight reaches a run only through kappa2 sin(w)
        fields.discard("geometry.b_exp")
    g = cfg["geometry"]
    if g["family"] == "constant":  # l(t) = l0
        fields.discard("geometry.k")
    if g["family"] != "sinusoidal":  # w is the sinusoid's frequency
        fields.discard("geometry.w")
    if g["family"] == "constant" and g["l0"] == 1.0:
        # the followers' time weight is l(t) = 1 with or without it
        fields.discard("game.jacobian_weighting")
    if kind in ("forward", "nash") and cfg["experiment"]["h_amplitude"] == 0:
        # there O is only the support of the leader's source h
        fields.discard("game.windows.O")
    if kind in ("nash", "convexity") and cfg["game"]["target_amplitude"] == 0:
        # the weights reach these runs only through the targets' profile
        fields.difference_update(_WEIGHTS)
    return fields


def _flat(tree: dict, path: str = "") -> dict:
    """{dotted field name: value} of a config, the windows included and a
    window given as a tuple read as the list that JSON gives."""
    out = {}
    for key, val in tree.items():
        here = f"{path}.{key}" if path else key
        if isinstance(val, dict):
            out.update(_flat(val, here))
        else:
            out[here] = list(val) if isinstance(val, tuple) else val
    return out


def _unread_issues(cfg: dict) -> list:
    """The fields, set apart from their defaults, that the run of `cfg`
    (a config that `build_run` builds) does not read."""
    kind = cfg["experiment"]["kind"]
    accepted, values = accepted_fields(cfg), _flat(cfg)
    return [f"{name}: a {kind} run does not read this field; leave it at "
            f"its default {default!r}"
            for name, default in _flat(_DEFAULTS).items()
            if name not in accepted and values[name] != default]


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
        if isinstance(base[key], dict):
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
    tuple: ("a pair [a, b] of numbers", lambda v: isinstance(
        v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v))),
}
# the type of a field that is not its default's: a window is a pair, and
# a field whose default is None has this type when it is set
_FIELD_TYPES = {"carleman.lam": float, "carleman.m_floor": float,
                "experiment.budget_limit": float,
                **{f"game.windows.{name}": tuple for name in WINDOWS}}


def _type_issues(base: dict, cfg: dict, path: str) -> list:
    """Fields whose value does not have the type of their default."""
    issues = []
    for key, default in base.items():
        here = f"{path}.{key}" if path else key
        val = cfg[key]
        if isinstance(default, dict):
            issues.extend(_type_issues(default, val, here))
        elif default is not None or val is not None:
            name, ok = _TYPES[_FIELD_TYPES.get(here, type(default))]
            if not ok(val):
                issues.append(f"{here}: expected {name}, got {val!r}")
    return issues


def validate_config(config: ScenarioConfig | dict) -> list:
    """Returns the full list of offending fields (empty means valid): the
    issues that `build_run` raises or, once it builds the run, each field
    that differs from its default and that the run of the config's kind
    does not read (`accepted_fields`)."""
    try:
        if not isinstance(config, ScenarioConfig):
            config = ScenarioConfig.from_dict(config)
        build_run(config)
    except ConfigError as exc:
        return exc.issues
    return _unread_issues(config.data)


def build_run(config: ScenarioConfig | dict) -> tuple:
    """(prob, weights, game): the problem, Carleman weights and game that
    the run of `config`, a ScenarioConfig or its overrides of the
    defaults, runs on.  The one builder of a problem.

    Raises ConfigError with every offending field.  Every field must
    first have the type of its default.  Then the run is built: each spec
    checks its own fields, and its refusal is an issue under its config
    section; the rules that no spec owns are checked here.  A spec is
    built once the fields it is built from pass the rules here, so that
    every field is reported once.
    """
    if not isinstance(config, ScenarioConfig):
        config = ScenarioConfig.from_dict(config)
    cfg = config.data
    issues = _type_issues(_DEFAULTS, cfg, "")
    if issues:
        raise ConfigError(issues)
    if cfg["schema_version"] != SCHEMA_VERSION:
        issues.append(f"schema_version: must be {SCHEMA_VERSION}, the "
                      f"version this package reads, got "
                      f"{cfg['schema_version']!r}")

    def build(section, make, *args, **kwargs):
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            issues.append(f"{section}: {exc}")
            return None

    g, grid, game = cfg["geometry"], cfg["grid"], cfg["game"]
    deg = build("geometry", DegeneracySpec, g["alpha"])
    gw = build("geometry", GradientWeightSpec, g["b_exp"])
    dom = build("geometry", MovingDomainSpec, T=g["T"], family=g["family"],
                l0=g["l0"], k=g["k"], w=g["w"])
    grid_issues = [issue for bad, issue in (
        (not 8 <= grid["N"] <= 1024, "grid.N: supported range is [8, 1024]"),
        (not 8 <= grid["M"] <= 4096, "grid.M: supported range is [8, 4096]"),
        (grid["gamma"] < 1.0, "grid.gamma: grading exponent must be >= 1"),
    ) if bad]
    issues.extend(grid_issues)
    nodes, mesh = None, _mesh(cfg)
    if not grid_issues:
        nodes = build("grid", SpatialGrid, grid["N"], grid["gamma"])
    if dom is not None:
        # the paper's l(t) >= 1, over the mesh times (l0 without a mesh)
        times = mesh.times if mesh is not None else np.zeros(1)
        ell = dom.ell(times)
        least = int(np.argmin(ell))
        if ell[least] < 1.0:
            issues.append(f"geometry: l(t) must be at least 1 on [0,T]; "
                          f"its least value is {ell[least]:.6g}, at "
                          f"t = {times[least]:.6g}")
        # the coefficients read l and l' at the mesh times
        if (mesh is not None and dom.family != "constant"
                and np.all(ell == dom.l0)
                and np.all(dom.l0 + dom.ell_prime(times) == dom.l0)):
            issues.append(f"geometry: l(t) is l0 and l'(t) is below its "
                          f"roundoff at every time of the mesh, so this "
                          f"{dom.family} domain does not move; use family "
                          f"constant")
    windows = build("game.windows", ControlGeometry,
                    **{name: tuple(game["windows"][name]) for name in WINDOWS})
    params = build("carleman", CarlemanParams, **cfg["carleman"])
    nl, kind = cfg["nonlinearity"], cfg["experiment"]["kind"]
    # the window rules bind only the windows the run reads
    read = accepted_fields(cfg) if kind in KINDS else set()
    if windows is not None:
        # the ties of the built windows, and the bridge's once it is built
        o = windows.O
        spans = {f"game.windows.{name}": getattr(windows, name)
                 for name in WINDOWS}
        if params is not None:
            spans["carleman.alpha_p"] = (params.alpha_p, params.beta_p)
        issues.extend(issue.format(w=spans[name], o=o)
                      for name, holds, issue in TIES
                      if {name, "game.windows.O"} <= read and name in spans
                      and not holds(spans[name], o))
    if nl["label"] != "sinusoidal":
        issues.append(f"nonlinearity.label: unknown label {nl['label']!r}; "
                      f"the one label is sinusoidal, and F = 0 is kappa1 = "
                      f"kappa2 = 0")
    # F = 0 in disguise
    if kind in _NEEDS_F and _zero_to_roundoff(cfg, "kappa1", "kappa2"):
        bound = "" if mesh is None else (
            f"; at dt = {mesh.dt:.6g} a |kappa| up to about "
            f"{2.0 ** -53 / mesh.dt:.3g} is 0 to roundoff")
        issues.append(f"nonlinearity: {_NEEDS_F[kind]}; set kappa1 or "
                      f"kappa2 apart from 0{bound}")
    # the manufactured-solution studies measure their errors on the nodes
    # in mms's window; the run's grid is their coarsest, and each finer
    # grid holds its nodes
    if (kind == "mms-convergence" and nodes is not None
            and not np.any((nodes.nodes >= _LO) & (nodes.nodes <= _HI))):
        issues.append(f"grid: no node lies in the manufactured-solution "
                      f"error window [{_LO}, {_HI}], so the studies' "
                      f"errors vanish and their slopes are not defined; "
                      f"lower grid.gamma or raise grid.N")
    prob = weights = None
    empty = [f"window {name}={getattr(windows, name)} holds no interior "
             f"node of the grid" for name in WINDOWS
             if None not in (windows, nodes) and f"game.windows.{name}" in read
             and not windows.indicator(name, nodes.interior).any()]
    if empty:
        issues.append("game.windows: " + "; ".join(empty))
    elif None not in (deg, gw, dom, windows, nodes, mesh):
        prob = CylinderProblem(deg, gw, dom, windows, nodes, mesh,
                               _build_F(cfg))
    if None not in (params, deg, nodes, mesh):
        weights = build("carleman.lam", CarlemanWeights, params, deg, nodes,
                        mesh)
    exp = cfg["experiment"]
    if kind == "observability" and None not in (prob, weights):
        peak = log_observation_peak(prob, weights)
        if peak < _LOG_TINY:
            issues.append(f"carleman.m_floor: the observation weight has no "
                          f"mass on O at this grid (its largest term is "
                          f"e^{peak:.4g})")
    target1 = target2 = None
    if None not in (prob, weights) and game["target_amplitude"] != 0.0:
        target1, target2 = make_default_targets(prob, weights,
                                                game["target_amplitude"])
    spec = build("game", GameSpec, alpha1=game["alpha1"],
                 alpha2=game["alpha2"], mu1=game["mu1"], mu2=game["mu2"],
                 jacobian_weighting=game["jacobian_weighting"],
                 target1=target1, target2=target2)
    if spec is not None:
        for mu in exp["mu_grid"]:
            build("experiment.mu_grid", replace, spec, mu1=float(mu),
                  mu2=float(mu))
    sv = cfg["solver"]
    if sv["newton_max"] < 1:
        issues.append("solver.newton_max: must be at least 1")
    for name in ("newton_tol", "tol_terminal"):
        if sv[name] <= 0:
            issues.append(f"solver.{name}: must be positive")
    if kind not in KINDS:
        issues.append(
            f"experiment.kind: {kind!r} not one of {', '.join(KINDS)}")
    if exp["samples"] < 1:
        issues.append("experiment.samples: must be at least 1")
    factors = exp["scale_factors"]
    repeated = sorted({f for f in factors if factors.count(f) > 1})
    if repeated:
        issues.append(f"experiment.scale_factors: each factor runs once; "
                      f"repeated: {', '.join(map(repr, repeated))}")
    if exp["y0_mode"] not in ("sine", "random"):
        issues.append(f"experiment.y0_mode: unknown {exp['y0_mode']!r}")
    if issues:
        raise ConfigError(issues)
    return prob, weights, spec


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
        "geometry": {"family": "constant"},
        "experiment": {"kind": "mms-convergence"},
    },
}


def list_presets() -> list:
    return sorted(_PRESETS)


def preset(name: str) -> ScenarioConfig:
    if name not in _PRESETS:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(list_presets())}")
    return ScenarioConfig.from_dict(copy.deepcopy(_PRESETS[name]))


@dataclass
class RunRecord:
    """Everything needed to reproduce and audit one scenario run."""

    config_hash: str
    seed: int
    kind: str
    timings: dict
    report: dict
    outputs: list

    def to_json(self, path=None) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "kind": self.kind,
            "timings": self.timings,
            "report": self.report,
            "outputs": self.outputs,
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text


def _build_F(cfg: dict) -> SemilinearF:
    if cfg["experiment"]["kind"] in F_ZERO_KINDS:
        return SemilinearF.sinusoidal(0.0, 0.0)
    nl = cfg["nonlinearity"]
    return SemilinearF.sinusoidal(nl["kappa1"], nl["kappa2"])


def _initial_data(cfg: dict, prob: CylinderProblem,
                  rng: np.random.Generator) -> np.ndarray:
    exp = cfg["experiment"]
    x = prob.grid.nodes
    if exp["y0_mode"] == "random":
        modes = np.arange(1, 6)
        coeff = rng.standard_normal(modes.size) / modes
        y0 = exp["y0_amplitude"] * (
            np.sin(np.pi * np.outer(x, modes)) @ coeff)
    else:
        y0 = exp["y0_amplitude"] * np.sin(np.pi * x)
    y0[0] = y0[-1] = 0.0
    return y0


def _write_csv(path: Path, header: str, rows: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(rows), delimiter=",", header=header,
               comments="")


def run_scenario(config: ScenarioConfig | dict, out_dir,
                 seed: int = 0) -> RunRecord:
    """Runs one experiment, writes its artifacts, returns the record.

    Raises ConfigError, before out_dir is made, for the issues of
    `validate_config`."""
    if not isinstance(config, ScenarioConfig):
        config = ScenarioConfig.from_dict(config)
    cfg = config.data
    t_start = time.perf_counter()
    built = build_run(config)
    unread = _unread_issues(cfg)
    if unread:
        raise ConfigError(unread)
    kind = cfg["experiment"]["kind"]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    outputs: list = []
    report = _RUNNERS[kind](cfg, *built, out, rng, outputs)
    timings = {"total_s": round(time.perf_counter() - t_start, 3)}
    record = RunRecord(config_hash=config.canonical_hash(), seed=seed,
                       kind=kind, timings=timings, report=report,
                       outputs=outputs)
    record.to_json(out / "report.json")
    outputs.append("report.json")
    config.to_json(out / "config.json")
    return record


def _leader_source(cfg: dict, prob: CylinderProblem):
    """The leader's source h_amplitude sin(pi x); None at amplitude 0."""
    a = cfg["experiment"]["h_amplitude"]
    return None if a == 0.0 else TrajectoryField.from_function(
        prob.grid, prob.mesh, lambda x, t: a * np.sin(np.pi * x))


def _run_forward(cfg, prob, weights, game, out, rng, outputs):
    y0 = _initial_data(cfg, prob, rng)
    y = solve_forward_semilinear(prob, y0, h=_leader_source(cfg, prob))
    dump_trajectory_csv(y, out / "state.csv")
    outputs.append("state.csv")
    sup_l2, grad_energy = energy_diagnostics(prob, y)
    return {
        "y0_l2": prob.grid.norm(y0),
        "terminal_l2": prob.grid.norm(y.values[-1]),
        "l2q": y.l2q_norm(),
        "sup_l2": sup_l2,
        "grad_energy": grad_energy,
    }


def _run_nash(cfg, prob, weights, game, out, rng, outputs):
    y0 = _initial_data(cfg, prob, rng)
    h = _leader_source(cfg, prob)
    sol = nash_fixed_point(prob, game, h, y0)
    # the gradients of J_1, J_2 at the equilibrium, relative to 1 + |v^i|
    grads = functional_gradient(prob, game, h, sol.v1, sol.v2, y0)
    residuals = {f"grad_J{i}": g.l2q_norm() / (1.0 + v.l2q_norm())
                 for i, (g, v) in enumerate(zip(grads, (sol.v1, sol.v2)),
                                            start=1)}
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
        "residuals": residuals,
        "J1": J1,
        "J2": J2,
    }


def _run_convexity(cfg, prob, weights, game, out, rng, outputs):
    y0 = _initial_data(cfg, prob, rng)
    margins = []
    for mu in map(float, cfg["experiment"]["mu_grid"]):
        game = replace(game, mu1=mu, mu2=mu)
        state = nash_fixed_point(prob, game, None, y0)
        m = convexity_margin(prob, game, state, rng)
        margins.append((mu, m["margin"], m["certified"]))
    fit = fit_mu_star(prob, game, None, y0)
    _write_csv(out / "margins.csv", "mu,margin,certified",
               np.array([(a, b, float(c)) for a, b, c in margins]))
    outputs.append("margins.csv")
    return {
        "mu_grid": [m[0] for m in margins],
        "margins": [m[1] for m in margins],
        "certified": [bool(m[2]) for m in margins],
        "mu_star": fit["mu_star"],
    }


def _run_observability(cfg, prob, weights, game, out, rng, outputs):
    n = cfg["experiment"]["samples"]
    # one block solve and one set of weight roots serve both samplers
    couplings = game.couplings(prob)
    shared = (adjoint_basis(prob, couplings), weight_roots(prob, weights))
    obs = empirical_observability(prob, weights, couplings, *shared,
                                  samples=n, rng=rng)
    car = empirical_carleman(prob, weights, *shared, samples=n, rng=rng)
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


def _run_linear_control(cfg, prob, weights, game, out, rng, outputs):
    y0 = _initial_data(cfg, prob, rng)
    triple = HUMSolver(prob, weights, game).solve(y0)
    est = verify_additional_estimates(prob, weights, triple)
    limit = cfg["experiment"]["budget_limit"]
    dump_trajectory_csv(triple.y, out / "state.csv")
    dump_trajectory_csv(triple.h, out / "leader.csv")
    outputs.extend(["state.csv", "leader.csv"])
    return {
        "terminal_l2": triple.terminal_norm,
        "y0_l2": prob.grid.norm(y0),
        "budget_constant": triple.budget_constant,
        "budget_exceeded": (limit is not None
                            and triple.budget_constant > limit),
        "kappa0": triple.kappa0,
        "reconstruction": triple.residuals,
        "additional_estimates": {k: est[k] for k in
                                 ("C_prop5", "C_prop6", "all_finite")},
    }


def _run_nonlinear_control(cfg, prob, weights, game, out, rng, outputs):
    sv = cfg["solver"]
    base_y0 = _initial_data(cfg, prob, rng)
    hum = HUMSolver(prob, weights, game)
    results = {}
    # the report keys a factor as a float however the config spells it
    for factor in map(float, cfg["experiment"]["scale_factors"]):
        y0 = factor * base_y0
        try:
            triple, history = solve_nonlinear_null_control(
                hum, y0, sv["newton_tol"], sv["tol_terminal"],
                sv["newton_max"])
        except NewtonFailureError as exc:
            results[str(factor)] = {"converged": False,
                                    "failure": type(exc).__name__,
                                    "failure_reason": exc.reason}
            continue
        v = hum.couplings.controls(prob, (triple.p1.values, triple.p2.values))
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


def _run_diagnostics(cfg, prob, weights, game, out, rng, outputs):
    report = weights.identity_report()
    weights.to_csv(out / "weights.csv")
    outputs.append("weights.csv")
    y0 = _initial_data(cfg, prob, rng)
    y = solve_forward_semilinear(prob, y0)
    sup_l2, grad_energy = energy_diagnostics(prob, y)
    return {
        "weight_identities": {k: report[k] for k in
                              ("identity_log_rel", "comp_pesos_ok",
                               "lambda", "zeta0")},
        "sup_l2": sup_l2,
        "grad_energy": grad_energy,
    }


def _run_mms(cfg, prob, weights, game, out, rng, outputs):
    """Manufactured-solution studies of the run's problem; both slopes."""
    tstudy = time_order_study(prob)
    sstudy = space_order_study(prob)
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
KINDS = tuple(_RUNNERS)

