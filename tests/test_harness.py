"""Scenario configs, presets, deterministic runs and the CLI."""

import json
import os
import subprocess
import sys
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

import degcontrol
from degcontrol import cli, harness, nullcontrol, solvers


def _tiny(kind="forward", **experiment):
    return {
        "grid": {"N": 32, "M": 48},
        "experiment": {"kind": kind, **experiment},
    }


# O1 overlapping the default O
_OVERLAP = {"game": {"windows": {"O1": [0.4, 0.6]}}}
_NEWTON = {"grid": {"N": 16, "M": 16},
           "experiment": {"kind": "nonlinear-control"}}
_COARSE = {"N": 8, "M": 8}


class TestConfig:
    def test_defaults_validate(self):
        config = harness.ScenarioConfig.from_dict({})
        assert harness.validate_config(config) == []

    def test_unknown_field_rejected(self):
        with pytest.raises(harness.ConfigError, match="nonsense"):
            harness.ScenarioConfig.from_dict({"grid": {"nonsense": 3}})

    def test_window_overlap_rejected(self):
        # the windows merge field by field; an observability run reads O
        # and O1, so O1 overlapping O must be refused
        config = harness.ScenarioConfig.from_dict(
            {**_OVERLAP, "experiment": {"kind": "observability"}})
        issues = harness.validate_config(config)
        assert any("disjoint" in s for s in issues)

    def test_all_issues_reported(self):
        config = harness.ScenarioConfig.from_dict(
            {"geometry": {"alpha": 2.0}, **_OVERLAP,
             "experiment": {"kind": "observability"}})
        issues = harness.validate_config(config)
        assert len(issues) >= 2
        assert any("alpha" in s for s in issues)
        assert any("disjoint" in s for s in issues)

    def test_every_refused_carleman_field_reported(self):
        issues = harness.validate_config(
            {"carleman": {"s": 0.0, "m_floor": -1.0}})
        assert any("s must be positive" in s for s in issues)
        assert any("m_floor must be positive" in s for s in issues)

    def test_hash_stable_under_key_order(self):
        a = harness.ScenarioConfig.from_dict(
            {"grid": {"N": 32, "M": 48}})
        b = harness.ScenarioConfig.from_dict(
            {"grid": {"M": 48, "N": 32}})
        assert a.canonical_hash() == b.canonical_hash()

    @pytest.mark.parametrize("geometry, word", [
        ({"family": "sinusoidal", "k": 1.5}, "sinusoidal"),
        ({"family": "affine", "k": -2.0}, "positive"),
        ({"family": "spiral"}, "family"),
        ({"b_exp": 0.5}, "b_exp"),
    ])
    def test_domain_checked_by_validation(self, geometry, word):
        config = harness.ScenarioConfig.from_dict({"geometry": geometry})
        issues = harness.validate_config(config)
        assert any(word in s for s in issues)

    @pytest.mark.parametrize("geometry, least", [
        ({"k": -0.5}, "its least value is 0.5, at t = 1"),
        ({"family": "exponential", "k": -0.2, "T": 2.0},
         "its least value is 0.67032, at t = 2"),
        ({"l0": 0.5, "k": 1.0}, "its least value is 0.5, at t = 0"),
    ], ids=["affine", "exponential", "l0"])
    def test_domain_scale_checked_over_the_run(self, geometry, least):
        # the hypothesis l(t) >= 1 holds on the whole time mesh, not only
        # at t = 0
        issues = harness.validate_config({"geometry": geometry})
        assert issues == ["geometry: l(t) must be at least 1 on [0,T]; "
                          + least]

    @pytest.mark.parametrize("base, changed", [
        ({"l0": 1.0}, {"l0": 2.0}),
        ({"family": "sinusoidal", "k": 0.3, "w": 1.0},
         {"family": "sinusoidal", "k": 0.3, "w": 3.0}),
        # l(t) = l0 at the 48 mesh times, but l'(t) is not 0 there
        ({"family": "constant"},
         {"family": "sinusoidal", "k": 1e-3, "w": 48 * np.pi}),
    ])
    def test_domain_fields_change_the_run(self, tmp_path, base, changed):
        reports = []
        for name, geometry in (("a", base), ("b", changed)):
            config = {**_tiny(), "geometry": geometry}
            harness.run_scenario(config, tmp_path / name, seed=0)
            reports.append(json.loads(
                (tmp_path / name / "report.json").read_text())["report"])
        assert reports[0] != reports[1]

    @pytest.mark.parametrize("section, name", [
        ("solver", "picard_tol"),
        ("solver", "max_sweeps"),
        ("experiment", "refine"),
    ])
    def test_unread_fields_are_unknown(self, tmp_path, capsys, section,
                                       name):
        # a field no run reads is refused: two configs differing only in
        # it would hash apart yet run the same
        config = {section: {name: 1}}
        assert harness.validate_config(config) == [
            f"unknown field {section}.{name}"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG
        assert f"{section}.{name}" in capsys.readouterr().err

    def test_roundtrip_json(self, tmp_path):
        config = harness.ScenarioConfig.from_dict(_tiny())
        path = tmp_path / "c.json"
        config.to_json(path)
        again = harness.ScenarioConfig.from_json(path)
        assert again.canonical_hash() == config.canonical_hash()


class TestBuildRun:
    def test_every_issue_in_one_error(self):
        with pytest.raises(harness.ConfigError) as err:
            harness.build_run({"grid": {"N": 4}, "geometry": {"alpha": 1.5}})
        assert err.value.issues == [
            "geometry: alpha must lie in (0,1), got 1.5",
            "grid.N: supported range is [8, 1024]"]

    @pytest.mark.parametrize("geometry, issue", [
        ({"family": "bogus"},
         "geometry: unknown ell family 'bogus'; options: ('constant', "
         "'affine', 'exponential', 'sinusoidal')"),
        ({"family": "affine", "k": -2.0},
         "geometry: l(t) must stay positive on [0,T]"),
    ], ids=["family", "positive"])
    def test_refused_domain_keeps_the_mesh_issues(self, geometry, issue):
        # the time mesh needs only grid.M and T, so the Carleman weights
        # are still built and checked beside a refused domain
        assert harness.validate_config(
            {"geometry": geometry, "carleman": {"lam": 0.001}}) == [
            issue, "carleman.lam: lambda=0.001 below admissible minimum "
                   "0.6175"]

    def test_negative_horizon_reported_once(self):
        assert harness.validate_config({"geometry": {"T": -1.0}}) == [
            "geometry: T must be positive"]

    def test_alpha_and_b_exp_both_reported(self):
        # the gradient weight is built from b_exp alone
        assert harness.validate_config(
            {"geometry": {"alpha": 1.5, "b_exp": 0.5}}) == [
            "geometry: alpha must lie in (0,1), got 1.5",
            "geometry: b_exp must exceed 1, got 0.5"]

    def test_returns_the_run_s_triple(self, tmp_path, monkeypatch):
        config = {"grid": {"N": 16, "M": 16}, "game": {"mu2": 3.0},
                  "experiment": {"kind": "nash"}}
        seen = []

        def runner(cfg, prob, weights, game, out, rng, outputs):
            seen.append((prob, weights, game))
            return {}

        monkeypatch.setitem(harness._RUNNERS, "nash", runner)
        harness.run_scenario(config, tmp_path)
        (run_prob, run_weights, run_game), = seen
        prob, weights, game = harness.build_run(config)
        assert np.array_equal(prob.linearized_ops().bands,
                              run_prob.linearized_ops().bands)
        assert np.array_equal(weights.log_rho0, run_weights.log_rho0)
        assert (game.alphas, game.mus) == (run_game.alphas, run_game.mus)
        for target, run_target in zip(game.targets(prob),
                                      run_game.targets(run_prob)):
            assert np.array_equal(target.values, run_target.values)

    def test_default_problem_is_the_config_s(self):
        # perfbench's duality check measures CylinderProblem.default
        probs = (degcontrol.CylinderProblem.default(32, 64),
                 harness.build_run({"grid": {"N": 32, "M": 64}})[0])
        assert np.array_equal(*(p.linearized_ops().bands for p in probs))

    @pytest.mark.parametrize("make", [
        "GradientWeightSpec", "MovingDomainSpec", "SpatialGrid", "TimeMesh",
        "ControlGeometry", "GameSpec", "CarlemanParams",
        "SemilinearF.sinusoidal"])
    def test_specs_take_no_config_defaults(self, make):
        # the config holds these values; a spec has no second copy
        with pytest.raises(TypeError):
            attrgetter(make)(degcontrol)()


# a valid value apart from its default for every field that some run
# leaves unread, one that changes the outputs of the runs that read it
_PERTURBED = {
    "geometry.b_exp": 3.0, "geometry.k": 0.5, "geometry.w": 2.0,
    "game.windows.O": [0.34, 0.5], "game.windows.O1": [0.6, 0.7],
    "game.windows.O2": [0.7, 0.8], "game.windows.Od": [0.35, 0.65],
    "game.alpha1": 2.0, "game.alpha2": 0.5, "game.mu1": 2.0,
    "game.mu2": 3.0, "game.target_amplitude": 0.5,
    "game.jacobian_weighting": False,
    "nonlinearity.kappa1": 3.0, "nonlinearity.kappa2": 1.0,
    "carleman.s": 3.0, "carleman.lam": 0.9, "carleman.alpha_p": 0.32,
    "carleman.beta_p": 0.47, "carleman.m_floor": 1e-3,
    "carleman.cap_ratio": 1e4,
    "solver.newton_tol": 1e-3, "solver.newton_max": 1,
    "solver.tol_terminal": 1e-14,
    "experiment.y0_amplitude": 0.02, "experiment.y0_mode": "random",
    "experiment.h_amplitude": 0.5, "experiment.samples": 3,
    "experiment.scale_factors": [1.0, 2.0],
    "experiment.mu_grid": [2.0, 10.0], "experiment.budget_limit": 1.0,
}
_FIELDS = set(harness._flat(harness.default_config()))
# the windows and the bridge moved together off their defaults, keeping
# the ties of harness.TIES: O1 and O2 apart from O, Od meeting O and
# [alpha_p, beta_p] inside O
_MOVED = {"game": {"windows": {"O": [0.55, 0.8], "O1": [0.1, 0.2],
                               "O2": [0.85, 0.95], "Od": [0.5, 0.7]}},
          "carleman": {"alpha_p": 0.6, "beta_p": 0.7}}


def _with(config, name, value):
    """A copy of the overrides `config` with the field `name` set."""
    config = json.loads(json.dumps(config))
    *path, key = name.split(".")
    section = config
    for part in path:
        section = section.setdefault(part, {})
    section[key] = value
    return config


def _outputs(config, out) -> tuple:
    """The report without timings and hash, and every CSV, of a run."""
    harness.run_scenario(config, out, seed=0)
    report = json.loads((out / "report.json").read_text())
    del report["timings"], report["config_hash"]
    return report, {p.name: p.read_bytes() for p in out.glob("*.csv")}


def _read(config) -> set:
    return harness.accepted_fields(harness.ScenarioConfig.from_dict(config).data)


# the kinds that run the config's F
_F_KINDS = [kind for kind in harness.KINDS
            if kind not in harness.F_ZERO_KINDS]
# the kinds that accept F = 0: they run the config's F, and their subject
# is not F itself
_ZERO_KINDS = [kind for kind in _F_KINDS if kind not in harness._NEEDS_F]
# the kinds whose followers' time weight is the Jacobian weighting's
_WEIGHTED_KINDS = ("nash", "convexity", "observability", "linear-control",
                   "nonlinear-control")
_CONSTANT = {"geometry": {"family": "constant"}}
_KAPPAS_ZERO = {"nonlinearity": {"kappa1": 0.0, "kappa2": 0.0}}
# F without its gradient term, so without the gradient weight
_KAPPA2_ZERO = {"nonlinearity": {"kappa2": 0.0}}
_SINUSOIDAL = {"geometry": {"family": "sinusoidal"}}
# a leader source, so that forward and nash runs read O
_LEADER = {"experiment": {"h_amplitude": 0.5}}


def _base(kind, condition, grid=(32, 64)):
    return {"grid": dict(zip(("N", "M", "gamma"), grid)), **condition,
            "experiment": {**condition.get("experiment", {}), "kind": kind}}


# the 8-cell grid at gamma 10, whose interior nodes all lie below 0.3, so
# that no window holds one; its last, 0.263, lies in the manufactured-
# solution error window [0.25, 0.9]
_GAMMA_10 = (8, 8, 10.0)


# the runs that read O and every field tied to it
_TIED_RUNS = [("observability", {}), ("linear-control", {}),
              ("nonlinear-control", {}), ("nash", _LEADER)]
# one config per tie of harness.TIES that breaks it at the default O, and
# the issue that names it
_BROKEN_TIES = [
    (_OVERLAP, "game.windows: follower window O1 must be disjoint from O"),
    ({"game": {"windows": {"O2": [0.45, 0.9]}}},
     "game.windows: follower window O2 must be disjoint from O"),
    ({"game": {"windows": {"Od": [0.6, 0.7]}}},
     "game.windows: observation window Od must intersect O"),
    ({"carleman": {"alpha_p": 0.6, "beta_p": 0.7}},
     "carleman: [alpha', beta']=[0.6,0.7] not inside O=(0.3, 0.5)"),
]


def _condition_id(condition):
    if condition == _KAPPAS_ZERO:  # F = 0
        return "kappas-zero"
    return "-".join(f"{key}-{val}" for sec in condition.values()
                    for key, val in sec.items()) or "defaults"


class TestReads:
    def test_table_names_config_fields(self):
        assert set(harness.READS) == set(harness.KINDS)
        for fields in harness.READS.values():
            assert set(fields) <= _FIELDS
        # a field without a _PERTURBED value is read by every kind, but
        # for the label, which has no second value to set
        assert _FIELDS - set(_PERTURBED) - {"nonlinearity.label"} <= (
            set.intersection(*(_read({"experiment": {"kind": kind}})
                               for kind in harness.KINDS)))

    @pytest.mark.parametrize("kind, condition", [
        *[(kind, {}) for kind in harness.KINDS],
        *[(kind, _LEADER) for kind in ("forward", "nash")],
        *[(kind, _CONSTANT) for kind in harness.KINDS],
        *[(kind, {"game": {"target_amplitude": 0.0}})
          for kind in ("nash", "convexity")],
        *[(kind, _KAPPAS_ZERO) for kind in _ZERO_KINDS],
        *[(kind, _KAPPA2_ZERO) for kind in _F_KINDS],
    ], ids=lambda v: v if isinstance(v, str) else _condition_id(v))
    def test_unread_fields_leave_the_run_unchanged(self, tmp_path,
                                                    monkeypatch, kind,
                                                    condition):
        # every field the table refuses, set one at a time with the
        # refusal bypassed, writes the outputs of the base run byte for
        # byte; under a condition that takes fields out of the table,
        # those fields
        plain = _base(kind, {}, grid=(16, 16))
        base = _base(kind, condition, grid=(16, 16))
        unread = ((_read(plain) if condition not in ({}, _LEADER)
                   else set(_PERTURBED)) - _read(base))
        assert unread
        for name in sorted(unread):
            changed = _with(base, name, _PERTURBED[name])
            issues = harness.validate_config(changed)
            assert len(issues) == 1
            assert issues[0].startswith(
                f"{name}: a {kind} run does not read this field")
        monkeypatch.setattr(harness, "_unread_issues", lambda cfg: [])
        expected = _outputs(base, tmp_path / "base")
        for name in sorted(unread):
            changed = _with(base, name, _PERTURBED[name])
            assert _outputs(changed, tmp_path / name) == expected, name

    @pytest.mark.parametrize("kind, condition", [
        *[(kind, condition) for kind in harness.KINDS
          for condition in ({}, _CONSTANT, _SINUSOIDAL, _KAPPAS_ZERO,
                            _KAPPA2_ZERO)
          if (kind in _ZERO_KINDS or condition is not _KAPPAS_ZERO)
          and (kind in _F_KINDS or condition is not _KAPPA2_ZERO)
          and _read(_base(kind, condition)) & set(_PERTURBED)],
        *[(kind, _LEADER) for kind in ("forward", "nash")]],
        ids=lambda v: v if isinstance(v, str) else _condition_id(v))
    def test_accepted_fields_change_the_run(self, tmp_path, kind, condition):
        # every field the table accepts, set alone to its _PERTURBED
        # value (to its default where the base holds that value already),
        # changes the report or a CSV of the base run at (32,64)
        base = _base(kind, condition)
        values = harness._flat(harness.ScenarioConfig.from_dict(base).data)
        defaults = harness._flat(harness.default_config())
        expected = _outputs(base, tmp_path / "base")
        inert = []
        for name in sorted(_read(base) & set(_PERTURBED)):
            value = (defaults[name] if values[name] == _PERTURBED[name]
                     else _PERTURBED[name])
            if _outputs(_with(base, name, value), tmp_path / name) == expected:
                inert.append(name)
        assert inert == []

    @pytest.mark.parametrize("kind", _ZERO_KINDS)
    def test_zero_kappas_are_accepted(self, kind):
        # F = 0 reads the kappas, but not the gradient weight
        config = {"grid": {"N": 16, "M": 16}, **_KAPPAS_ZERO,
                  "experiment": {"kind": kind}}
        assert harness.validate_config(config) == []
        assert set(harness._F) - _read(config) == {"geometry.b_exp"}

    @pytest.mark.parametrize("kind", harness._NEEDS_F)
    def test_kappa_below_roundoff_is_f_zero(self, tmp_path, monkeypatch,
                                            kind):
        # a kappa whose step dt |kappa| is below the roundoff of 1 is
        # refused as F = 0; with the refusal bypassed, kappa2 1e-300
        # writes the outputs of F = 0 byte for byte
        base = _base(kind, _KAPPAS_ZERO)
        dt = harness.build_run(_base(kind, {}))[0].mesh.dt
        least = 2.0 ** -53 / dt
        while 1.0 + dt * least == 1.0:
            least = np.nextafter(least, np.inf)
        refused = float(np.nextafter(least, 0.0))
        for name in ("nonlinearity.kappa1", "nonlinearity.kappa2"):
            for kappa in (refused, -refused):
                issues = harness.validate_config(_with(base, name, kappa))
                assert len(issues) == 1
                assert issues[0].startswith(
                    f"nonlinearity: {harness._NEEDS_F[kind]}")
            assert harness.validate_config(
                _with(base, name, float(least))) == []
        # the gradient weight goes with kappa2's term; without a valid
        # mesh only kappa2 = 0 drops it
        plain = _base(kind, {})
        assert "geometry.b_exp" not in _read(
            _with(plain, "nonlinearity.kappa2", refused))
        assert "geometry.b_exp" in _read(
            _with(plain, "nonlinearity.kappa2", float(least)))
        assert "geometry.b_exp" in _read(_with(
            _with(plain, "nonlinearity.kappa2", refused), "grid.M", 4))
        monkeypatch.setattr(harness, "_NEEDS_F", {})
        expected = _outputs(base, tmp_path / "zero")
        assert _outputs(_with(base, "nonlinearity.kappa2", 1e-300),
                        tmp_path / "tiny") == expected
        if kind == "nonlinear-control":
            # the smallest accepted kappa moves the Newton loop's outputs;
            # a convexity run's margins, mu plus a term of order kappa,
            # keep their bits up to kappa1 near 1e-13 and kappa2 near
            # 2e-12 at (32,64) (ROADMAP defect 4)
            for name in ("nonlinearity.kappa1", "nonlinearity.kappa2"):
                assert _outputs(_with(base, name, float(least)),
                                tmp_path / name) != expected

    @pytest.mark.parametrize("kind", _WEIGHTED_KINDS)
    @pytest.mark.parametrize("geometry, read", [
        ({"family": "constant"}, False),
        ({"family": "constant", "l0": 2.0}, True), ({}, True)],
        ids=["constant", "constant-l0-2", "affine"])
    def test_jacobian_weighting_needs_a_moving_time_weight(self, kind,
                                                           geometry, read):
        # the field is read where l(t) differs from 1 at some mesh time:
        # on every domain but the constant one at l0 1, since build_run
        # refuses a moving family that does not move at the mesh times
        config = {"grid": {"N": 16, "M": 16}, "geometry": geometry,
                  "game": {"jacobian_weighting": False},
                  "experiment": {"kind": kind}}
        issues = harness.validate_config(config)
        assert ("game.jacobian_weighting" in _read(config)) == read
        assert issues == ([] if read else [
            f"game.jacobian_weighting: a {kind} run does not read this "
            f"field; leave it at its default True"])

    @pytest.mark.parametrize("kind, condition", _TIED_RUNS,
                             ids=lambda v: v if isinstance(v, str)
                             else _condition_id(v))
    def test_window_tie_binds_a_run_that_reads_both_fields(self, kind,
                                                           condition):
        # the run reads O, the follower and observation windows and the
        # bridge: it takes them moved together, and refuses each broken
        # tie
        base = _base(kind, condition, grid=(16, 16))
        assert harness.validate_config({**base, **_MOVED}) == []
        for broken, issue in _BROKEN_TIES:
            assert issue in harness.validate_config({**base, **broken})

    @pytest.mark.parametrize("kind, condition, broken", [
        ("diagnostics", {}, _BROKEN_TIES[3][0]),
        ("forward", _LEADER, {"game": {"windows": {"O": [0.55, 0.8]}}}),
        ("nash", {}, _OVERLAP), ("convexity", {}, _OVERLAP)],
        ids=["diagnostics-bridge", "forward-O", "nash-O1", "convexity-O1"])
    def test_window_tie_binds_no_run_that_reads_one_field(self, kind,
                                                          condition, broken):
        # diagnostics reads the bridge but no window, forward at
        # h_amplitude 0.5 reads O alone, and nash at h_amplitude 0 and
        # convexity read the follower windows but not O
        base = _base(kind, condition, grid=(16, 16))
        assert harness.validate_config({**base, **broken}) == []

    @pytest.mark.parametrize("kind, condition", [
        *[(kind, {}) for kind in harness.KINDS],
        *[(kind, _LEADER) for kind in ("forward", "nash")],
        ("mms-convergence", _CONSTANT)],
        ids=lambda v: v if isinstance(v, str) else _condition_id(v))
    def test_window_without_a_node_binds_the_runs_that_read_it(self, kind,
                                                               condition):
        # at gamma 10 no window holds an interior node of the 8-cell
        # grid: a run is refused for the windows it reads, in one issue,
        # and a run that reads none validates
        config = _base(kind, condition, grid=_GAMMA_10)
        windows = harness.default_config()["game"]["windows"]
        read = [f"window {name}={tuple(windows[name])} holds no interior "
                f"node of the grid" for name in harness.WINDOWS
                if f"game.windows.{name}" in _read(config)]
        assert harness.validate_config(config) == (
            ["game.windows: " + "; ".join(read)] if read else [])

    def test_moved_bridge_moves_the_weights(self, tmp_path):
        base = {"grid": {"N": 16, "M": 16},
                "experiment": {"kind": "diagnostics"}}
        harness.run_scenario(base, tmp_path / "base")
        harness.run_scenario({**base, "carleman": _MOVED["carleman"]},
                             tmp_path / "moved")
        assert ((tmp_path / "base" / "weights.csv").read_bytes()
                != (tmp_path / "moved" / "weights.csv").read_bytes())

    def test_builder_takes_unread_fields(self):
        # tests build problems of the default (forward) kind with game
        # and Carleman overrides
        config = {"grid": _COARSE, "game": {"mu1": 2.0},
                  "carleman": {"s": 3.0}}
        prob, weights, game = harness.build_run(config)
        assert (game.mu1, weights.s) == (2.0, 3.0)
        assert harness.validate_config(config) == [
            "game.mu1: a forward run does not read this field; leave it "
            "at its default 5.0",
            "carleman.s: a forward run does not read this field; leave it "
            "at its default 2.0"]


class TestPresets:
    def test_all_presets_validate(self):
        for name in harness.list_presets():
            assert harness.validate_config(harness.preset(name)) == []

    def test_mms_convergence_is_a_kind(self, tmp_path):
        # the preset is an experiment kind with its own runner
        assert "mms-convergence" in harness.KINDS
        config = harness.preset("mms-convergence")
        assert config["experiment"]["kind"] == "mms-convergence"
        record = harness.run_scenario(config, tmp_path, seed=0)
        assert record.kind == "mms-convergence"
        assert record.report["time_slope"] == pytest.approx(1.0, abs=0.15)
        assert record.report["space_slope"] == pytest.approx(2.0, abs=0.3)
        assert record.outputs == ["mms_time.csv", "mms_space.csv",
                                  "report.json"]

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="theorem1-small-data"):
            harness.preset("no-such-preset")


_KIND_MMS = {"experiment": {"kind": "mms-convergence"}}
_MMS = {"grid": {"N": 16, "M": 16}, **_KIND_MMS}


def _mms_csvs(config, out) -> tuple:
    harness.run_scenario(config, out, seed=0)
    return tuple((out / name).read_bytes()
                 for name in ("mms_time.csv", "mms_space.csv"))


class TestMmsConvergence:
    def test_affine_domain_states_drift_order(self, tmp_path):
        # on the default (affine) domain the upwind drift -B x y_x makes
        # the space order 1 (0.981 measured at the default grid)
        record = harness.run_scenario(_KIND_MMS, tmp_path, seed=0)
        assert 0.8 <= record.report["space_slope"] <= 1.3
        assert record.report["time_slope"] == pytest.approx(1.0, abs=0.15)

    @pytest.mark.parametrize("section, fields", [
        ("geometry", {"alpha": 0.9}),
        ("geometry", {"family": "constant"}),
        ("geometry", {"k": 0.5}),
        ("geometry", {"l0": 1.5}),
        ("geometry", {"T": 2.0}),
        ("grid", {"N": 32}),
        ("grid", {"M": 32}),
        ("grid", {"gamma": 1.5}),
    ], ids=lambda v: v if isinstance(v, str) else "-".join(v))
    def test_every_field_moves_the_run(self, tmp_path, section, fields):
        changed = {**_MMS, section: {**_MMS.get(section, {}), **fields}}
        base = _mms_csvs(_MMS, tmp_path / "base")
        moved = _mms_csvs(changed, tmp_path / "changed")
        assert all(a != b for a, b in zip(base, moved))

    def test_config_is_not_ignored(self, tmp_path):
        # a small grid, alpha 0.9 and the constant family once wrote the
        # default config's CSVs byte for byte
        config = {**_MMS, "geometry": {"alpha": 0.9, "family": "constant"}}
        assert all(a != b for a, b in zip(
            _mms_csvs(config, tmp_path / "small"),
            _mms_csvs(_KIND_MMS, tmp_path / "default")))

    def test_smallest_grid_runs(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid": _COARSE, **_KIND_MMS}))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert all(np.isfinite(report["report"][key])
                   for key in ("time_slope", "space_slope"))


class TestRuns:
    def test_forward_zero_data(self, tmp_path):
        record = harness.run_scenario(
            _tiny(y0_amplitude=0.0), tmp_path, seed=0)
        assert record.kind == "forward"
        assert record.report["sup_l2"] == pytest.approx(0.0, abs=1e-14)
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "config.json").exists()

    def test_deterministic_repeat(self, tmp_path):
        config = _tiny("nash", y0_amplitude=0.02, h_amplitude=0.02)
        rec1 = harness.run_scenario(config, tmp_path / "a", seed=3)
        rec2 = harness.run_scenario(config, tmp_path / "b", seed=3)
        r1 = {k: v for k, v in rec1.report.items() if k != "timings"}
        r2 = {k: v for k, v in rec2.report.items() if k != "timings"}
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_seed_changes_random_data(self, tmp_path):
        config = _tiny(y0_mode="random", y0_amplitude=0.02)
        rec1 = harness.run_scenario(config, tmp_path / "a", seed=1)
        rec2 = harness.run_scenario(config, tmp_path / "b", seed=2)
        assert rec1.report["sup_l2"] != rec2.report["sup_l2"]

    def test_unweighted_followers_reach_equilibrium(self, tmp_path):
        # without the Jacobian factor the leader's HUM system must carry
        # the same follower map v_i = -p_i 1_Oi / (mu_i l(t)) as the Nash
        # layer that checks it
        config = {"grid": {"N": 32, "M": 64},
                  "game": {"jacobian_weighting": False},
                  "experiment": {"kind": "nonlinear-control",
                                 "scale_factors": [1.0, 3.0]}}
        record = harness.run_scenario(config, tmp_path, seed=0)
        for res in record.report["scales"].values():
            assert res["converged"]
            assert max(res["quasi_equilibrium_residuals"]) <= 1e-9

    def test_unweighted_observability_runs(self, tmp_path):
        # the sampled adjoint system carries the game's couplings, so
        # dropping the Jacobian factor (wt = l(t)) changes the ratios
        reports = []
        for weighting in (True, False):
            path = tmp_path / f"{weighting}.json"
            path.write_text(json.dumps({
                **_tiny("observability"),
                "game": {"jacobian_weighting": weighting}}))
            out = tmp_path / f"out-{weighting}"
            assert cli.main(["run", "--config", str(path),
                             "--out", str(out)]) == cli.EXIT_OK
            reports.append(json.loads((out / "report.json").read_text()))
        for key in ("observability_max_ratio", "carleman_max_ratio"):
            assert reports[0]["report"][key] != reports[1]["report"][key]

    @pytest.mark.parametrize("kind, field, numbers", [
        ("nonlinear-control", "scale_factors", [1, 3]),
        ("convexity", "mu_grid", [1, 5])], ids=["scale_factors", "mu_grid"])
    def test_integers_in_a_list_run_as_floats(self, tmp_path, kind, field,
                                               numbers):
        # the report keys the scales and echoes the mus as floats, so an
        # integer spelling writes the outputs of the float one; the report
        # is compared as text, where 1 and 1.0 differ
        outputs = []
        for name, spelling in (("int", numbers),
                               ("float", [float(x) for x in numbers])):
            report, csvs = _outputs(
                {"grid": {"N": 16, "M": 16},
                 "experiment": {"kind": kind, field: spelling}},
                tmp_path / name)
            outputs.append((json.dumps(report, sort_keys=True), csvs))
        assert outputs[0] == outputs[1]

    def test_newton_failure_reason(self, tmp_path):
        # 300x data still contracts when the Newton steps run out; the
        # failure keeps the class name and adds the reason
        config = {"grid": {"N": 32, "M": 64},
                  "experiment": {"kind": "nonlinear-control",
                                 "scale_factors": [300.0]}}
        record = harness.run_scenario(config, tmp_path, seed=0)
        assert record.report["scales"]["300.0"] == {
            "converged": False, "failure": "NewtonFailureError",
            "failure_reason": "budget"}


def _unread_case(kind) -> tuple:
    """A config of `kind` that sets one field its run does not read, and
    the issue that names it."""
    base = {"grid": _COARSE, "experiment": {"kind": kind}}
    name = min(set(_PERTURBED) - _read(base))
    return (_with(base, name, _PERTURBED[name]),
            f"{name}: a {kind} run does not read this field")


# (kind, condition, field): a window or the bridge that the run does not
# read, though it reads a field tied to it
_UNTIED = [
    *[("forward", _LEADER, name) for name in (
        "game.windows.O1", "game.windows.O2", "game.windows.Od",
        "carleman.alpha_p", "carleman.beta_p")],
    ("nash", {}, "game.windows.O"), ("convexity", {}, "game.windows.O"),
    *[("diagnostics", {}, f"game.windows.{name}")
      for name in harness.WINDOWS],
]


def _assert_config_error(tmp_path, capsys, command, config, text):
    """`command` exits 2 on `config` with `text` on stderr, and writes no
    output directory."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    args = [command, "--config", str(path)]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert text in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestCLI:
    def test_list(self, capsys):
        assert cli.main(["list"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "theorem1-small-data" in out

    def test_preset_roundtrip(self, tmp_path):
        path = tmp_path / "p.json"
        assert cli.main(["preset", "theorem1-small-data",
                         "--out", str(path)]) == cli.EXIT_OK
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_OK

    def test_unknown_preset_is_config_error(self):
        assert cli.main(["preset", "bogus"]) == cli.EXIT_CONFIG

    def test_validate_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"geometry": {"alpha": 2.0}, **_OVERLAP,
             "experiment": {"kind": "observability"}}))
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "alpha" in err and "disjoint" in err

    def test_run_tiny_forward(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_tiny()))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out"),
                         "--seed", "1"]) == cli.EXIT_OK
        assert (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_invalid_domain_is_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            {**_tiny(), "geometry": {"family": "sinusoidal", "k": 1.5}}))
        args = [command, "--config", str(path)]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        assert cli.main(args) == cli.EXIT_CONFIG
        assert "sinusoidal" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("config, field", [
        # the old form of the mms-convergence preset
        (_tiny("diagnostics", study="mms-convergence"),
         "unknown field experiment.study"),
        ({**_tiny(), "schema_version": 7},
         "schema_version: must be 1, the version this package reads, got 7"),
        ({**_tiny(), "schema_version": -3}, "schema_version: must be 1"),
        (_tiny(samples=2.5), "experiment.samples"),
        (_tiny(scale_factors=3), "experiment.scale_factors"),
        ({**_NEWTON, "experiment": {"kind": "nonlinear-control",
                                    "scale_factors": [1.0, 1.0, 2.0]}},
         "experiment.scale_factors: each factor runs once; repeated: 1.0"),
        ({"grid": {"N": "abc"}}, "grid.N"),
        ({**_tiny(), "game": {"windows": {"O": [0.3]}}},
         "game.windows.O"),
        (_tiny("linear-control", budget_limit="x"), "experiment.budget_limit"),
        ([1], "config"),
        ({**_tiny("diagnostics"), "carleman": {"lam": 0.1}},
         "carleman.lam: lambda=0.1 below admissible minimum"),
        ({**_tiny("diagnostics"), "carleman": {"m_floor": -1}},
         "carleman: m_floor must be positive"),
        ({"carleman": {"alpha_p": 0.6, "beta_p": 0.7},
          "experiment": {"kind": "observability", "samples": 4},
          "grid": {"N": 16, "M": 16}},
         "carleman: [alpha', beta']=[0.6,0.7] not inside O"),
        ({**_NEWTON, "solver": {"newton_max": 0}},
         "solver.newton_max: must be at least 1"),
        ({**_NEWTON, "solver": {"newton_max": -3}},
         "solver.newton_max: must be at least 1"),
        ({**_NEWTON, "solver": {"newton_max": 2.5}},
         "solver.newton_max: expected an integer"),
        ({**_NEWTON, "solver": {"newton_tol": -1}},
         "solver.newton_tol: must be positive"),
        ({**_NEWTON, "solver": {"tol_terminal": 0.0}},
         "solver.tol_terminal: must be positive"),
        # each spec's own refusal, under its section
        ({"grid": {**_COARSE, "gamma": 400.0}},
         "grid: grid nodes must be strictly increasing"),
        *[({"grid": _COARSE,
            "experiment": {"kind": "convexity", "mu_grid": [mu]}},
           f"experiment.mu_grid: mu1 must be positive, got {mu}")
          for mu in (0.0, -1.0)],
        *[({"grid": _COARSE, "carleman": {"lam": 1e6},
            "experiment": {"kind": kind}},
           "carleman.lam: lambda=1000000.0 is too large")
          for kind in harness.KINDS],
        ({"grid": {**_COARSE, "gamma": 60.0},
          "experiment": {"kind": "linear-control"}},
         "game.windows: window O=(0.3, 0.5) holds no interior node"),
        # the grading leaves mms's error window without a node, where
        # both slopes would be NaN
        ({"grid": {**_COARSE, "gamma": 12.0}, **_CONSTANT,
          "experiment": {"kind": "mms-convergence"}},
         "grid: no node lies in the manufactured-solution error window "
         "[0.25, 0.9]"),
        ({"grid": _COARSE, "geometry": {"k": -0.5}},
         "geometry: l(t) must be at least 1 on [0,T]"),
        ({"grid": _COARSE, "geometry": {"family": "exponential", "k": -0.1}},
         "geometry: l(t) must be at least 1 on [0,T]"),
        # a field that the run of its kind does not read
        ({"grid": _COARSE, "solver": {"newton_max": 3},
          "experiment": {"kind": "linear-control"}},
         "solver.newton_max: a linear-control run does not read this field"),
        # one such field per kind; TestReads checks the others
        *map(_unread_case, harness.KINDS),
    ], ids=["study", "schema_version", "schema_version-negative", "samples",
            "scale_factors", "scale_factors-repeated", "N", "window",
            "budget_limit", "not-an-object", "lam", "m_floor", "bridge",
            "newton_max-zero",
            "newton_max-negative", "newton_max-float", "newton_tol",
            "tol_terminal", "gamma-400", "mu_grid-zero", "mu_grid-negative",
            *[f"lam-overflow-{kind}" for kind in harness.KINDS],
            "window-without-node", "mms-window-without-node", "ell-affine",
            "ell-exponential",
            "unread-field", *[f"unread-{kind}" for kind in harness.KINDS]])
    def test_malformed_config_is_config_error(self, tmp_path, capsys,
                                              command, config, field):
        # refused by validation, so neither command reaches a traceback
        _assert_config_error(tmp_path, capsys, command, config,
                             f"error: {field}")

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("config, spelling", [
        *[({"geometry": {"family": family, "k": 0.0}}, "use family constant")
          for family in ("affine", "exponential", "sinusoidal")],
        ({"geometry": {"family": "sinusoidal", "w": 0.0}},
         "use family constant"),
        ({"geometry": {"family": "exponential", "k": 1e-300}},
         "use family constant"),
        *[({"nonlinearity": {"label": "zero"}, "experiment": {"kind": kind}},
           "error: nonlinearity.label: unknown label 'zero'; the one label "
           "is sinusoidal, and F = 0 is kappa1 = kappa2 = 0")
          for kind in harness.KINDS],
        *[({**_KAPPAS_ZERO, "experiment": {"kind": kind}},
           f"error: nonlinearity: {reason}; set kappa1 or kappa2 apart "
           f"from 0") for kind, reason in harness._NEEDS_F.items()],
        # kappas whose step dt |kappa| at dt 1/8 is below the roundoff of 1
        *[({"nonlinearity": kappas, "experiment": {"kind": kind}},
           f"error: nonlinearity: {reason}; set kappa1 or kappa2 apart "
           f"from 0; at dt = 0.125 a |kappa| up to about 8.88e-16 is 0 to "
           f"roundoff") for kind, reason in harness._NEEDS_F.items()
          for kappas in ({"kappa1": 0.0, "kappa2": 1e-300},
                         {"kappa1": -8e-16, "kappa2": 1e-300})],
    ], ids=["affine-k0", "exponential-k0", "sinusoidal-k0", "sinusoidal-w0",
            "exponential-k1e-300",
            *[f"label-zero-{kind}" for kind in harness.KINDS],
            *[f"kappas-zero-{kind}" for kind in harness._NEEDS_F],
            *[f"{spelling}-{kind}" for kind in harness._NEEDS_F
              for spelling in ("kappa2-1e-300", "kappas-below-roundoff")]])
    def test_disguised_run_is_config_error(self, tmp_path, capsys, command,
                                           config, spelling):
        # a spelling of another run: a moving family that does not move
        # at the mesh times, the label `zero` that F = 0 once had, or
        # F = 0 for a kind whose subject is F
        _assert_config_error(tmp_path, capsys, command,
                             {"grid": _COARSE, **config}, spelling)

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("kind, condition, name", _UNTIED, ids=[
        f"{kind}-{name}" for kind, _, name in _UNTIED])
    def test_field_tied_to_an_unread_field_is_config_error(
            self, tmp_path, capsys, command, kind, condition, name):
        # a window or the bridge that the run does not read, set alone
        config = _with(_base(kind, condition, grid=(16, 16)), name,
                       _PERTURBED[name])
        _assert_config_error(tmp_path, capsys, command, config,
                             f"error: {name}: a {kind} run does not read "
                             f"this field")

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("kind", _F_KINDS)
    def test_gradient_weight_without_kappa2_is_config_error(
            self, tmp_path, capsys, command, kind):
        # the gradient weight acts only through kappa2 sin(w), and a
        # kappa2 of 1e-300 is 0 to roundoff at the mesh
        for kappa2 in (0.0, 1e-300):
            config = {"grid": _COARSE, "geometry": {"b_exp": 3.0},
                      "nonlinearity": {"kappa2": kappa2},
                      "experiment": {"kind": kind}}
            _assert_config_error(tmp_path, capsys, command, config,
                                 f"error: geometry.b_exp: a {kind} run does "
                                 f"not read this field")

    @pytest.mark.parametrize("condition", [
        {}, {**_CONSTANT, "experiment": {"kind": "mms-convergence"}}],
        ids=["forward", "mms-convergence-constant"])
    def test_run_that_reads_no_window_needs_no_node(self, tmp_path, condition):
        # a forward run at h_amplitude 0 and an mms-convergence run read
        # no window, so validation takes windows that hold no node
        config = _base("forward", {}, grid=_GAMMA_10)
        config.update(condition)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_OK
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_OK

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_thread_cap_below_one_is_config_error(self, tmp_path, capsys,
                                                  monkeypatch, threads):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert cli.main(["run", "--preset", "mms-convergence",
                         "--threads", threads,
                         "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert "--threads must be at least 1" in capsys.readouterr().err
        assert "OPENBLAS_NUM_THREADS" not in os.environ
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_massless_observation_weight_is_config_error(self, tmp_path,
                                                         capsys, command):
        # with this floor the observation weight underflows to 0 on O, so
        # the observability ratio would divide by a zero mass
        config = {"grid": _COARSE, "carleman": {"m_floor": 1e300},
                  "experiment": {"kind": "observability", "samples": 2}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        args = [command, "--config", str(path)]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        assert cli.main(args) == cli.EXIT_CONFIG
        assert ("error: carleman.m_floor: the observation weight has no mass"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()
        # the weight belongs to the observability run only
        config["experiment"] = {"kind": "diagnostics"}
        assert harness.validate_config(config) == []

    def test_admissible_lambda_validates(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"carleman": {"lam": 0.7, "m_floor": 0.01},
                                    "experiment": {"kind": "diagnostics"}}))
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_OK

    def test_cli_import_leaves_blas_unloaded(self):
        # --threads sets the BLAS caps inside main(), which
        # only works if importing the CLI has not loaded numpy yet
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, degcontrol.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_budget_violation_exit_code(self, tmp_path):
        def run(name, **limit):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(
                _tiny("linear-control", y0_amplitude=0.1, **limit)))
            code = cli.main(["run", "--config", str(path),
                             "--out", str(tmp_path / name)])
            report = json.loads((tmp_path / name / "report.json").read_text())
            return code, report["report"]["budget_exceeded"]

        assert run("over", budget_limit=1e-12) == (cli.EXIT_BUDGET, True)
        assert run("default") == (cli.EXIT_OK, False)

    def test_state_march_failure_exit_code(self, tmp_path, capsys):
        # a valid amplitude whose residual overflows at the first level
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_tiny(y0_amplitude=1e308)))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_SOLVER
        err = capsys.readouterr().err
        assert "semilinear march: residual" in err and "at level 1" in err

    def test_singular_step_matrix_exit_code(self, tmp_path, capsys,
                                            monkeypatch):
        # level 5 of every operator set gets a zero row and column 3 with
        # 1 + dt L = 0 there, as in test_solvers.py::TestStackedFactor
        build = solvers.LevelOps.build.__func__

        def singular(cls, prob, reaction, grad_coeff):
            ops = build(cls, prob, reaction, grad_coeff)
            bands = ops.bands
            bands[5, :, 3] = bands[5, 0, 4] = bands[5, 2, 2] = 0.0
            bands[5, 1, 3] = -1.0 / prob.mesh.dt
            assert 1.0 + prob.mesh.dt * bands[5, 1, 3] == 0.0
            return ops

        monkeypatch.setattr(solvers.LevelOps, "build", classmethod(singular))
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid": {"N": 16, "M": 16},
                                    "experiment": {"kind": "forward"}}))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_SOLVER
        assert "level 5: I + dt L_n is singular" in capsys.readouterr().err

    def test_refinement_failure_exit_code(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setattr(nullcontrol, "RESIDUAL_LIMIT", 0.0)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_tiny("linear-control", y0_amplitude=0.1)))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_SOLVER
        assert "HUM refinement stalled" in capsys.readouterr().err

    def test_factorization_failure_exit_code(self, tmp_path, capsys,
                                             monkeypatch):
        # the scaled operator has a unit diagonal, so this shift leaves
        # the factored copy indefinite
        monkeypatch.setattr(nullcontrol, "SHIFT", -2.0)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_tiny("linear-control", y0_amplitude=0.1)))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_SOLVER
        assert "HUM factorization failed" in capsys.readouterr().err
