"""Scenario configs, presets, deterministic runs and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from degcontrol import cli, harness, nullcontrol


def _tiny(kind="forward", **experiment):
    return {
        "grid": {"N": 32, "M": 48},
        "experiment": {"kind": kind, **experiment},
    }


_WINDOWS = harness.default_config()["game"]["windows"]


class TestConfig:
    def test_defaults_validate(self):
        config = harness.ScenarioConfig.from_dict({})
        assert harness.validate_config(config) == []

    def test_unknown_field_rejected(self):
        with pytest.raises(harness.ConfigError, match="nonsense"):
            harness.ScenarioConfig.from_dict({"grid": {"nonsense": 3}})

    def test_window_overlap_rejected(self):
        # the windows section is replaced as a unit, so all four entries
        # are given; O1 overlapping O must be refused
        config = harness.ScenarioConfig.from_dict(
            {"game": {"windows": {"O": [0.3, 0.5], "O1": [0.4, 0.6],
                                  "O2": [0.75, 0.9], "Od": [0.4, 0.6]}}})
        issues = harness.validate_config(config)
        assert any("disjoint" in s for s in issues)

    def test_all_issues_reported(self):
        config = harness.ScenarioConfig.from_dict(
            {"geometry": {"alpha": 2.0},
             "game": {"windows": {"O": [0.3, 0.5], "O1": [0.4, 0.6],
                                  "O2": [0.75, 0.9], "Od": [0.4, 0.6]}}})
        issues = harness.validate_config(config)
        assert len(issues) >= 2
        assert any("alpha" in s for s in issues)
        assert any("disjoint" in s for s in issues)

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

    @pytest.mark.parametrize("base, changed", [
        ({"l0": 1.0}, {"l0": 2.0}),
        ({"family": "sinusoidal", "k": 0.3, "w": 1.0},
         {"family": "sinusoidal", "k": 0.3, "w": 3.0}),
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


class TestPresets:
    def test_all_presets_validate(self):
        for name in harness.list_presets():
            assert harness.validate_config(harness.preset(name)) == []

    def test_alias(self):
        a = harness.preset("small-sine")
        b = harness.preset("theorem1-small-data")
        assert a.canonical_hash() == b.canonical_hash()

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="theorem1-small-data"):
            harness.preset("no-such-preset")


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

    def test_emit_plot_data(self, tmp_path):
        record = harness.run_scenario(_tiny(), tmp_path, seed=0)
        outputs = harness.emit_plot_data(record, tmp_path)
        assert any(str(p).endswith("summary.csv") for p in outputs)


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
            {"geometry": {"alpha": 2.0},
             "game": {"windows": {"O": [0.3, 0.5], "O1": [0.4, 0.6],
                                  "O2": [0.75, 0.9], "Od": [0.4, 0.6]}}}))
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
        (_tiny(study="bogus"), "experiment.study"),
        (_tiny(study="mms-convergence"), "experiment.study"),
        (_tiny(samples=2.5), "experiment.samples"),
        (_tiny(scale_factors=3), "experiment.scale_factors"),
        ({"grid": {"N": "abc"}}, "grid.N"),
        ({**_tiny(), "game": {"windows": {**_WINDOWS, "O": [0.3]}}},
         "game.windows.O"),
        (_tiny("linear-control", budget_limit="x"), "experiment.budget_limit"),
        ([1], "config"),
        ({**_tiny("diagnostics"), "carleman": {"lam": 0.1}},
         "carleman.lam: lambda=0.1 below admissible minimum"),
        ({**_tiny("diagnostics"), "carleman": {"m_floor": -1}},
         "carleman.m_floor: must be positive"),
        ({"carleman": {"alpha_p": 0.6, "beta_p": 0.7},
          "experiment": {"kind": "observability", "samples": 4},
          "grid": {"N": 16, "M": 16}},
         "carleman: [alpha', beta']=[0.6,0.7] not inside O"),
        ({**_tiny("observability"), "game": {"jacobian_weighting": False}},
         "game.jacobian_weighting"),
    ], ids=["study", "study-kind", "samples", "scale_factors", "N", "window",
            "budget_limit", "not-an-object", "lam", "m_floor", "bridge",
            "unweighted-observability"])
    def test_malformed_config_is_config_error(self, tmp_path, capsys,
                                              command, config, field):
        # refused by validation, so neither command reaches a traceback
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        args = [command, "--config", str(path)]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        assert cli.main(args) == cli.EXIT_CONFIG
        assert f"error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_admissible_lambda_validates(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"carleman": {"lam": 0.7, "m_floor": 0.01},
                                    "experiment": {"kind": "diagnostics"}}))
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_OK

    def test_cli_import_leaves_blas_unloaded(self):
        # --threads/--deterministic set the BLAS caps inside main(), which
        # only works if importing the CLI has not loaded numpy yet
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, degcontrol.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_budget_violation_exit_code(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            _tiny("linear-control", y0_amplitude=0.1, budget_limit=1e-12)))
        assert cli.main(["run", "--config", str(path),
                        "--out", str(tmp_path / "out")]) == cli.EXIT_BUDGET

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
