"""Scenario configs, presets, deterministic runs and the CLI."""

import json

import numpy as np
import pytest

from degcontrol import cli, harness


def _tiny(kind="forward", **experiment):
    return {
        "grid": {"N": 32, "M": 48},
        "experiment": {"kind": kind, **experiment},
    }


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

    def test_budget_violation_exit_code(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            _tiny("linear-control", y0_amplitude=0.1, budget_limit=1e-12)))
        assert cli.main(["run", "--config", str(path),
                        "--out", str(tmp_path / "out")]) == cli.EXIT_BUDGET
