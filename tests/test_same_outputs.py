"""tools/same_outputs.py: the output comparison of two checkouts."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from degcontrol import harness

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outputs(path: Path, report: dict, csv: str) -> Path:
    path.mkdir()
    (path / "report.json").write_text(json.dumps(report))
    (path / "state.csv").write_text(csv)
    return path


def test_compare_ignores_timings_only(tmp_path):
    compare = _tool().compare
    a = _outputs(tmp_path / "a", {"report": {"x": 1.0},
                                  "timings": {"total_s": 0.1}}, "1,2\n")
    b = _outputs(tmp_path / "b", {"timings": {"total_s": 0.2},
                                  "report": {"x": 1.0}}, "1,2\n")
    c = _outputs(tmp_path / "c", {"report": {"x": 1.0 + 1e-16 * 2}},
                 "1,2.0\n")
    (c / "leader.csv").write_text("0\n")
    assert compare(a, b) == []
    assert compare(a, c) == ["only in one run: leader.csv", "report.json",
                             "state.csv"]
    # two runs that both failed before writing a report are not the same
    assert compare(tmp_path / "none", tmp_path / "none") == [
        "no report.json in either run"]


def test_differing_files_state_their_drift(tmp_path):
    tool = _tool()
    header = "t,x0,x1\n"
    a = _outputs(tmp_path / "a", {"report": {"x": [1.0, 2.0]}},
                 header + "0,0,1.5\n1,-2e-300,4\n")
    b = _outputs(tmp_path / "b", {"report": {"x": [1.0, 2.0]}},
                 header + "0,0,1.5\n1,-2e-300,4.002\n")
    assert tool.compare(a, b) == ["state.csv"]
    assert tool.drift(a / "state.csv", b / "state.csv") == pytest.approx(
        0.002 / 4.002, rel=1e-12)
    assert tool.describe(a, b) == [
        "state.csv (largest relative difference 5.0e-04, 5.0e-04 of the "
        "parent's scale)"]
    # the report's numbers are compared too, and a count that differs
    # cannot be paired
    c = _outputs(tmp_path / "c", {"report": {"x": [1.0, 2.0, 3.0]}},
                 header + "0,0,1.5\n1,-2e-300,4\n")
    assert tool.describe(a, c) == [
        "report.json (largest relative difference inf)"]
    assert tool.describe(a, a) == []


def test_report_drift_names_its_key(tmp_path):
    tool = _tool()
    csv = "t,x0\n0,1\n"
    report = {"report": {"scales": {"1.0": {"terminal_l2": 1e-13,
                                            "budget_constant": 2.0},
                                    "3.0": {"converged": False}},
                         "residuals": [1.0, 4.0]},
              "seed": 0, "timings": {"total_s": 0.1}}
    a = _outputs(tmp_path / "a", report, csv)
    moved = json.loads(json.dumps(report))
    moved["report"]["scales"]["1.0"]["terminal_l2"] = 1.3e-13
    moved["report"]["residuals"][1] = 4.4
    b = _outputs(tmp_path / "b", moved, csv)
    # the move at the roundoff floor is the largest relative one
    assert tool.describe(a, b) == [
        "report.json (largest relative difference 2.3e-01 at "
        "report.scales.1.0.terminal_l2)"]
    moved["report"]["scales"]["1.0"]["terminal_l2"] = 1e-13
    (b / "report.json").write_text(json.dumps(moved))
    assert tool.describe(a, b) == [
        "report.json (largest relative difference 9.1e-02 at "
        "report.residuals.1)"]


def test_checkout_matches_itself(tmp_path):
    # this checkout as its own parent, with a ledger entry of one repeat
    ledger = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT),
         "--grid", "16", "16", "--repeats", "1", "--ledger", str(ledger),
         "--configs", "newton-desk", "adjoint-sampling",
         "linear-control-unweighted", "observability-unweighted",
         "theorem1-small-data-64x128"],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "5 of 5 configs identical"
    assert all(": identical (exit 0; " in line for line in lines[:-1])
    assert "leader.csv" in lines[0]
    entry = json.loads(ledger.read_text())
    assert entry["repeats"] == 1
    assert set(entry["environment"]) == {"python", "numpy", "scipy", "nproc",
                                         "threads"}
    configs = entry["configs"]
    assert sorted(config["verdict"] for config in configs.values()) == (
        sorted(lines[:-1]))
    for config in configs.values():
        grid = config["config"]["grid"]
        assert (grid["N"], grid["M"]) == (16, 16)
        for side in ("change", "parent"):
            s = config[side]
            assert s["error"] is None and s["exit_codes"] == [0]
            assert s["wall_s"] == s["wall_s_runs"][0] > 0.0
            assert s["peak_rss_mb"] == s["peak_rss_mb_runs"][0] > 10.0
        # one checkout on both sides computes the same accuracy keys
        assert config["change"]["accuracy"] == config["parent"]["accuracy"]
    accuracy = configs["newton-desk"]["change"]["accuracy"]
    assert accuracy["report.scales.1.0.terminal_l2"] <= 1e-9
    # scale 300 diverges on purpose and reports no terminal norm
    assert "report.scales.300.0.terminal_l2" not in accuracy
    assert "report.carleman_max_ratio" in (
        configs["adjoint-sampling"]["change"]["accuracy"])


def test_runs_stop_unless_the_package_is_the_checkouts(tmp_path):
    # a checkout whose src/degcontrol links to this one's imports the
    # package from outside its own src
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "degcontrol").symlink_to(ROOT / "src" / "degcontrol")
    launch = _tool()._launch
    with pytest.raises(SystemExit, match="degcontrol was not imported from"):
        launch(tmp_path, ["list"], tmp_path)
    assert launch(ROOT, ["list"], tmp_path)["exit"] == 0


def test_scaled_drift_sets_moves_against_the_parents_scale(tmp_path):
    tool = _tool()
    header = "t,x0,x1\n"
    a = _outputs(tmp_path / "a", {}, header + "0,1e-3,2\n1,0,3\n")
    # a value that leaves zero is a relative difference of 1; against the
    # largest value of the columns that moved, 3 (t never moves), the
    # drift is the largest difference, 3e-3, over 3
    b = _outputs(tmp_path / "b", {}, header + "0,1e-3,2.003\n1,1e-20,3\n")
    assert tool.drift(a / "state.csv", b / "state.csv") == 1.0
    assert tool.scaled_drift(a / "state.csv", b / "state.csv") == (
        pytest.approx(1e-3, rel=1e-9))
    assert tool.describe(a, b) == [
        "state.csv (largest relative difference 1.0e+00, 1.0e-03 of the "
        "parent's scale)"]
    assert tool.scaled_drift(a / "state.csv", a / "state.csv") == 0.0
    # files whose columns cannot be paired, or that disagree on whether a
    # number is finite, have no finite drift
    c = _outputs(tmp_path / "c", {}, "t,x0\n0,1e-3\n1,0\n")
    d = _outputs(tmp_path / "d", {}, header + "0,1e-3,2\n1,0,inf\n")
    assert tool.scaled_drift(a / "state.csv", c / "state.csv") == math.inf
    assert tool.scaled_drift(a / "state.csv", d / "state.csv") == math.inf


def _configs() -> dict:
    """{name: the full config it runs} over the tool's CONFIGS."""
    configs = {}
    for name, spec in _tool().CONFIGS.items():
        spec = json.loads(json.dumps(spec))
        preset = spec.pop("preset", None)
        config = (harness.preset(preset).data if preset
                  else harness.default_config())
        for section, fields in spec.items():
            config[section].update(fields)
        configs[name] = config
    return configs


def test_every_config_validates():
    # a config that validation refused would compare two refusals
    for name, config in _configs().items():
        assert harness.validate_config(config) == [], name


def test_one_config_runs_f_zero_on_a_kind_that_reads_f():
    # nash-f-zero holds the kappas' spelling of F = 0 to its outputs; the
    # other configs run the default F or a kind that runs F = 0 anyway
    configs = _configs()
    assert len(configs) == 32
    assert [name for name, config in configs.items()
            if config["experiment"]["kind"] not in harness.F_ZERO_KINDS
            and config["nonlinearity"]["kappa1"] == 0.0
            and config["nonlinearity"]["kappa2"] == 0.0] == ["nash-f-zero"]


def test_every_family_and_a_second_gradient_weight_run():
    # the domain check and the gradient weight's clip see each family,
    # and a b_exp apart from the default 2
    configs = _configs().values()
    families = {config["geometry"]["family"] for config in configs}
    assert families == {"constant", "affine", "exponential", "sinusoidal"}
    assert any(config["geometry"]["b_exp"] != 2.0 for config in configs)


def test_every_preset_is_run():
    # the presets are no list of their own: some config runs each
    assert {spec["preset"] for spec in _tool().CONFIGS.values()
            if "preset" in spec} == set(harness.list_presets())
