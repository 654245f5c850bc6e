"""bench/run_bench.py: the ledger entry of a quick run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "bench" / "run_bench.py"


def test_smoke_entry(tmp_path):
    # both benchmark configs at N=16, this checkout as its own parent
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(out), str(ROOT),
         "--repeats", "1", "--grid", "16", "16",
         "--configs", "newton-desk", "adjoint-sampling"],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    entry = json.loads(out.read_text())
    assert entry["repeats"] == 1
    assert set(entry["environment"]) == {"python", "numpy", "scipy", "nproc",
                                         "threads"}
    assert list(entry["configs"]) == ["adjoint-sampling", "newton-desk"]
    for name, sides in entry["configs"].items():
        assert sides["config"]["grid"] == {"N": 16, "M": 16}
        for side in ("change", "parent"):
            s = sides[side]
            assert s["error"] is None
            assert s["wall_s"] == s["wall_s_runs"][0] > 0.0
            assert s["peak_rss_mb"] == s["peak_rss_mb_runs"][0] > 10.0
        # one checkout on both sides computes the same accuracy keys
        assert sides["change"]["accuracy"] == sides["parent"]["accuracy"]
    accuracy = entry["configs"]["newton-desk"]["change"]["accuracy"]
    assert accuracy["report.scales.1.0.terminal_l2"] <= 1e-9
    # scale 300 diverges on purpose and reports no terminal norm
    assert "report.scales.300.0.terminal_l2" not in accuracy
    assert "report.carleman_max_ratio" in (
        entry["configs"]["adjoint-sampling"]["change"]["accuracy"])
