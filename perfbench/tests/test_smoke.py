"""Smoke test of the benchmark: every workload, untraced and traced, at 16 x 16.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _results(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_workload_reports_every_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    results = _results(proc.stdout)
    assert len(results) == len(WORKLOADS)
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for result in results:
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == declared
    # the contract's result is the last line of standard output
    assert proc.stdout.splitlines()[-1].startswith('{"correct"')


def test_fails_without_sources():
    """Without the package sources the benchmark exits non-zero, silently."""
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
        (bare / "perfbench").mkdir()
        for path in (ROOT / "perfbench").glob("*.py"):
            (bare / "perfbench" / path.name).write_text(path.read_text())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not _results(proc.stdout)
