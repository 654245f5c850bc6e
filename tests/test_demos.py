"""The demos run to the end.

Each demo is copied into a temporary directory and run there, so the
CSV files it writes next to itself land in that directory.
"""

import runpy
import shutil
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _run(name, tmp_path):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    runpy.run_path(str(script), run_name="__main__")


def test_linear_null_control(tmp_path, capsys):
    _run("linear_null_control.py", tmp_path)
    assert (tmp_path / "controlled_state.csv").is_file()
    assert (tmp_path / "leader_control.csv").is_file()
    assert "wrote" in capsys.readouterr().out


def test_nash_followers(tmp_path, capsys):
    _run("nash_followers.py", tmp_path)
    out = capsys.readouterr().out
    assert "sweeps to convergence" in out
    assert out.count("J1 = ") == 5


def test_newton_locality(tmp_path, capsys):
    _run("newton_locality.py", tmp_path)
    out = capsys.readouterr().out
    assert out.count("converged in") == 2
    assert "no convergence after 10 Newton steps, reason: budget" in out

