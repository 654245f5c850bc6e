"""The exit-code contract over generated configs: every config that
validation accepts runs through the CLI to exit 0, 3 or 4, never to 2 or
a traceback, and its report holds only finite numbers."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from degcontrol import cli, harness


def _set(cfg: dict, name: str, value) -> None:
    *path, key = name.split(".")
    for part in path:
        cfg = cfg[part]
    cfg[key] = value


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# the drawn fields and their ranges, on the (16,16) grid; k stays away
# from 0, where a moving family is refused as the constant one
_FIELDS = {
    "grid.gamma": st.floats(1.0, 3.0),
    "geometry.family": st.sampled_from(
        ["constant", "affine", "exponential", "sinusoidal"]),
    "geometry.l0": st.floats(1.0, 2.0),
    "geometry.k": st.floats(0.05, 0.5),
    "geometry.w": st.floats(0.5, 6.0),
    "geometry.T": st.floats(0.1, 4.0),
    "geometry.alpha": st.floats(0.05, 0.95),
    "geometry.b_exp": st.one_of(st.just(2.0), st.floats(1.2, 4.0)),
    "nonlinearity.kappa1": st.floats(-3.0, 3.0),
    "nonlinearity.kappa2": st.floats(-3.0, 3.0),
    "carleman.s": st.floats(0.5, 8.0),
    "carleman.cap_ratio": _log_uniform(1e3, 1e7),
    "game.mu1": _log_uniform(0.1, 100.0),
    "game.mu2": _log_uniform(0.1, 100.0),
    "game.alpha1": _log_uniform(0.1, 10.0),
    "game.alpha2": _log_uniform(0.1, 10.0),
    "game.jacobian_weighting": st.booleans(),
    "experiment.y0_mode": st.sampled_from(["sine", "random"]),
    "experiment.h_amplitude": st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
}


def _config(kind: str, values: dict) -> dict:
    """The default config of `kind` on the (16,16) grid with the drawn
    values of the fields that the kind accepts; the others keep their
    defaults."""
    cfg = harness.default_config()
    cfg["grid"].update(N=16, M=16)
    cfg["experiment"]["kind"] = kind
    for name, value in values.items():
        _set(cfg, name, value)
    defaults = harness._flat(harness.default_config())
    # a reset can only take fields out of accepted_fields, so two passes
    # reach the fixed point
    for _ in range(2):
        accepted = harness.accepted_fields(cfg)
        for name in values:
            if name not in accepted:
                _set(cfg, name, defaults[name])
    return cfg


def _numbers(tree):
    if isinstance(tree, dict):
        for val in tree.values():
            yield from _numbers(val)
    elif isinstance(tree, list):
        for val in tree:
            yield from _numbers(val)
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        yield tree


# five seeded examples per kind, 40 in all
@pytest.mark.parametrize("kind", harness.KINDS)
@settings(max_examples=5, derandomize=True, database=None, deadline=None)
@given(values=st.fixed_dictionaries(_FIELDS))
def test_accepted_configs_keep_the_exit_contract(kind, values):
    cfg = _config(kind, values)
    if harness.validate_config(cfg):
        return
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "c.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        code = cli.main(["run", "--config", str(path), "--out", str(out)])
        assert code in (cli.EXIT_OK, cli.EXIT_SOLVER, cli.EXIT_BUDGET)
        if code != cli.EXIT_SOLVER:
            report = json.loads((out / "report.json").read_text())
            assert all(map(math.isfinite, _numbers(report)))
