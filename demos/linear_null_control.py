"""Steer the linear degenerate equation to zero at time T.

Builds the problem of a default `linear-control` run (the desk-scale
problem with F = 0), solves the weighted variational (HUM) problem for
the leader control h, and prints the terminal norm, the weighted budget
and the reconstruction residuals.  Writes the controlled state and the
control to CSV next to this script.

Run:  python3 demos/linear_null_control.py
"""

from pathlib import Path

import numpy as np

from degcontrol.harness import build_run
from degcontrol.nullcontrol import HUMSolver
from degcontrol.solvers import dump_trajectory_csv

out = Path(__file__).parent

prob, weights, game = build_run({"experiment": {"kind": "linear-control"}})

x = prob.grid.nodes
y0 = 0.1 * np.sin(np.pi * x)
y0[0] = y0[-1] = 0.0

print("assembling and factorizing the HUM operator ...")
hum = HUMSolver(prob, weights, game)
triple = hum.solve(y0)

print(f"|y0|            = {prob.grid.norm(y0):.6f}")
print(f"|y(T)|          = {triple.terminal_norm:.3e}")
print(f"kappa0          = {triple.kappa0:.4g}")
print(f"budget constant = {triple.budget_constant:.4g}")
for name, val in triple.residuals.items():
    print(f"residual {name:4s}  = {val:.3e}")

dump_trajectory_csv(triple.y, out / "controlled_state.csv")
dump_trajectory_csv(triple.h, out / "leader_control.csv")
print(f"wrote {out / 'controlled_state.csv'} and {out / 'leader_control.csv'}")
