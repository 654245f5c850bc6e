"""Local nature of nonlinear null controllability.

Runs the Newton-Kantorovich control loop for initial data scaled by
1, 3 and 300.  Small data converges in a couple of steps to a terminal
state of size ~1e-11.  Large data raises NewtonFailureError, whose
reason tells a loop that diverged from one that was still contracting
when its step budget ran out; at this grid 300x data is the latter.

Run:  python3 demos/newton_locality.py
"""

import numpy as np

from degcontrol.carleman import CarlemanParams, CarlemanWeights
from degcontrol.nash import GameSpec, make_default_targets
from degcontrol.nullcontrol import (
    HUMSolver,
    NewtonFailureError,
    solve_nonlinear_null_control,
)
from degcontrol.solvers import CylinderProblem

prob = CylinderProblem.default(N=64, M=128)  # default sinusoidal F
weights = CarlemanParams()
weights = CarlemanWeights(weights, prob.deg, prob.grid, prob.mesh)
game = GameSpec(mu1=5.0, mu2=5.0)
game.target1, game.target2 = make_default_targets(prob, weights=weights)

x = prob.grid.nodes
base = 0.01 * np.sin(np.pi * x)
base[0] = base[-1] = 0.0

print("assembling and factorizing the HUM operator ...")
hum = HUMSolver(prob, weights, game)

for factor in (1.0, 3.0, 300.0):
    print(f"\nscale factor {factor:g}:")
    try:
        triple, history = solve_nonlinear_null_control(
            prob, weights, game, factor * base, hum=hum)
    except NewtonFailureError as exc:
        print(f"  no convergence after {len(exc.history)} Newton steps, "
              f"reason: {exc.reason}")
        continue
    print(f"  converged in {len(history)} Newton steps")
    print(f"  |y(T)| = {triple.terminal_norm:.3e}")
    print(f"  budget constant = {triple.budget_constant:.4g}")
