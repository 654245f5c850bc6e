"""Follower game: find the Nash quasi-equilibrium for a fixed leader.

For a fixed leader control h, the two followers minimize their tracking
functionals J_1, J_2.  The script runs the Picard iteration on the
coupled optimality system, reports the equilibrium residuals, and scans
J_1 along a control line through the equilibrium to show the convex
landscape (exactly a parabola when F = 0).

Run:  python3 demos/nash_followers.py
"""

import numpy as np

from degcontrol.grids import TrajectoryField
from degcontrol.harness import build_run
from degcontrol.nash import (convexity_margin, evaluate_functional,
                             functional_gradient, nash_fixed_point)
from degcontrol.solvers import solve_forward_semilinear

prob, _, game = build_run({})

x = prob.grid.nodes
y0 = 0.05 * np.sin(np.pi * x)
y0[0] = y0[-1] = 0.0
h = TrajectoryField.from_function(
    prob.grid, prob.mesh, lambda x, t: 0.05 * np.sin(np.pi * x) * (1 + t))

sol = nash_fixed_point(prob, game, h, y0)
print(f"sweeps to convergence : {len(sol.history)}")
grads = functional_gradient(prob, game, h, sol.v1, sol.v2, y0)
for i, (g, v) in enumerate(zip(grads, (sol.v1, sol.v2)), start=1):
    residual = g.l2q_norm() / (1.0 + v.l2q_norm())
    print(f"grad J{i} residual      : {residual:.3e}")

rep = convexity_margin(prob, game, sol, np.random.default_rng(0))
print(f"convexity margin      : {rep['margin']:.4f} "
      f"(mu = {game.mu1}, certified = {rep['certified']})")

print("\nJ1 along a control line through the equilibrium:")
d = prob.new_field()
d.values[:] = (np.sin(np.pi * x) * prob.indicator("O1"))[None, :]
for eps in (-0.2, -0.1, 0.0, 0.1, 0.2):
    v1 = sol.v1 + eps * d
    y = solve_forward_semilinear(prob, y0, h=h, v1=v1, v2=sol.v2)
    print(f"  eps = {eps:+.1f}  J1 = {evaluate_functional(prob, game, 1, y, v1):.8f}")
