"""HUM solves, superposition, residuals and the Newton loop."""

import numpy as np
import pytest

from degcontrol.geometry import DegeneracySpec
from degcontrol.grids import SpatialGrid, TrajectoryField
from degcontrol.nash import GameSpec, make_default_targets
from degcontrol.nullcontrol import (
    HUMSolver,
    LinearControlProblem,
    h1a_norm,
    solve_linear_null_control,
    solve_nonlinear_null_control,
    verify_additional_estimates,
)
from degcontrol.semilinear import SemilinearF

from conftest import sine_data


@pytest.fixture(scope="module")
def hum(prob_linear, weights):
    game = GameSpec(mu1=5.0, mu2=5.0)
    game.target1, game.target2 = make_default_targets(prob_linear,
                                                      weights=weights)
    return game, HUMSolver(prob_linear, weights, game)


class TestH1aNorm:
    def test_closed_form(self):
        # u = x(1-x), a = sqrt(x):
        # int u^2 = 1/30, int a u'^2 = 22/105, norm^2 = 17/70
        grid = SpatialGrid(N=256, gamma=2.0)
        deg = DegeneracySpec(alpha=0.5)
        u = grid.nodes * (1.0 - grid.nodes)
        assert h1a_norm(grid, deg, u) ** 2 == pytest.approx(17.0 / 70.0,
                                                            rel=1e-2)


class TestLinearControl:
    def test_zero_data_zero_control(self, prob_linear, hum):
        game, solver = hum
        triple = solver.solve(np.zeros(prob_linear.grid.N + 1))
        assert np.max(np.abs(triple.h.values)) == 0.0
        assert np.max(np.abs(triple.y.values)) == 0.0
        assert triple.terminal_norm == 0.0

    def test_terminal_norm_small(self, prob_linear, hum):
        game, solver = hum
        y0 = sine_data(prob_linear, 0.1)
        triple = solver.solve(y0)
        assert triple.terminal_norm <= 1e-3 * prob_linear.grid.norm(y0)

    def test_superposition(self, prob_linear, hum):
        # the data -> controlled-state map is linear
        game, solver = hum
        ya = sine_data(prob_linear, 0.1)
        x = prob_linear.grid.nodes
        yb = 0.05 * np.sin(2 * np.pi * x)
        ta = solver.solve(ya)
        tb = solver.solve(yb)
        tab = solver.solve(ya + yb)
        gap = TrajectoryField(prob_linear.grid, prob_linear.mesh,
                              tab.y.values - ta.y.values - tb.y.values)
        scale = 1.0 + ta.y.l2q_norm() + tb.y.l2q_norm()
        assert gap.l2q_norm() / scale <= 1e-8

    def test_reconstruction_residuals(self, prob_linear, hum):
        game, solver = hum
        triple = solver.solve(sine_data(prob_linear, 0.1))
        assert triple.residuals["y"] <= 1e-7
        assert triple.residuals["p1"] <= 1e-6
        assert triple.residuals["p2"] <= 1e-6

    def test_budget_constant_finite(self, prob_linear, hum):
        game, solver = hum
        triple = solver.solve(sine_data(prob_linear, 0.1))
        assert np.isfinite(triple.budget_constant)
        assert triple.budget_constant > 0
        assert not triple.budget_exceeded

    def test_budget_limit_flag(self, prob_linear, hum):
        game, solver = hum
        triple = solver.solve(sine_data(prob_linear, 0.1),
                              budget_limit=1e-12)
        assert triple.budget_exceeded

    def test_one_shot_wrapper(self, prob_linear, weights, hum):
        game, solver = hum
        lcp = LinearControlProblem(prob_linear, weights, game,
                                   sine_data(prob_linear, 0.1))
        triple = solve_linear_null_control(lcp, hum=solver)
        assert triple.terminal_norm <= 1e-3 * prob_linear.grid.norm(lcp.y0)

    def test_additional_estimates(self, prob_linear, weights, hum):
        game, solver = hum
        lcp = LinearControlProblem(prob_linear, weights, game,
                                   sine_data(prob_linear, 0.1))
        triple = solver.solve(lcp.y0)
        rep = verify_additional_estimates(lcp, triple)
        assert rep["all_finite"]
        assert rep["C_prop5"] > 0 and rep["C_prop6"] > 0


class TestNewton:
    def test_linear_case_single_step(self, prob_linear, weights, hum):
        game, solver = hum
        triple, history = solve_nonlinear_null_control(
            prob_linear, weights, game, sine_data(prob_linear, 0.01),
            hum=solver)
        assert len(history) == 1
        assert triple.terminal_norm <= 1e-6

    def test_small_data_converges(self, prob, weights):
        game = GameSpec(mu1=5.0, mu2=5.0)
        game.target1, game.target2 = make_default_targets(prob,
                                                          weights=weights)
        triple, history = solve_nonlinear_null_control(
            prob, weights, game, sine_data(prob, 0.01))
        assert len(history) <= 10
        assert triple.terminal_norm <= 1e-6
        assert all(np.isfinite(step["remainder_delta"]) for step in history)
