"""Follower game: functionals, gradients, equilibrium and convexity."""

import json
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from degcontrol import cli, harness, nash
from degcontrol.grids import TrajectoryField
from degcontrol.nash import (
    convexity_margin,
    evaluate_functional,
    fit_mu_star,
    functional_gradient,
    nash_fixed_point,
    second_derivative_form,
)
from degcontrol.solvers import (CylinderProblem, StepFailureError,
                                SweepFailureError, solve_forward_semilinear)

from conftest import UNIT_GAME, build, sine_data

# the game section of unit penalties
MU1 = {"mu1": 1.0, "mu2": 1.0}


def _leader(prob, scale=0.05):
    return TrajectoryField.from_function(
        prob.grid, prob.mesh,
        lambda x, t: scale * np.sin(np.pi * x) * (1.0 + t))


def _bump_direction(prob, window="O1"):
    lo, hi = getattr(prob.windows, window)
    c, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    ind = prob.indicator(window)
    vals = np.cos(0.5 * np.pi * (prob.grid.nodes - c) / half) ** 2
    f = TrajectoryField.from_function(prob.grid, prob.mesh,
                                      lambda x, t: np.ones_like(x))
    f.values *= (vals * ind)[None, :]
    return f


class TestTargets:
    @pytest.mark.parametrize("T", [0.01, 0.1, 1.0, 100.0])
    def test_targets_are_finite_at_every_horizon(self, T):
        # the 1/rho0 profile lies in (0, 1] however many decades rho0
        # spans, and computing it overflows nowhere
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            game = harness.build_run({"grid": {"N": 16, "M": 16},
                                      "geometry": {"T": T},
                                      "experiment": {"kind": "nash"}})[2]
        for target in (game.target1, game.target2):
            assert np.all(np.isfinite(target.values))
        assert np.max(game.target1.values) <= 1.0

    def test_game_is_built_with_its_targets(self):
        # build_run passes the targets to the spec it builds; a zero
        # amplitude builds none, which the game reads as zero targets
        config = {"grid": {"N": 16, "M": 16}, "experiment": {"kind": "nash"}}
        prob, weights, game = harness.build_run(config)
        expected = nash.make_default_targets(prob, weights, 1.0)
        for got, want in zip((game.target1, game.target2), expected):
            assert np.array_equal(got.values, want.values)
        config["game"] = {"target_amplitude": 0.0}
        prob, _, game = harness.build_run(config)
        assert game.target1 is None and game.target2 is None
        assert all(not np.any(t.values) for t in game.targets(prob))

    def test_game_is_frozen(self):
        with pytest.raises(FrozenInstanceError):
            UNIT_GAME.mu1 = 2.0
        with pytest.raises(FrozenInstanceError):
            UNIT_GAME.target1 = None

    def test_short_horizon_nash_run(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid": {"N": 16, "M": 16},
                                    "geometry": {"T": 0.1},
                                    "experiment": {"kind": "nash"}}))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert max(report["report"]["residuals"].values()) < 1e-12


class TestFunctional:
    def test_perfect_tracking_is_zero(self, prob):
        game = harness.build_run({"game": MU1})[2]
        zero_v = prob.new_field()
        assert evaluate_functional(prob, game, 1, game.target1, zero_v) == 0.0

    def test_constant_mismatch_closed_form(self, prob):
        # |y - target| = 1 on Od, alpha = 2, v = 0: J = |Od|_h * T with
        # |Od|_h the discrete measure of the window
        game = replace(UNIT_GAME, alpha1=2.0)
        y = TrajectoryField(prob.grid, prob.mesh,
                            np.ones((prob.mesh.M + 1, prob.grid.N + 1)))
        ind = prob.indicator("Od")
        measure = float(np.sum(prob.grid.cell_volumes * ind))
        j = evaluate_functional(prob, game, 1, y, prob.new_field())
        assert j == pytest.approx(measure * prob.mesh.T, rel=1e-12)
        assert measure == pytest.approx(0.2, abs=0.03)

    def test_index_validated(self, prob):
        with pytest.raises(ValueError):
            evaluate_functional(prob, UNIT_GAME, 3, prob.new_field(),
                                prob.new_field())


class TestFixedPoint:
    def test_residuals_small(self, prob, game):
        h, y0 = _leader(prob), sine_data(prob, 0.05)
        sol = nash_fixed_point(prob, game, h, y0)
        grads = functional_gradient(prob, game, h, sol.v1, sol.v2, y0)
        for g, v in zip(grads, (sol.v1, sol.v2)):
            assert g.l2q_norm() / (1.0 + v.l2q_norm()) <= 1e-6

    def test_trivial_data_gives_zero(self, prob):
        # zero targets
        sol = nash_fixed_point(prob, UNIT_GAME, None, np.zeros(prob.grid.N + 1))
        assert np.max(np.abs(sol.y.values)) == 0.0
        assert np.max(np.abs(sol.v1.values)) == 0.0

    def test_large_mu_decouples(self, prob, game):
        game = replace(game, mu1=1e12, mu2=1e12)
        y0 = sine_data(prob, 0.05)
        h = _leader(prob)
        sol = nash_fixed_point(prob, game, h, y0)
        y_free = solve_forward_semilinear(prob, y0, h=h)
        scale = np.max(np.abs(y_free.values))
        assert np.max(np.abs(sol.y.values - y_free.values)) / scale <= 1e-9
        assert sol.v1.l2q_norm() <= 1e-9

    def test_nan_target_raises_at_once(self, prob_small):
        # the target is the source of the first follower's adjoint
        target = prob_small.new_field()
        target.values[prob_small.mesh.M // 2, prob_small.grid.N // 2] = np.nan
        with pytest.raises(SweepFailureError) as err:
            nash_fixed_point(prob_small, replace(UNIT_GAME, target1=target), None,
                             sine_data(prob_small, 0.05))
        assert len(err.value.history) == 1
        assert np.isnan(err.value.history[0])


    def test_diverging_iteration_ends_early(self, tmp_path):
        # at mu = 1e-3 on (32,64) the updates grow from the second sweep
        # on; with no net contraction over three sweeps the iteration
        # stops at sweep 5 rather than after max_sweeps
        config = {"grid": {"N": 32, "M": 64},
                  "game": {"mu1": 1e-3, "mu2": 1e-3},
                  "experiment": {"kind": "nash"}}
        with pytest.raises(SweepFailureError) as err:
            harness.run_scenario(config, tmp_path, seed=0)
        history = err.value.history
        assert len(history) == 5
        assert np.all(np.isfinite(history))
        assert history[-1] >= history[-4]

    def test_stalled_iteration_ends_early(self, prob_small, monkeypatch):
        # the rule compares sweep k with sweep k - 3: updates of 1, 0.5,
        # 2 and 1 stop the iteration at the fourth sweep
        deltas = iter([1.0, 0.5, 2.0, 1.0, 1e-12])
        p = np.zeros((2, prob_small.mesh.M + 1, prob_small.grid.N + 1))

        def adjoints(ops, couplings, targets, y):
            p[:] += next(deltas)
            return p.copy()

        monkeypatch.setattr(nash, "_follower_adjoints", adjoints)
        with pytest.raises(SweepFailureError) as err:
            nash_fixed_point(prob_small, UNIT_GAME, None,
                             sine_data(prob_small, 0.05))
        assert err.value.history == [1.0, 0.5, 2.0, 1.0]


class TestGradient:
    def test_matches_central_differences(self, prob, game):
        # both outputs of one call, each against J_i along a bump in O_i
        h = _leader(prob)
        y0 = sine_data(prob, 0.05)
        v = [_bump_direction(prob, "O1"), _bump_direction(prob, "O2")]
        for v_i in v:
            v_i.values *= 0.01
        grads = functional_gradient(prob, game, h, v[0], v[1], y0)
        eps = 1e-4
        for i in (1, 2):
            d = _bump_direction(prob, f"O{i}")

            def j(sign):
                w = list(v)
                w[i - 1] = v[i - 1] + sign * eps * d
                y = solve_forward_semilinear(prob, y0, h=h, v1=w[0], v2=w[1])
                return evaluate_functional(prob, game, i, y, w[i - 1])

            fd = (j(1.0) - j(-1.0)) / (2 * eps)
            directional = grads[i - 1].l2q_inner(d)
            assert directional == pytest.approx(fd, rel=1e-5)

    def test_parabola_for_linear_dynamics(self, linear):
        # with F = 0 the state map is affine in v1, so J1 along a control
        # line is an exact quadratic: a 3-point parabola reproduces a
        # 4th sample to roundoff
        prob_linear, _, game = linear
        y0 = sine_data(prob_linear, 0.05)
        h = _leader(prob_linear)
        d = _bump_direction(prob_linear, "O1")
        v2 = prob_linear.new_field()

        def j(eps):
            v1 = eps * d
            y = solve_forward_semilinear(prob_linear, y0, h=h, v1=v1, v2=v2)
            return evaluate_functional(prob_linear, game, 1, y, v1)

        j0, j1, j2, j3 = j(0.0), j(1.0), j(2.0), j(3.0)
        # quadratic extrapolation from the first three samples
        pred = 3 * j2 - 3 * j1 + j0
        assert abs(j3 - pred) / max(abs(j3), 1.0) <= 1e-10


class TestSecondDerivative:
    def test_bilinear_symmetry(self, prob, game, rng):
        state = nash_fixed_point(prob, game, _leader(prob),
                                 sine_data(prob, 0.05))
        d1 = _bump_direction(prob, "O1")
        d2 = TrajectoryField.from_function(
            prob.grid, prob.mesh,
            lambda x, t: np.sin(2 * np.pi * x) * (1 - t))
        d2.values *= prob.indicator("O1")[None, :]
        # the form solves the tangent system for its first argument only,
        # so the two orders are separate computations of one number
        q12 = second_derivative_form(prob, game, state, d1, d2)
        q21 = second_derivative_form(prob, game, state, d2, d1)
        assert q12 == pytest.approx(q21, rel=1e-8)

    def test_marches_through_the_state_s_operators(self, prob, game,
                                                    monkeypatch):
        # the forms and the margin build no operator: with ops_at_state
        # refused they give, bit for bit, what operators built afresh at
        # the state give
        state = nash_fixed_point(prob, game, _leader(prob),
                                 sine_data(prob, 0.05))
        d1 = _bump_direction(prob, "O1")
        d2 = _bump_direction(prob, "O1")
        d2.values *= np.sin(np.pi * prob.mesh.times)[:, None]

        def values(st):
            return (second_derivative_form(prob, game, st, d1),
                    second_derivative_form(prob, game, st, d1, d2),
                    convexity_margin(prob, game, st,
                                     np.random.default_rng(3)))

        expected = values(replace(state, ops=prob.ops_at_state(state.y)))

        def refused(self, y):
            raise AssertionError("an operator was built")

        monkeypatch.setattr(CylinderProblem, "ops_at_state", refused)
        assert values(state) == expected

    def test_matches_fd_hessian(self, prob, game):
        h = _leader(prob)
        y0 = sine_data(prob, 0.05)
        state = nash_fixed_point(prob, game, h, y0)
        d = _bump_direction(prob, "O1")
        quad = second_derivative_form(prob, game, state, d)

        def j(eps):
            v1 = state.v1 + eps * d
            y = solve_forward_semilinear(prob, y0, h=h, v1=v1, v2=state.v2)
            return evaluate_functional(prob, game, 1, y, v1)

        eps = 1e-3
        fd = (j(eps) - 2 * j(0.0) + j(-eps)) / eps**2
        assert quad == pytest.approx(fd, rel=1e-3)


class TestConvexity:
    def test_margin_at_least_mu_for_linear(self, linear, rng, monkeypatch):
        # six probe directions, more than a run draws
        monkeypatch.setattr(nash, "_PROBES", 6)
        prob_linear, _, game = linear
        state = nash_fixed_point(prob_linear, game,
                                 _leader(prob_linear),
                                 sine_data(prob_linear, 0.05))
        rep = convexity_margin(prob_linear, game, state, rng)
        assert rep["certified"]
        assert rep["margin"] >= game.mu1 * (1 - 1e-10)

    def test_margin_grows_with_mu(self):
        prob_small, _, default_game = build(32, 48)
        h = _leader(prob_small)
        y0 = sine_data(prob_small, 0.02)
        margins = []
        for mu in (1.0, 5.0, 25.0):
            game = replace(default_game, mu1=mu, mu2=mu)
            state = nash_fixed_point(prob_small, game, h, y0)
            rep = convexity_margin(prob_small, game, state,
                                   np.random.default_rng(7))
            margins.append(rep["margin"])
        assert margins[0] < margins[1] < margins[2]

    def test_fit_mu_star_with_a_failing_state_march(self, monkeypatch):
        # at mu = 1e-150 the first controls overflow, and the state march
        # of the second sweep fails before any sweep rule sees the update
        # (at mu = 1e-6 the updates grow, and the sweep stops at sweep 4)
        prob, _, game = build(16, 16, game=MU1)
        h, y0 = prob.new_field(), sine_data(prob, 0.01)
        with pytest.raises(StepFailureError):
            nash_fixed_point(prob, replace(game, mu1=1e-150, mu2=1e-150), h,
                             y0)
        monkeypatch.setattr(nash, "_MU_BRACKET", (1e-150, 1e6))
        monkeypatch.setattr(nash, "_MU_ITERS", 3)
        rep = fit_mu_star(prob, game, h, y0)
        assert np.isfinite(rep["mu_star"])

    def test_fit_mu_star(self):
        prob_small, _, game = build(32, 48, game=MU1)
        rep = fit_mu_star(prob_small, game, _leader(prob_small),
                          sine_data(prob_small, 0.02))
        assert np.isfinite(rep["mu_star"])
        assert rep["bracket"][0] <= rep["mu_star"] <= rep["bracket"][1]
