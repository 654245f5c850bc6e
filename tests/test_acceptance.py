"""Acceptance gate: one test per criterion at the default desk scale.

Run with `pytest -v tests/test_acceptance.py`; the verbose line of each
test is the pass/fail verdict for that criterion.  Shared solves are
module-scoped so the whole gate stays within the per-criterion budget.
"""

import numpy as np
import pytest

from degcontrol import nash
from degcontrol.carleman import empirical_carleman, empirical_observability
from degcontrol.grids import TrajectoryField
from degcontrol.harness import build_run, preset
from degcontrol.mms import space_order_study, time_order_study
from degcontrol.nash import (
    convexity_margin,
    evaluate_functional,
    fit_mu_star,
    functional_gradient,
    nash_fixed_point,
    second_derivative_form,
)
from degcontrol.nullcontrol import (
    HUMSolver,
    NewtonFailureError,
    solve_nonlinear_null_control,
    verify_additional_estimates,
)
from degcontrol.solvers import (
    solve_backward_linear,
    solve_forward_linear,
    solve_forward_semilinear,
)

from conftest import (LINEAR, NEWTON, UNIT_GAME, build, sampler_inputs,
                      sine_data)


# -- shared heavy objects ------------------------------------------------


@pytest.fixture(scope="module")
def linear_setup(linear):
    prob_linear, weights, game = linear
    hum = HUMSolver(prob_linear, weights, game)
    y0 = sine_data(prob_linear, 0.1)
    triple = hum.solve(y0)
    return {"game": game, "hum": hum, "y0": y0, "triple": triple,
            "estimates": verify_additional_estimates(prob_linear, weights,
                                                     triple)}


@pytest.fixture(scope="module")
def linear_refined():
    prob, weights, game = build(96, 192, **LINEAR)
    triple = HUMSolver(prob, weights, game).solve(sine_data(prob, 0.1))
    return {"triple": triple,
            "estimates": verify_additional_estimates(prob, weights, triple)}


@pytest.fixture(scope="module")
def nash_state(prob, game):
    h = TrajectoryField.from_function(
        prob.grid, prob.mesh,
        lambda x, t: 0.05 * np.sin(np.pi * x) * (1.0 + t))
    y0 = sine_data(prob, 0.05)
    return h, y0, nash_fixed_point(prob, game, h, y0)


def _report(lines):
    print()
    for line in lines:
        print(f"  {line}")


# -- criteria ------------------------------------------------------------


def test_criterion_1_weight_identities(weights):
    rep = weights.identity_report()
    assert rep["identity_log_rel"] <= 1e-12
    for key in ("C_rho1_le_rho_hat", "C_rho_hat_le_rho0",
                "C_rho0_le_rho2", "C_rho2_le_rho1_sq"):
        assert np.isfinite(rep[key]) and rep[key] > 0
    assert rep["comp_pesos_ok"]
    _report([f"identity rel error {rep['identity_log_rel']:.2e}",
             f"3A* < 2A-hat at lambda = {rep['lambda']:.4f}"])


def test_criterion_2_discrete_duality(prob, rng):
    ops = prob.linearized_ops()
    M, n = prob.mesh.M, prob.grid.N - 1
    dt = prob.mesh.dt
    wv = prob.grid.interior_volumes
    worst = 0.0
    for _ in range(5):
        f = rng.standard_normal((M + 1, n))
        g = rng.standard_normal((M + 1, n))
        y0 = np.pad(rng.standard_normal(n), 1)
        y = solve_forward_linear(ops, y0, f)
        p = solve_backward_linear(ops, g)
        lhs = dt * np.einsum("j,nj->", wv, f[1:] * p.values[1:, 1:-1]) \
            + float(np.sum(wv * y0[1:-1] * p.values[1, 1:-1]))
        rhs = dt * np.einsum("j,nj->", wv, g[1:] * y.values[1:, 1:-1])
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    assert worst <= 1e-8
    _report([f"worst duality mismatch over 5 pairs {worst:.2e}"])


def test_criterion_3_nash_layer(prob, linear, game, nash_state):
    h, y0, sol = nash_state
    grads = functional_gradient(prob, game, h, sol.v1, sol.v2, y0)
    res = max(g.l2q_norm() / (1.0 + v.l2q_norm())
              for g, v in zip(grads, (sol.v1, sol.v2)))
    assert res <= 1e-6

    # adjoint gradient vs central differences, away from the
    # equilibrium so the directional derivative is not trivially zero
    d = prob.new_field()
    ind = prob.indicator("O1")
    d.values[:] = np.sin(np.pi * prob.grid.nodes)[None, :] * ind[None, :]
    vbase = sol.v1 + 0.01 * d
    g = functional_gradient(prob, game, h, vbase, sol.v2, y0)[0]
    eps = 1e-4

    def j1(v1):
        y = solve_forward_semilinear(prob, y0, h=h, v1=v1, v2=sol.v2)
        return evaluate_functional(prob, game, 1, y, v1)

    fd = (j1(vbase + eps * d) - j1(vbase - eps * d)) / (2 * eps)
    rel = abs(g.l2q_inner(d) - fd) / max(abs(fd), 1e-30)
    assert rel <= 1e-5

    # F = 0: J1 along a control line is an exact parabola
    prob_linear, _, game_l = linear
    dl = prob_linear.new_field()
    dl.values[:] = d.values
    v2 = prob_linear.new_field()

    def j1_lin(eps_):
        v1 = eps_ * dl
        y = solve_forward_semilinear(prob_linear, y0, h=None, v1=v1, v2=v2)
        return evaluate_functional(prob_linear, game_l, 1, y, v1)

    j0, ja, jb, jc = (j1_lin(e) for e in (0.0, 1.0, 2.0, 3.0))
    parabola = abs(jc - (3 * jb - 3 * ja + j0)) / max(abs(jc), 1.0)
    assert parabola <= 1e-10
    _report([f"equilibrium gradient residual {res:.2e}",
             f"gradient vs central differences {rel:.2e}",
             f"parabola residual (F = 0) {parabola:.2e}"])


def test_criterion_4_convexity_certificate(prob, linear, game, nash_state,
                                           rng, monkeypatch):
    h, y0, sol = nash_state
    # fitted mu*: margins certified above it for the default F
    fit = fit_mu_star(prob, game, h, y0)
    assert np.isfinite(fit["mu_star"])
    # six probe directions per margin below, more than a run draws
    monkeypatch.setattr(nash, "_PROBES", 6)
    rep = convexity_margin(prob, game, sol, rng)
    assert rep["certified"]
    assert game.mu1 > fit["mu_star"]

    # margin >= mu for F = 0
    prob_linear, _, game_l = linear
    sol_l = nash_fixed_point(prob_linear, game_l, h, y0)
    rep_l = convexity_margin(prob_linear, game_l, sol_l, rng)
    assert rep_l["margin"] >= game_l.mu1 * (1 - 1e-10)

    # second-derivative form vs finite-difference Hessian
    d = prob.new_field()
    ind = prob.indicator("O1")
    d.values[:] = np.sin(np.pi * prob.grid.nodes)[None, :] * ind[None, :]
    quad = second_derivative_form(prob, game, sol, d)

    def j1(eps_):
        v1 = sol.v1 + eps_ * d
        y = solve_forward_semilinear(prob, y0, h=h, v1=v1, v2=sol.v2)
        return evaluate_functional(prob, game, 1, y, v1)

    eps = 1e-3
    fd = (j1(eps) - 2 * j1(0.0) + j1(-eps)) / eps**2
    hess_rel = abs(quad - fd) / abs(fd)
    assert hess_rel <= 1e-3
    _report([f"mu* = {fit['mu_star']:.3g}, margin {rep['margin']:.4f} "
             f"certified at mu = {game.mu1}",
             f"margin (F = 0) {rep_l['margin']:.4f} >= mu = {game_l.mu1}",
             f"Hessian vs finite differences {hess_rel:.2e}"])


def test_criterion_5_linear_null_control(prob_linear, linear_setup,
                                         linear_refined):
    y0, triple = linear_setup["y0"], linear_setup["triple"]
    y0_norm = prob_linear.grid.norm(y0)
    assert triple.terminal_norm <= 1e-3 * y0_norm

    # weighted budget with a refinement-stable constant
    c_desk = triple.budget_constant
    c_fine = linear_refined["triple"].budget_constant
    drift = abs(c_fine / c_desk - 1.0)
    assert np.isfinite(c_desk) and c_desk > 0
    assert drift <= 0.3

    # superposition of the data -> state map
    hum = linear_setup["hum"]
    x = prob_linear.grid.nodes
    yb = 0.05 * np.sin(2 * np.pi * x)
    tb = hum.solve(yb)
    tab = hum.solve(y0 + yb)
    gap = TrajectoryField(prob_linear.grid, prob_linear.mesh,
                          tab.y.values - triple.y.values - tb.y.values)
    sup = gap.l2q_norm() / (1.0 + triple.y.l2q_norm() + tb.y.l2q_norm())
    assert sup <= 1e-8
    _report([f"terminal norm {triple.terminal_norm:.2e} "
             f"<= 1e-3 * {y0_norm:.3f}",
             f"budget constant {c_desk:.4g}, refined {c_fine:.4g} "
             f"(drift {drift:.1%})",
             f"superposition defect {sup:.2e}"])


def test_criterion_6_additional_estimates(linear_setup, linear_refined):
    rep = linear_setup["estimates"]
    assert rep["all_finite"]
    rep_f = linear_refined["estimates"]
    drift5 = abs(rep_f["C_prop5"] / rep["C_prop5"] - 1.0)
    drift6 = abs(rep_f["C_prop6"] / rep["C_prop6"] - 1.0)
    assert drift5 <= 0.3
    assert drift6 <= 0.3
    _report([f"C_prop5 {rep['C_prop5']:.4g} (drift {drift5:.1%})",
             f"C_prop6 {rep['C_prop6']:.4g} (drift {drift6:.1%})"])


def test_criterion_7_nonlinear_null_control(prob, prob_linear, weights,
                                            game, linear_setup):
    hum = HUMSolver(prob, weights, game)
    base_y0 = sine_data(prob, 0.01)
    lines = []

    # small data: fast convergence with tiny residuals
    triple, history = solve_nonlinear_null_control(hum, base_y0, *NEWTON)
    assert len(history) <= 10
    assert triple.terminal_norm <= 1e-6
    wt = game.time_weight(prob)
    qeq = []
    for i in (1, 2):
        p = triple.p1 if i == 1 else triple.p2
        ind = prob.indicator(f"O{i}")
        v1 = triple.p1.copy()
        v1.values *= -prob.indicator("O1")[None, :] / (game.mu1 * wt[:, None])
        v2 = triple.p2.copy()
        v2.values *= -prob.indicator("O2")[None, :] / (game.mu2 * wt[:, None])
        r = functional_gradient(prob, game, triple.h, v1, v2, base_y0)[i - 1]
        v = v1 if i == 1 else v2
        qeq.append(float(np.max(np.abs(r.values))
                         / (1.0 + np.max(np.abs(v.values)))))
    assert max(qeq) <= 1e-6
    lines.append(f"1x data: {len(history)} steps, terminal "
                 f"{triple.terminal_norm:.2e}, residuals {max(qeq):.2e}")

    # F = 0 converges in exactly one step
    _, hist0 = solve_nonlinear_null_control(
        linear_setup["hum"], sine_data(prob_linear, 0.01), *NEWTON)
    assert len(hist0) == 1
    lines.append("F = 0: exactly 1 Newton step")

    # 3x data still converges
    _, hist3 = solve_nonlinear_null_control(hum, 3.0 * base_y0, *NEWTON)
    lines.append(f"3x data: converged in {len(hist3)} steps")

    # 300x data detectably fails: at this grid the loop still contracts
    # when its steps run out, so the reason is the step budget
    with pytest.raises(NewtonFailureError) as err:
        solve_nonlinear_null_control(hum, 300.0 * base_y0, *NEWTON)
    assert err.value.reason == "budget"
    assert all(r["contraction"] < 1.0 for r in err.value.history[1:])
    lines.append(f"300x data: no convergence in {len(err.value.history)} "
                 f"steps, reason {err.value.reason}")
    _report(lines)


def test_criterion_8_empirical_inequalities(prob, weights):
    rng = np.random.default_rng(5)
    c = UNIT_GAME.couplings(prob)
    inputs = sampler_inputs(prob, weights, c)
    obs = empirical_observability(prob, weights, c, *inputs, samples=20,
                                  rng=rng)
    car = empirical_carleman(prob, weights, *inputs, samples=10,
                             rng=np.random.default_rng(5))
    assert obs["skipped"] == 0
    assert np.isfinite(obs["max_ratio"]) and np.isfinite(car["max_ratio"])

    fine, w_fine, _ = build(96, 192)
    c_fine = UNIT_GAME.couplings(fine)
    inputs = sampler_inputs(fine, w_fine, c_fine)
    obs_f = empirical_observability(fine, w_fine, c_fine, *inputs,
                                    samples=20, rng=np.random.default_rng(5))
    car_f = empirical_carleman(fine, w_fine, *inputs, samples=10,
                               rng=np.random.default_rng(5))
    d_obs = abs(obs_f["max_ratio"] / obs["max_ratio"] - 1.0)
    d_car = abs(car_f["max_ratio"] / car["max_ratio"] - 1.0)
    assert d_obs <= 0.2
    assert d_car <= 0.2
    _report([f"observability ratio {obs['max_ratio']:.4g} "
             f"(drift {d_obs:.1%})",
             f"Carleman ratio {car['max_ratio']:.4g} (drift {d_car:.1%})"])


def test_criterion_9_discretization_orders():
    # the preset's problem: the constant domain on the default grid
    prob = build_run(preset("mms-convergence"))[0]
    tstudy = time_order_study(prob)
    sstudy = space_order_study(prob)
    assert tstudy["slope"] == pytest.approx(1.0, abs=0.15)
    assert sstudy["slope"] == pytest.approx(2.0, abs=0.3)
    _report([f"time slope {tstudy['slope']:.4f} (target 1.0 +/- 0.15)",
             f"space slope {sstudy['slope']:.4f} (target 2.0 +/- 0.3)"])
