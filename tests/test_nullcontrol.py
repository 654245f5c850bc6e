"""HUM solves, superposition, residuals and the Newton loop."""

import copy
import itertools
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from degcontrol import cli, harness, nullcontrol
from degcontrol.geometry import DegeneracySpec
from degcontrol.grids import SpatialGrid, TrajectoryField
from degcontrol.nash import nash_fixed_point
from degcontrol.nullcontrol import (
    HUMSolver,
    NewtonFailureError,
    h1a_norm,
    solve_nonlinear_null_control,
    verify_additional_estimates,
)
from degcontrol.solvers import solve_backward_linear, solve_forward_linear

from conftest import (LINEAR, NEWTON, NO_TARGETS, build, cubic_F, sine_data,
                      with_F)


@pytest.fixture(scope="module")
def hum(linear):
    prob, weights, game = linear
    return game, HUMSolver(prob, weights, game)


@pytest.fixture(scope="module")
def coarse():
    """(32,64) linear problem, its parts and one HUM solver."""
    prob, weights, game = build(32, 64, **LINEAR)
    return prob, weights, game, HUMSolver(prob, weights, game)


@pytest.fixture
def refinements(monkeypatch):
    """The refinement traces of every HUM solve the test makes."""
    traces = []
    solve = HUMSolver.solve

    def recording(self, *args, **kwargs):
        triple = solve(self, *args, **kwargs)
        traces.append(triple.cg_info["refinement_residuals"])
        return triple

    monkeypatch.setattr(HUMSolver, "solve", recording)
    return traces


def _corrections_gain(traces: list) -> bool:
    """Some solves ran, and in each the correction lowered the residual
    of the unrefined iterate, so the corrected iterate is the better."""
    return bool(traces) and all(len(t) == 2 and t[1] < t[0] for t in traces)


class TestCouplings:
    def test_hum_blocks_are_the_game_couplings(self):
        # wt = l(t) makes both couplings vary in time
        prob, weights, game = build(16, 16, **LINEAR, game={
            "alpha1": 2.0, "alpha2": 3.0, "mu2": 7.0,
            "jacobian_weighting": False, **NO_TARGETS})
        hum = HUMSolver(prob, weights, game)
        c = game.couplings(prob)
        control, tracking = c.control, c.tracking
        assert np.ptp(game.time_weight(prob)) > 0.1
        M, n = prob.mesh.M, prob.grid.N - 1
        size, off = M * n, (M + 1) * n
        for i, G in enumerate((hum.G1, hum.G2)):
            block = G[:, :size]
            assert (block - sp.diags(block.diagonal())).count_nonzero() == 0
            assert np.array_equal(block.diagonal(),
                                  control[i][1:, 1:-1].ravel())
            track = hum.G0[:, off + i * size:off + (i + 1) * size]
            assert np.array_equal(track.diagonal(),
                                  -tracking[i][1:, 1:-1].ravel())


class TestHierarchy:
    # the leader commits to h, and the followers answer with their own
    # Nash equilibrium: on the HUM's grid, the Picard iteration on the
    # followers' optimality system, from zero controls, reproduces the
    # HUM's state, as both read one set of couplings (measured: 3 sweeps
    # and 4.8e-12 for the linear case, 4 sweeps and 9.4e-12 at 1x)
    @pytest.mark.parametrize("nonlinear", [False, True],
                             ids=["linear-control", "nonlinear-control"])
    def test_followers_play_the_hum_state(self, nonlinear):
        if nonlinear:  # with the targets of the run's own game
            prob, weights, game = build(32, 64)
        else:
            prob, weights, game = build(32, 64, **LINEAR, game=NO_TARGETS)
        y0 = sine_data(prob, 0.01)
        hum = HUMSolver(prob, weights, game)
        if nonlinear:
            triple, _ = solve_nonlinear_null_control(hum, y0, *NEWTON)
        else:
            triple = hum.solve(y0)
        played = nash_fixed_point(prob, game, triple.h, y0)
        assert len(played.history) <= 5
        assert np.max(np.abs(played.y.values - triple.y.values)) <= 1e-10


def _consistency_reference(hum, triple, y0, load) -> dict:
    """HUMSolver._consistency with each follower adjoint marched on its
    own, by solve_backward_linear."""
    prob = hum.prob
    c = hum.game.couplings(prob)
    control, tracking = c.control, c.tracking
    y, p1, p2, h = triple.y, triple.p1, triple.p2, triple.h
    v1, v2 = c.controls(prob, (p1.values, p2.values))
    src = (h.values[:, 1:-1] * prob.indicator_interior("O")[None, :]
           + v1.values[:, 1:-1] + v2.values[:, 1:-1] + load[0, :, 1:-1])
    y_check = solve_forward_linear(hum.ops, y0, src)
    out = {"y": float(np.max(np.abs(y_check.values - y.values))
                      / (1.0 + float(np.max(np.abs(y.values)))))}
    for i, p in enumerate((p1, p2), start=1):
        g = (tracking[i - 1] * y.values)[:, 1:-1] + load[i, :, 1:-1]
        p_check = solve_backward_linear(hum.ops, g)
        out[f"p{i}"] = float(
            np.max(np.abs(p_check.values[1:] - p.values[1:]))
            / (1.0 + float(np.max(np.abs(p.values)))))
    return out


class TestConsistency:
    @pytest.mark.parametrize("game", [
        {},
        {"alpha1": 2.0, "alpha2": 3.0, "mu2": 7.0,
         "jacobian_weighting": False},
    ], ids=["weighted", "unweighted"])
    def test_two_column_march_equals_one_column_marches(self, game):
        prob, weights, game = build(16, 16, **LINEAR, game=game)
        hum = HUMSolver(prob, weights, game)
        y0 = sine_data(prob, 0.01)
        # loads shaped like the targets, which decay like 1/rho0
        t1, t2 = game.target1.values, game.target2.values
        load = np.stack([0.1 * t1, -0.3 * t2, 0.2 * (t1 - t2)])
        triple = hum.solve(y0, load)
        assert triple.residuals == _consistency_reference(hum, triple, y0,
                                                          load)


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

    def test_zero_load_is_no_load(self, coarse):
        prob, hum = coarse[0], coarse[3]
        y0 = sine_data(prob, 0.1)
        a = hum.solve(y0)
        b = hum.solve(y0, np.zeros((3, prob.mesh.M + 1, prob.grid.N + 1)))
        for name in ("y", "h", "p1", "p2"):
            assert np.array_equal(getattr(a, name).values,
                                  getattr(b, name).values)
        assert a.residuals == b.residuals
        assert (a.kappa0, a.budget_constant) == (b.kappa0, b.budget_constant)

    def test_boundary_values_of_y0_are_not_data(self):
        # the state vanishes on the boundary, so y0[0] = 1 is the same
        # data as y0[0] = 0: the same triple, and kappa0 measures it alike
        prob, weights, game = build(16, 16, **LINEAR, game=NO_TARGETS)
        hum = HUMSolver(prob, weights, game)
        y0 = sine_data(prob, 0.1)
        a = hum.solve(y0)
        y0[0] = 1.0
        b = hum.solve(y0)
        assert y0[0] == 1.0  # the caller's array is left as it was
        for name in ("y", "h", "p1", "p2"):
            assert np.array_equal(getattr(a, name).values,
                                  getattr(b, name).values)
        assert (a.kappa0, a.budget_constant) == (b.kappa0, b.budget_constant)

    def test_additional_estimates(self, prob_linear, weights, hum):
        game, solver = hum
        triple = solver.solve(sine_data(prob_linear, 0.1))
        rep = verify_additional_estimates(prob_linear, weights, triple)
        assert rep["all_finite"]
        assert rep["C_prop5"] > 0 and rep["C_prop6"] > 0


class TestNewton:
    def test_linear_case_single_step(self, prob_linear, hum):
        _, solver = hum
        triple, history = solve_nonlinear_null_control(
            solver, sine_data(prob_linear, 0.01), *NEWTON)
        assert len(history) == 1
        assert triple.terminal_norm <= 1e-6

    def test_small_data_converges(self, prob, weights, game):
        triple, history = solve_nonlinear_null_control(
            HUMSolver(prob, weights, game), sine_data(prob, 0.01), *NEWTON)
        assert len(history) <= 10
        assert triple.terminal_norm <= 1e-6
        assert all(np.isfinite(step["remainder_delta"]) for step in history)
        assert history[0]["contraction"] is None
        for prev, step in zip(history, history[1:]):
            assert step["contraction"] == pytest.approx(
                step["remainder_delta"] / prev["remainder_delta"])

    def test_newton_desk_corrections_gain(self, tmp_path, refinements):
        # the benchmark's newton-desk run: 15 HUM solves over its three
        # scales, the last of which does not converge
        harness.run_scenario(
            {"grid": {"N": 32, "M": 64},
             "experiment": {"kind": "nonlinear-control",
                            "scale_factors": [1.0, 3.0, 300.0]}},
            tmp_path, seed=0)
        assert len(refinements) == 15
        assert _corrections_gain(refinements)

    def test_no_steps_refused(self, prob_linear, hum):
        _, solver = hum
        with pytest.raises(ValueError, match="max_newton"):
            solve_nonlinear_null_control(
                solver, sine_data(prob_linear, 0.01), *NEWTON[:2], 0)

    @pytest.mark.parametrize("scale, reason, steps", [(300.0, "budget", 10),
                                                      (600.0, "diverged", 4)])
    def test_failure_reasons(self, scale, reason, steps):
        # F = u^3 + 2 sin(w) grows, so large data leaves the local radius:
        # at (32,64) 300x data still contracts (about 0.4 per step) when
        # the ten steps run out, while 600x data stalls, and its fourth
        # delta is above its first
        prob, weights, game = build(32, 64)
        prob = with_F(prob, cubic_F())
        with pytest.raises(NewtonFailureError) as err:
            solve_nonlinear_null_control(HUMSolver(prob, weights, game),
                                         sine_data(prob, 0.01 * scale),
                                         *NEWTON)
        assert err.value.reason == reason
        assert reason in str(err.value)
        deltas = [step["remainder_delta"] for step in err.value.history]
        assert len(deltas) == steps
        if reason == "diverged":
            assert deltas[-1] >= deltas[-4]
        else:
            assert all(d < p for p, d in zip(deltas, deltas[1:]))


class _CountingMatrix:
    """Forwards `@` to a matrix and counts the products."""

    def __init__(self, mat):
        self.mat = mat
        self.products = 0

    def __matmul__(self, other):
        self.products += 1
        return self.mat @ other


def _one_correction(info: dict) -> bool:
    """The refinement trace holds the unrefined iterate and one
    correction, and the solve kept the corrected iterate."""
    trace = info["refinement_residuals"]
    return len(trace) == 2 and trace[1] == info["relative_residual"]


def _splu_reference(hum: HUMSolver) -> HUMSolver:
    """A copy of `hum` that solves with SuperLU's factor of the same
    shifted operator."""
    ref = copy.copy(hum)
    # SuperLU has no long-double type
    ref.lu = spla.splu((hum.Bs.astype(float) + nullcontrol.SHIFT
                        * sp.identity(hum.Bs.shape[0])).tocsc())
    return ref


class TestFactorization:
    """The banded Cholesky factorization and the refinement it feeds."""

    def test_csr_product_equals_csc(self, coarse):
        hum = coarse[3]
        assert hum.Bs.format == "csr"
        v = np.random.default_rng(0).standard_normal(
            hum.Bs.shape[0]).astype(np.longdouble)
        assert np.array_equal(hum.Bs @ v,
                              hum.Bs.tocsc().astype(np.longdouble) @ v)

    def test_one_product_per_refinement_step(self, coarse, monkeypatch):
        prob, hum = coarse[0], coarse[3]
        counter = _CountingMatrix(hum.Bs)
        monkeypatch.setattr(hum, "Bs", counter)
        info = hum.solve(sine_data(prob, 0.1)).cg_info
        # one product scores the unrefined iterate, one the corrected one
        assert _one_correction(info)
        assert counter.products == 2

    def test_operator_held_once_in_long_double(self):
        prob, weights, game = build(32, 64, **LINEAR)
        prob.linearized_ops()  # cached on prob, not held by the HUM
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            hum = HUMSolver(prob, weights, game)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert hum.Bs.data.dtype == np.longdouble
        # beside the band, measured 1.92 MiB; a float64 copy of the
        # operator beside the long-double one held 2.46 MiB
        assert held - hum.lu.band.nbytes <= 2.1 * 2 ** 20

    @pytest.mark.parametrize("N, M", [(16, 16), (32, 64)])
    def test_level_order_gives_band(self, N, M):
        prob, weights, game = build(N, M, **LINEAR, game=NO_TARGETS)
        hum = HUMSolver(prob, weights, game)
        n = N - 1
        perm = nullcontrol.level_order(M, n)
        assert np.array_equal(np.sort(perm), np.arange(hum.Bs.shape[0]))
        ab = nullcontrol.lower_band(hum.Bs, perm)
        kd = 3 * n + 1
        assert ab.shape == (kd + 1, hum.Bs.shape[0])
        # every entry of the permuted operator lies inside the band, and
        # the band storage holds each one in its place
        P = hum.Bs[perm][:, perm]
        assert sp.tril(P, -kd - 1).nnz == 0
        assert np.any(P.diagonal(-kd) != 0)
        ref = np.zeros_like(ab)
        for d in range(kd + 1):
            ref[d, :P.shape[0] - d] = P.diagonal(-d)
        assert np.array_equal(ab, ref)

    def test_factor_reproduces_shifted_operator(self, coarse):
        hum = coarse[3]
        A = hum.Bs + nullcontrol.SHIFT * sp.identity(hum.Bs.shape[0])
        f = np.random.default_rng(0).standard_normal(A.shape[0])
        x = hum.lu.solve(f)
        # backward residual; measured 2.6e-18
        backward = (np.linalg.norm(f - A @ x)
                    / (spla.norm(hum.Bs) * np.linalg.norm(x)))
        assert backward <= 1e-15

    def test_factor_surface(self, coarse):
        # what perfbench's tracer reads: solve, L.nnz and U.nnz
        lu = coarse[3].lu
        kd1, size = lu.band.shape
        stored = kd1 * size - kd1 * (kd1 - 1) // 2
        assert lu.L.nnz == lu.U.nnz == stored
        assert np.shares_memory(lu.L.data, lu.band)
        assert lu.solve(np.zeros(size)).shape == (size,)

    def test_matches_default_splu_reference(self, coarse, monkeypatch):
        # the two factors agree on the solution only where the shift pins
        # the near-null part of the minimizer: at a shift of 1e-12.  At
        # the default shift y and h differ by 2e-6 and 6e-5 (ROADMAP
        # defect 1)
        prob, weights, game = coarse[:3]
        monkeypatch.setattr(nullcontrol, "SHIFT", 1e-12)
        hum = HUMSolver(prob, weights, game)
        y0 = sine_data(prob, 0.1)
        a, b = hum.solve(y0), _splu_reference(hum).solve(y0)

        def rel(u, v):
            return np.linalg.norm(u - v) / np.linalg.norm(v)

        # measured 2.3e-9 (y) and 7.3e-8 (h); h is the least determined part
        assert rel(a.y.values, b.y.values) <= 1e-8
        assert rel(a.h.values, b.h.values) <= 1e-7

    def test_default_shift_matches_splu_where_determined(self, coarse):
        # at the default shift the factors agree on what the minimizer
        # determines: the control reaches zero, the triple solves the
        # linearized system, and the weighted budget is the same
        prob, hum = coarse[0], coarse[3]
        y0 = sine_data(prob, 0.1)
        a, b = hum.solve(y0), _splu_reference(hum).solve(y0)
        for t in (a, b):
            # measured 2.7e-13 and 2.4e-13
            assert t.terminal_norm <= 1e-12
            # measured at most 9.7e-11
            assert max(t.residuals.values()) <= 5e-10
        # measured 1.0e-9
        assert b.budget_constant == pytest.approx(a.budget_constant,
                                                  rel=1e-8)

    def test_indefinite_shift_raises(self, coarse, monkeypatch):
        prob, weights, game, hum = coarse
        info = hum.solve(sine_data(prob, 0.1)).cg_info
        assert set(info) == {"relative_residual", "iterations",
                             "refinement_residuals"}
        # 1e-17 leaves the (32,64) copy indefinite in double precision,
        # and the build factors once
        monkeypatch.setattr(nullcontrol, "SHIFT", 1e-17)
        with pytest.raises(nullcontrol.HUMError,
                           match="HUM factorization failed"):
            HUMSolver(prob, weights, game)

    def test_small_builds_factor_at_shift(self):
        # every build of this sweep factors at SHIFT, the short horizons
        # whose solves fail included (README)
        for T, alpha, cap_ratio, family in itertools.product(
                (0.1, 0.25, 1.0, 4.0), (0.2, 0.9), (1e3, 1e7),
                ("affine", "constant")):
            prob, weights, game = build(
                16, 16, geometry={"T": T, "alpha": alpha, "family": family},
                carleman={"cap_ratio": cap_ratio},
                experiment={"kind": "linear-control"})
            HUMSolver(prob, weights, game)

    def test_refinement_residuals(self, coarse):
        prob, hum = coarse[0], coarse[3]
        info = hum.solve(sine_data(prob, 0.1)).cg_info
        trace = info["refinement_residuals"]
        assert _one_correction(info)
        # the correction gains; measured 3.0x
        assert trace[1] < 0.5 * trace[0]
        zero = hum.solve(np.zeros(prob.grid.N + 1)).cg_info
        assert zero["refinement_residuals"] == []


class TestAccuracyRange:
    """The reconstruction residual over carleman.cap_ratio at (32,64), and
    at the default ratio and at 1e4 one grid finer."""

    @pytest.mark.parametrize("cap_ratio, limit",
                             [(1e3, 1e-9), (1e4, 1e-8), (1e5, 1e-7)])
    def test_reconstruction_within_range(self, tmp_path, refinements,
                                         cap_ratio, limit):
        # measured 1.03e-11 at 1e3, 9.15e-10 at 1e4 and 2.97e-8 at 1e5
        record = harness.run_scenario(
            {"grid": {"N": 32, "M": 64},
             "carleman": {"cap_ratio": cap_ratio},
             "experiment": {"kind": "linear-control"}}, tmp_path, seed=0)
        assert max(record.report["reconstruction"].values()) <= limit
        assert _corrections_gain(refinements)

    def test_reconstruction_at_64x128(self, tmp_path, refinements):
        # measured 1.62e-10 at the default cap ratio, 1e3
        record = harness.run_scenario(
            {"grid": {"N": 64, "M": 128},
             "experiment": {"kind": "linear-control"}}, tmp_path, seed=0)
        assert max(record.report["reconstruction"].values()) <= 1e-9
        assert _corrections_gain(refinements)

    def test_reconstruction_at_64x128_cap_1e4(self, tmp_path, refinements):
        # the passing edge of the accuracy map (README) one grid finer:
        # measured 1.40e-8, below RECONSTRUCTION_LIMIT (1e-6)
        record = harness.run_scenario(
            {"grid": {"N": 64, "M": 128}, "carleman": {"cap_ratio": 1e4},
             "experiment": {"kind": "linear-control"}}, tmp_path, seed=0)
        assert max(record.report["reconstruction"].values()) <= 1e-7
        assert _corrections_gain(refinements)

    def test_reconstruction_beyond_limit_is_solver_error(self, tmp_path,
                                                         capsys):
        # cap_ratio 1e7 reconstructs to 5.7e-5, above RECONSTRUCTION_LIMIT
        # (1e6 to 3.2e-6, which also exits 3)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            {"grid": {"N": 32, "M": 64}, "carleman": {"cap_ratio": 1e7},
             "experiment": {"kind": "linear-control"}}))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_SOLVER
        assert "HUM reconstruction residual" in capsys.readouterr().err

    def test_load_that_does_not_decay_is_refused(self):
        # the solve is accurate for loads that decay toward T, as the
        # targets' 1/rho0 profile does; white noise in H stalls the
        # refinement far above the limit (measured 2.0e-2 relative)
        prob, weights, game = build(16, 16, **LINEAR, game=NO_TARGETS)
        hum = HUMSolver(prob, weights, game)
        load = np.zeros((3, prob.mesh.M + 1, prob.grid.N + 1))
        load[0, :, 1:-1] = np.random.default_rng(0).standard_normal(
            (prob.mesh.M + 1, prob.grid.N - 1))
        with pytest.raises(nullcontrol.RefinementError) as err:
            hum.solve(np.zeros(prob.grid.N + 1), load)
        assert err.value.rel_residual > nullcontrol.RESIDUAL_LIMIT
