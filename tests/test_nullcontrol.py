"""HUM solves, superposition, residuals and the Newton loop."""

import copy
import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from degcontrol import cli, harness, nullcontrol
from degcontrol.carleman import CarlemanParams, CarlemanWeights
from degcontrol.geometry import DegeneracySpec
from degcontrol.grids import SpatialGrid, TrajectoryField
from degcontrol.nash import GameSpec, make_default_targets
from degcontrol.nullcontrol import (
    HUMSolver,
    LinearControlProblem,
    NewtonFailureError,
    h1a_norm,
    solve_linear_null_control,
    solve_nonlinear_null_control,
    verify_additional_estimates,
)
from degcontrol.semilinear import SemilinearF
from degcontrol.solvers import CylinderProblem

from conftest import sine_data


@pytest.fixture(scope="module")
def hum(prob_linear, weights):
    game = GameSpec(mu1=5.0, mu2=5.0)
    game.target1, game.target2 = make_default_targets(prob_linear,
                                                      weights=weights)
    return game, HUMSolver(prob_linear, weights, game)


def _coarse_parts():
    prob = CylinderProblem.default(N=32, M=64, F=SemilinearF.zero())
    weights = CarlemanWeights(CarlemanParams(), prob.deg, prob.grid,
                              prob.mesh)
    game = GameSpec(mu1=5.0, mu2=5.0)
    game.target1, game.target2 = make_default_targets(prob, weights=weights)
    return prob, weights, game


@pytest.fixture(scope="module")
def coarse():
    """(32,64) linear problem, its parts and one HUM solver."""
    prob, weights, game = _coarse_parts()
    return prob, weights, game, HUMSolver(prob, weights, game)


class TestCouplings:
    def test_hum_blocks_are_the_game_couplings(self):
        # wt = l(t) makes both couplings vary in time
        prob = CylinderProblem.default(N=16, M=16, F=SemilinearF.zero())
        weights = CarlemanWeights(CarlemanParams(), prob.deg, prob.grid,
                                  prob.mesh)
        game = GameSpec(alpha1=2.0, alpha2=3.0, mu1=5.0, mu2=7.0,
                        jacobian_weighting=False)
        hum = HUMSolver(prob, weights, game)
        control, tracking = game.couplings(prob)
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
        assert history[0]["contraction"] is None
        for prev, step in zip(history, history[1:]):
            assert step["contraction"] == pytest.approx(
                step["remainder_delta"] / prev["remainder_delta"])

    @pytest.mark.parametrize("scale, reason, steps", [(300.0, "budget", 10),
                                                      (600.0, "diverged", 4)])
    def test_failure_reasons(self, scale, reason, steps):
        # F = u^3 + 2 sin(w) grows, so large data leaves the local radius:
        # at (32,64) 300x data still contracts (about 0.4 per step) when
        # the ten steps run out, while 600x data stalls, and its fourth
        # delta is above its first
        zero = SemilinearF.zero().D12
        cubic = SemilinearF(
            F=lambda u, w: u**3 + 2.0 * np.sin(w),
            D1=lambda u, w: 3.0 * u**2 + 0.0 * w,
            D2=lambda u, w: 2.0 * np.cos(w) + 0.0 * u,
            D11=lambda u, w: 6.0 * u + 0.0 * w, D12=zero, D21=zero,
            D22=lambda u, w: -2.0 * np.sin(w) + 0.0 * u, label="cubic")
        prob = CylinderProblem.default(N=32, M=64, F=cubic)
        weights = CarlemanWeights(CarlemanParams(), prob.deg, prob.grid,
                                  prob.mesh)
        game = GameSpec(mu1=5.0, mu2=5.0)
        game.target1, game.target2 = make_default_targets(prob,
                                                          weights=weights)
        with pytest.raises(NewtonFailureError) as err:
            solve_nonlinear_null_control(prob, weights, game,
                                         sine_data(prob, 0.01 * scale))
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


def _stops_at_floor(trace: list) -> bool:
    """The refinement trace ends at its first step that fails to halve the
    residual, or after REFINEMENT_STEPS steps."""
    halved = [b < 0.5 * a for a, b in zip(trace, trace[1:])]
    return (len(trace) <= nullcontrol.REFINEMENT_STEPS + 1
            and all(halved[:-1])
            and (not halved[-1]
                 or len(trace) == nullcontrol.REFINEMENT_STEPS + 1))


def _splu_reference(hum: HUMSolver) -> HUMSolver:
    """A copy of `hum` that solves with SuperLU's factor of the same
    shifted operator."""
    ref = copy.copy(hum)
    ref.lu = spla.splu(
        (hum.Bs + hum.shift * sp.identity(hum.Bs.shape[0])).tocsc())
    return ref


class TestFactorization:
    """The banded Cholesky factorization and the refinement it feeds."""

    def test_csr_product_equals_csc(self, coarse):
        hum = coarse[3]
        assert hum._Bld.format == "csr"
        v = np.random.default_rng(0).standard_normal(
            hum.Bs.shape[0]).astype(np.longdouble)
        assert np.array_equal(hum._Bld @ v,
                              hum.Bs.astype(np.longdouble) @ v)

    def test_one_product_per_refinement_step(self, coarse, monkeypatch):
        prob, hum = coarse[0], coarse[3]
        counter = _CountingMatrix(hum._Bld)
        monkeypatch.setattr(hum, "_Bld", counter)
        info = hum.solve(sine_data(prob, 0.1)).cg_info
        # the unrefined iterate plus one product per refinement step, up to
        # the first step that fails to halve the residual; measured 3
        assert _stops_at_floor(info["refinement_residuals"])
        assert counter.products == len(info["refinement_residuals"])

    @pytest.mark.parametrize("N, M", [(16, 16), (32, 64)])
    def test_level_order_gives_band(self, N, M):
        prob = CylinderProblem.default(N=N, M=M, F=SemilinearF.zero())
        weights = CarlemanWeights(CarlemanParams(), prob.deg, prob.grid,
                                  prob.mesh)
        hum = HUMSolver(prob, weights, GameSpec(mu1=5.0, mu2=5.0))
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
        A = hum.Bs + hum.shift * sp.identity(hum.Bs.shape[0])
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
        # the near-null part of the minimizer: at the 1e-12 rung.  At the
        # default shift y and h differ by 2e-6 and 7e-5 (ROADMAP defect 1)
        prob, weights, game = coarse[:3]
        monkeypatch.setattr(nullcontrol, "SHIFT", 1e-12)
        hum = HUMSolver(prob, weights, game)
        assert hum.shift == 1e-12
        y0 = sine_data(prob, 0.1)
        a, b = hum.solve(y0), _splu_reference(hum).solve(y0)

        def rel(u, v):
            return np.linalg.norm(u - v) / np.linalg.norm(v)

        # measured 1.6e-9 (y) and 5.2e-8 (h); h is the least determined part
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
            # measured 3.0e-13 and 3.3e-13
            assert t.terminal_norm <= 1e-12
            # measured at most 9.6e-11
            assert max(t.residuals.values()) <= 5e-10
        # measured 1.0e-9
        assert b.budget_constant == pytest.approx(a.budget_constant,
                                                  rel=1e-8)

    def test_shift_ladder(self, coarse, monkeypatch):
        prob, weights, game, hum = coarse
        assert (hum.shift, hum.rung) == (nullcontrol.SHIFT, 0)
        # 1e-17 and 1e-16 leave the (32,64) copy indefinite in double
        # precision; the ladder lands on the third rung
        monkeypatch.setattr(nullcontrol, "SHIFT", 1e-17)
        laddered = HUMSolver(prob, weights, game)
        assert laddered.rung == 2
        assert laddered.shift == pytest.approx(1e-15)
        info = laddered.solve(sine_data(prob, 0.1)).cg_info
        assert (info["shift"], info["rung"]) == (laddered.shift, 2)

    def test_refinement_residuals(self, coarse):
        prob, hum = coarse[0], coarse[3]
        info = hum.solve(sine_data(prob, 0.1)).cg_info
        trace = info["refinement_residuals"]
        assert _stops_at_floor(trace)
        assert info["refinement_steps"] == len(trace) - 1
        assert min(trace) == info["relative_residual"]
        # the first correction gains most
        assert trace[1] < 0.5 * trace[0]
        zero = hum.solve(np.zeros(prob.grid.N + 1)).cg_info
        assert zero["refinement_residuals"] == []
        assert zero["refinement_steps"] == 0


class TestAccuracyRange:
    """The reconstruction residual over carleman.cap_ratio at (32,64)."""

    @pytest.mark.parametrize("cap_ratio, limit",
                             [(1e3, 1e-9), (1e4, 1e-8), (1e5, 1e-7)])
    def test_reconstruction_within_range(self, tmp_path, cap_ratio, limit):
        # measured 9.4e-12 at 1e3, 9.5e-10 at 1e4 and 2.5e-8 at 1e5
        record = harness.run_scenario(
            {"grid": {"N": 32, "M": 64},
             "carleman": {"cap_ratio": cap_ratio},
             "experiment": {"kind": "linear-control"}}, tmp_path, seed=0)
        assert max(record.report["reconstruction"].values()) <= limit

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
