"""Carleman weight construction, identities and empirical inequalities."""

import numpy as np
import pytest

from degcontrol import carleman
from degcontrol.carleman import (
    BLOCK_BYTES,
    CarlemanParams,
    CarlemanWeights,
    PsiFunction,
    block_size,
    build_psi,
    empirical_carleman,
    empirical_observability,
    eval_time_weights,
)
from degcontrol.geometry import DegeneracySpec
from degcontrol.grids import SpatialGrid, TimeMesh
from degcontrol.grids import TrajectoryField
from degcontrol.solvers import CylinderProblem, solve_adjoint_coupled


class TestPsi:
    def test_left_branch_closed_form(self):
        # for x < alpha_p: Psi(x) = x^{2-alpha}/(2-alpha)
        psi = build_psi(CarlemanParams(), DegeneracySpec(alpha=0.5))
        assert psi(0.04) == pytest.approx(0.04**1.5 / 1.5, rel=1e-12)

    def test_right_branch_closed_form(self):
        # for x > beta_p: Psi decreases like the mirrored primitive,
        # anchored so Psi(beta_p) matches the bridge
        params = CarlemanParams()
        psi = build_psi(params, DegeneracySpec(alpha=0.5))
        x = np.array([0.5, 0.7, 0.9])
        vals = psi(x)
        assert np.all(np.diff(vals) < 0)

    def test_shape(self):
        # increasing up to the bridge, decreasing past it
        params = CarlemanParams()
        psi = build_psi(params, DegeneracySpec(alpha=0.5))
        left = psi(np.linspace(1e-6, params.alpha_p, 101))
        right = psi(np.linspace(params.beta_p, 1.0, 101))
        assert np.all(np.diff(left) > 0)
        assert np.all(np.diff(right) < 0)
        assert np.all(left > 0)

    def test_c2_at_bridge_joints(self):
        # first and second derivatives of the quintic bridge match the
        # analytic branch derivatives at both joints
        params = CarlemanParams()
        deg = DegeneracySpec(alpha=0.5)
        psi = build_psi(params, deg)
        al, be = params.alpha_p, params.beta_p
        d1, d2 = psi.bridge_derivatives(np.array([al, be]))
        # left branch: Psi' = x^{1-alpha}, Psi'' = (1-alpha)x^{-alpha}
        assert d1[0] == pytest.approx(al**0.5, rel=1e-10)
        assert d2[0] == pytest.approx(0.5 * al**-0.5, rel=1e-10)
        # right branch: Psi' = -x^{1-alpha}, Psi'' = -(1-alpha)x^{-alpha}
        assert d1[1] == pytest.approx(-be**0.5, rel=1e-10)
        assert d2[1] == pytest.approx(-0.5 * be**-0.5, rel=1e-10)

    def test_bridge_window_validated(self):
        with pytest.raises(ValueError):
            CarlemanParams(alpha_p=0.6, beta_p=0.4)


class TestTimeWeights:
    def test_theta_midpoint(self):
        theta, m, tau = eval_time_weights(CarlemanParams(), 1.0,
                                          np.array([0.5]))
        # theta = 1/(t(T-t))^4 = 256 at t = T/2
        assert theta[0] == pytest.approx(256.0, rel=1e-12)

    def test_m_branches(self):
        params = CarlemanParams()
        theta, m, tau = eval_time_weights(params, 1.0,
                                          np.array([0.0, 0.75]))
        # floor value (T/2)^8 on the early branch
        assert m[0] == pytest.approx(0.5**8, rel=1e-12)
        # plain t^4 (T-t)^4 on the late branch
        assert m[1] == pytest.approx((0.75 * 0.25) ** 4, rel=1e-12)

    def test_m_c1_at_junction(self):
        params = CarlemanParams()
        eps = 1e-7
        t = np.array([0.5 - eps, 0.5 + eps])
        _, m, _ = eval_time_weights(params, 1.0, t)
        assert abs(m[1] - m[0]) / eps <= 1e-4

    def test_outside_horizon_rejected(self):
        with pytest.raises(ValueError):
            eval_time_weights(CarlemanParams(), 1.0, np.array([1.5]))


@pytest.fixture(scope="module")
def w64():
    prob = CylinderProblem.default(N=64, M=128)
    return prob, CarlemanWeights(CarlemanParams(), prob.deg, prob.grid,
                                 prob.mesh)


class TestWeights:
    def test_negativity_of_A(self, w64):
        _, w = w64
        fin = np.isfinite(w.A)
        assert np.all(w.A[fin] < 0)

    def test_identity_rho_hat(self, w64):
        # rho_hat^2 = rho1 rho0 exactly in log space
        _, w = w64
        rep = w.identity_report()
        assert rep["identity_log_rel"] <= 1e-12

    def test_ordering_constants_finite(self, w64):
        _, w = w64
        rep = w.identity_report()
        for key in ("C_rho1_le_rho_hat", "C_rho_hat_le_rho0",
                    "C_rho0_le_rho2", "C_rho2_le_rho1_sq"):
            assert np.isfinite(rep[key]) and rep[key] > 0

    def test_comp_pesos_at_auto_lambda(self, w64):
        _, w = w64
        rep = w.identity_report()
        assert rep["comp_pesos_ok"]
        assert rep["lambda"] > rep["lambda_min"]

    def test_manual_lambda_below_min_rejected(self, w64):
        prob, w = w64
        with pytest.raises(ValueError):
            CarlemanWeights(CarlemanParams(lam=0.5 * w.lambda_min),
                            prob.deg, prob.grid, prob.mesh)

    def test_tables_normalized_and_capped(self, w64):
        _, w = w64
        for table in (w.rho0_n, w.rho1_n, w.rho2_n, w.rho_hat_n):
            assert np.min(table) == pytest.approx(1.0)
            assert np.max(table) <= w.params.cap_ratio * (1 + 1e-12)

    def test_blowup_toward_T(self, w64):
        # uncapped log weights diverge at t = T
        _, w = w64
        assert np.isinf(w.log_rho0[-1])
        assert np.all(np.isfinite(w.log_rho0[:-1]))


class TestEmpiricalInequalities:
    def test_observability_finite(self, w64):
        prob, w = w64
        rep = empirical_observability(prob, w, samples=8,
                                      rng=np.random.default_rng(3))
        assert rep["skipped"] == 0
        assert np.isfinite(rep["max_ratio"])
        assert all(r >= 0 for r in rep["ratios"])

    def test_carleman_finite(self, w64):
        prob, w = w64
        rep = empirical_carleman(prob, w, samples=4,
                                 rng=np.random.default_rng(3))
        assert rep["skipped"] == 0
        assert np.isfinite(rep["max_ratio"])


def _q_integral(logw, fields_sq, grid, mesh, mask_x=None):
    vals = np.exp(np.minimum(logw, 700.0)) * fields_sq
    vals = np.where(np.isfinite(logw), vals, 0.0)
    if mask_x is not None:
        vals = vals * mask_x[None, :]
    return float(mesh.dt * np.einsum("j,nj->", grid.cell_volumes, vals[1:]))


def _reference_observability(prob, w, samples, rng):
    """One solo solve per sample; the weight exponentiated per integral."""
    grid, mesh = prob.grid, prob.mesh
    logw = w.log_observation_weight()
    ind_o = prob.indicator("O")
    wmass = _q_integral(logw, np.ones((mesh.M + 1, grid.N + 1)), grid, mesh,
                        ind_o)
    ratios = []
    for _ in range(samples):
        sol = solve_adjoint_coupled(prob, carleman._random_smooth_row(grid, rng),
                                    reduced=True)
        lhs = grid.norm(sol.phi.values[0]) ** 2 + grid.norm(sol.rho.values[-1]) ** 2
        ratios.append(lhs / (_q_integral(logw, sol.phi.values**2, grid, mesh,
                                         ind_o) / wmass))
    return ratios


def _reference_carleman(prob, w, samples, rng):
    """One solo solve per sample; every weight exponentiated per integral."""
    grid, mesh = prob.grid, prob.mesh
    z = w.zeta()
    fin = np.isfinite(w.A)
    with np.errstate(divide="ignore", invalid="ignore"):
        logz = np.where(np.isfinite(z), np.log(np.where(z > 0, z, 1.0)), np.inf)
        log2sA = np.where(fin, 2 * w.s * (w.A - w.A_reference()), -np.inf)
        lsl = np.log(w.s * w.lam)
        log_src = np.where(fin, log2sA + 4 * (lsl + logz), -np.inf)
        log_obs = np.where(fin, log2sA + 8 * (lsl + logz), -np.inf)
        lw0 = np.where(fin, log2sA + 2 * (lsl + logz), -np.inf)
        lwf = np.where(fin[:, :-1] & fin[:, 1:],
                       0.5 * (lw0[:, :-1] + lw0[:, 1:])
                       - (lsl + 0.5 * (logz[:, :-1] + logz[:, 1:])), -np.inf)
    b_sq = prob.b_t**2
    a_face = prob.deg.a(grid.faces)
    h = grid.spacings

    def gamma(u):
        g0 = _q_integral(lw0, b_sq[:, None] * u**2, grid, mesh)
        ux = np.diff(u, axis=1) / h[None, :]
        with np.errstate(invalid="ignore"):
            vals = (np.exp(np.minimum(lwf, 700.0)) * b_sq[:, None]
                    * a_face[None, :] * ux**2)
            vals = np.where(np.isfinite(lwf), vals, 0.0)
        return g0 + float(mesh.dt * np.einsum("f,nf->", h, vals[1:]))

    x, t = grid.nodes[None, :], mesh.times[:, None]
    ratios = []
    for _ in range(samples):
        phiT = carleman._random_smooth_row(grid, rng)
        srcs = []
        for _ in range(3):
            c = rng.standard_normal(3)
            srcs.append(TrajectoryField(grid, mesh, (
                c[0] * np.sin(np.pi * x) + c[1] * np.sin(2 * np.pi * x) * t
                + c[2] * x * (1 - x) * np.cos(t))))
        sol = solve_adjoint_coupled(prob, phiT, Fsrc=srcs[0], F1=srcs[1],
                                    F2=srcs[2])
        lhs = (gamma(sol.phi.values) + gamma(sol.psi1.values)
               + gamma(sol.psi2.values))
        src_sq = sum(f.values**2 for f in srcs)
        rhs = (_q_integral(log_src, src_sq, grid, mesh)
               + _q_integral(log_obs, sol.phi.values**2, grid, mesh,
                             prob.indicator("O")))
        ratios.append(lhs / rhs)
    return ratios


class TestBlockedSampling:
    """Blocked sampling gives the per-sample ratios and rng stream."""

    def test_ratios_equal_per_sample_reference(self):
        prob = CylinderProblem.default(N=32, M=64)
        w = CarlemanWeights(CarlemanParams(), prob.deg, prob.grid, prob.mesh)
        # sample counts that the block sizes do not divide
        n_obs, n_car = 3 * block_size(prob, 3) // 2, 3 * block_size(prob, 8) // 2
        assert block_size(prob, 8) > 1 and n_car % block_size(prob, 8)
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        obs = empirical_observability(prob, w, samples=n_obs, rng=rng)
        car = empirical_carleman(prob, w, samples=n_car, rng=rng)
        assert obs["ratios"] == _reference_observability(prob, w, n_obs, ref_rng)
        assert car["ratios"] == _reference_carleman(prob, w, n_car, ref_rng)
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("grid", [(64, 128), (128, 256)])
    @pytest.mark.parametrize("trajectories", [3, 8])
    def test_block_within_budget(self, grid, trajectories):
        prob = CylinderProblem.default(N=grid[0], M=grid[1])
        sample = trajectories * (prob.mesh.M + 1) * (prob.grid.N + 1) * 8
        k = block_size(prob, trajectories)
        # the largest block within the budget; a larger sample runs alone
        assert k >= 1
        assert k * sample <= BLOCK_BYTES or k == 1
        assert (k + 1) * sample > BLOCK_BYTES
        if grid == (64, 128):
            assert k >= 2
