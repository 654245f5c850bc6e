"""Carleman weight construction, identities and empirical inequalities."""

import json

import numpy as np
import pytest

from degcontrol import carleman, cli, solvers
from degcontrol.carleman import (
    CarlemanParams,
    CarlemanWeights,
    PsiFunction,
    adjoint_basis,
    build_psi,
    empirical_carleman,
    empirical_observability,
    eval_time_weights,
)
from degcontrol.geometry import DegeneracySpec
from degcontrol.grids import SpatialGrid, TimeMesh
from degcontrol.solvers import CylinderProblem, solve_adjoint_coupled

from conftest import rel_gap


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


def _nodal(interior):
    """Nodal values (M+1, N+1) of interior rows, zero on the boundary."""
    return np.pad(interior, ((0, 0), (1, 1)))


def _reference_observability(prob, w, samples, rng):
    """One solo solve per sample; the weight exponentiated per integral.

    Returns the ratios and the number of skipped samples."""
    grid, mesh = prob.grid, prob.mesh
    logw = w.log_observation_weight()
    ind_o = prob.indicator("O")
    wmass = _q_integral(logw, np.ones((mesh.M + 1, grid.N + 1)), grid, mesh,
                        ind_o)
    ratios, skipped = [], 0
    for _ in range(samples):
        sol = solve_adjoint_coupled(
            prob, carleman._random_smooth_row(grid, rng)[None], reduced=True)
        phi, rho = _nodal(sol.phi[:, 0]), _nodal(sol.psi[:, 0, 0])
        lhs = grid.norm(phi[0]) ** 2 + grid.norm(rho[-1]) ** 2
        rhs = _q_integral(logw, phi**2, grid, mesh, ind_o) / wmass
        if rhs <= 1e-300:
            skipped += 1
            continue
        ratios.append(lhs / rhs)
    return ratios, skipped


def _reference_forms(prob, w):
    """The Carleman integrals on nodal fields (M+1, N+1), every weight
    exponentiated per integral: gamma(u), the source term of a sum of
    squares, and the observation term of phi."""
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

    def source(src_sq):
        return _q_integral(log_src, src_sq, grid, mesh)

    def observation(phi):
        return _q_integral(log_obs, phi**2, grid, mesh, prob.indicator("O"))

    return gamma, source, observation


def _reference_carleman(prob, w, samples, rng):
    """One solo solve per sample; every weight exponentiated per integral.

    Returns the ratios and the number of skipped samples."""
    grid, mesh = prob.grid, prob.mesh
    gamma, source, observation = _reference_forms(prob, w)
    x, t = grid.nodes[None, :], mesh.times[:, None]
    ratios, skipped = [], 0
    for _ in range(samples):
        phiT = carleman._random_smooth_row(grid, rng)
        srcs = []
        for _ in range(3):
            c = rng.standard_normal(3)
            srcs.append(c[0] * np.sin(np.pi * x)
                        + c[1] * np.sin(2 * np.pi * x) * t
                        + c[2] * x * (1 - x) * np.cos(t))
        sol = solve_adjoint_coupled(prob, phiT[None], Fsrc=srcs[0][None],
                                    F1=srcs[1][None], F2=srcs[2][None])
        phi = _nodal(sol.phi[:, 0])
        lhs = (gamma(phi) + gamma(_nodal(sol.psi[:, 0, 0]))
               + gamma(_nodal(sol.psi[:, 0, 1])))
        rhs = source(sum(f**2 for f in srcs)) + observation(phi)
        if rhs <= 1e-300:
            skipped += 1
            continue
        ratios.append(lhs / rhs)
    return ratios, skipped


@pytest.fixture(scope="module")
def w32():
    prob = CylinderProblem.default(N=32, M=64)
    return prob, CarlemanWeights(CarlemanParams(), prob.deg, prob.grid,
                                 prob.mesh)


class TestGramForms:
    """The Gram forms equal the integral formulas on random fields."""

    def test_gamma_and_observation_forms(self, w32):
        prob, w = w32
        grid, mesh = prob.grid, prob.mesh
        gamma, _, observation = _reference_forms(prob, w)
        w0, wf, _, w_obs = carleman._carleman_weights(prob, w)
        rng = np.random.default_rng(4)
        cols = rng.standard_normal((mesh.M + 1, 5, grid.N - 1))
        g_gamma = carleman._gram(cols, carleman._gamma_bands(prob, w0, wf))
        g_obs = carleman._gram(
            cols, mesh.dt * grid.interior_volumes * w_obs[1:, 1:-1])
        for c in np.vstack([np.eye(5), rng.standard_normal((3, 5))]):
            u = np.zeros((mesh.M + 1, grid.N + 1))
            u[:, 1:-1] = np.einsum("mkn,k->mn", cols, c)
            assert c @ g_gamma @ c == pytest.approx(gamma(u), rel=1e-12)
            assert c @ g_obs @ c == pytest.approx(observation(u), rel=1e-12)


class TestGramSampling:
    """Gram-form sampling gives the per-sample ratios and rng stream."""

    def test_ratios_match_per_sample_reference(self, w32):
        prob, w = w32
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        obs = empirical_observability(prob, w, samples=7, rng=rng)
        car = empirical_carleman(prob, w, samples=3, rng=rng)
        ref_obs, obs_skipped = _reference_observability(prob, w, 7, ref_rng)
        ref_car, car_skipped = _reference_carleman(prob, w, 3, ref_rng)
        # the basis solutions meet the sweep tolerance, not the samples'
        # own solutions, so the ratios agree to about 1e-9, not bit for bit
        np.testing.assert_allclose(obs["ratios"], ref_obs, rtol=1e-8)
        np.testing.assert_allclose(car["ratios"], ref_car, rtol=1e-8)
        assert (obs["skipped"], car["skipped"]) == (obs_skipped, car_skipped)
        assert rng.standard_normal() == ref_rng.standard_normal()

    def test_source_term_without_observation(self, w32, monkeypatch):
        # the observation term swamps the source term by about 1e11; with
        # the window O emptied only the source term is left
        _, w = w32
        prob = CylinderProblem.default(N=32, M=64)
        indicator = prob.indicator
        monkeypatch.setattr(prob, "indicator", lambda name: (
            0.0 * indicator(name) if name == "O" else indicator(name)))
        car = empirical_carleman(prob, w, samples=3,
                                 rng=np.random.default_rng(12))
        ref_car, _ = _reference_carleman(prob, w, 3,
                                         np.random.default_rng(12))
        np.testing.assert_allclose(car["ratios"], ref_car, rtol=1e-8)
        assert car["source_share"] == pytest.approx(1.0, rel=1e-12)

    def test_source_share_on_default_problem(self, prob, weights):
        # with O in place the observation term dominates the right-hand
        # side, but the source term still shows in the report
        car = empirical_carleman(prob, weights, samples=50,
                                 rng=np.random.default_rng(0))
        assert 0.0 < car["source_share"] < 1e-4


class TestSharedBasis:
    """Both samplers read one full-form block solve, `adjoint_basis`."""

    MUS, ALPHAS = (2.0, 3.0), (0.7, 1.3)

    def test_given_basis_equals_own_solve(self, w32):
        prob, w = w32
        basis = adjoint_basis(prob, self.MUS, self.ALPHAS)
        for sampler in (empirical_observability, empirical_carleman):
            reports = [sampler(prob, w, samples=6,
                               rng=np.random.default_rng(5), mus=self.MUS,
                               alphas=self.ALPHAS, basis=given)
                       for given in (basis, None)]
            assert reports[0].keys() == reports[1].keys()
            for key in reports[0]:
                assert np.array_equal(reports[0][key], reports[1][key])

    @pytest.mark.parametrize("mus, alphas", [((1.0, 1.0), (1.0, 1.0)),
                                             (MUS, ALPHAS)])
    def test_observability_forms_match_reduced_solve(self, w32, mus, alphas):
        # rho = alpha1 psi1 + alpha2 psi2 of the full form is the follower
        # of the reduced form, solved here on its own as the reference
        prob, w = w32
        basis = adjoint_basis(prob, mus, alphas)
        psi = basis.psi[:, :carleman.SINE_MODES]
        forms = carleman._observability_forms(
            prob, w, basis.phi[:, :carleman.SINE_MODES],
            alphas[0] * psi[:, :, 0] + alphas[1] * psi[:, :, 1])
        red = solve_adjoint_coupled(prob, carleman._sine_modes(prob.grid),
                                    mus=mus, alphas=alphas, reduced=True)
        ref = carleman._observability_forms(prob, w, red.phi,
                                            red.psi[:, :, 0])
        for form, ref_form in zip(forms, ref):
            assert rel_gap(form, ref_form) <= 1e-9

    def test_carleman_forms_match_per_slot_solves(self, w32):
        # the reference solves the sine modes and each slot's source modes
        # in four calls, and stacks their columns in the basis order
        prob, w = w32
        grid = prob.grid
        modes = carleman._source_modes(grid, prob.mesh)
        blocks = [solve_adjoint_coupled(prob, carleman._sine_modes(grid))]
        for slot in carleman.SOURCE_SLOTS:
            blocks.append(solve_adjoint_coupled(
                prob, np.zeros((len(modes), grid.N + 1)), **{slot: modes}))
        ref = carleman._carleman_forms(
            prob, w, np.concatenate([b.phi for b in blocks], axis=1),
            np.concatenate([b.psi for b in blocks], axis=1))
        basis = adjoint_basis(prob)
        forms = carleman._carleman_forms(prob, w, basis.phi, basis.psi)
        for form, ref_form in zip(forms, ref):
            assert rel_gap(form, ref_form) <= 1e-9

    def test_observability_run_solves_once(self, tmp_path, monkeypatch):
        calls = []
        solve = solvers.solve_adjoint_coupled

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(solvers, "solve_adjoint_coupled", counted)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "grid": {"N": 16, "M": 16},
            "experiment": {"kind": "observability", "samples": 4}}))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        assert len(calls) == 1
