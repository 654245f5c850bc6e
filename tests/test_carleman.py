"""Carleman weight construction, identities and empirical inequalities."""

import json
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from degcontrol import carleman, cli, solvers
from degcontrol.carleman import (
    CarlemanParams,
    CarlemanWeights,
    PsiFunction,
    adjoint_basis,
    empirical_carleman,
    empirical_observability,
    eval_time_weights,
)
from degcontrol.geometry import DegeneracySpec
from degcontrol.harness import default_config
from degcontrol.nash import GameSpec
from degcontrol.solvers import solve_adjoint_coupled

from adjoint_reference import two_follower_sweep
from conftest import UNIT_GAME, build, rel_gap, sampler_inputs

# the default config's weight parameters
PARAMS = CarlemanParams(**default_config()["carleman"])


class TestPsi:
    def test_left_branch_closed_form(self):
        # for x < alpha_p: Psi(x) = x^{2-alpha}/(2-alpha)
        psi = PsiFunction(PARAMS, DegeneracySpec(alpha=0.5))
        assert psi(0.04) == pytest.approx(0.04**1.5 / 1.5, rel=1e-12)

    def test_right_branch_closed_form(self):
        # for x > beta_p: Psi decreases like the mirrored primitive,
        # anchored so Psi(beta_p) matches the bridge
        params = PARAMS
        psi = PsiFunction(params, DegeneracySpec(alpha=0.5))
        x = np.array([0.5, 0.7, 0.9])
        vals = psi(x)
        assert np.all(np.diff(vals) < 0)

    def test_shape(self):
        # increasing up to the bridge, decreasing past it
        params = PARAMS
        psi = PsiFunction(params, DegeneracySpec(alpha=0.5))
        left = psi(np.linspace(1e-6, params.alpha_p, 101))
        right = psi(np.linspace(params.beta_p, 1.0, 101))
        assert np.all(np.diff(left) > 0)
        assert np.all(np.diff(right) < 0)
        assert np.all(left > 0)

    def test_c2_at_bridge_joints(self):
        # first and second derivatives of the quintic bridge match the
        # analytic branch derivatives at both joints
        params = PARAMS
        deg = DegeneracySpec(alpha=0.5)
        psi = PsiFunction(params, deg)
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
            replace(PARAMS, alpha_p=0.6, beta_p=0.4)


class TestTimeWeights:
    def test_theta_midpoint(self):
        theta, m, tau = eval_time_weights(PARAMS, 1.0,
                                          np.array([0.5]))
        # theta = 1/(t(T-t))^4 = 256 at t = T/2
        assert theta[0] == pytest.approx(256.0, rel=1e-12)

    def test_m_branches(self):
        params = PARAMS
        theta, m, tau = eval_time_weights(params, 1.0,
                                          np.array([0.0, 0.75]))
        # floor value (T/2)^8 on the early branch
        assert m[0] == pytest.approx(0.5**8, rel=1e-12)
        # plain t^4 (T-t)^4 on the late branch
        assert m[1] == pytest.approx((0.75 * 0.25) ** 4, rel=1e-12)

    def test_m_c1_at_junction(self):
        params = PARAMS
        eps = 1e-7
        t = np.array([0.5 - eps, 0.5 + eps])
        _, m, _ = eval_time_weights(params, 1.0, t)
        assert abs(m[1] - m[0]) / eps <= 1e-4

    def test_outside_horizon_rejected(self):
        with pytest.raises(ValueError):
            eval_time_weights(PARAMS, 1.0, np.array([1.5]))


@pytest.fixture(scope="module")
def w64(desk):
    return desk[:2]


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
            CarlemanWeights(replace(PARAMS, lam=0.5 * w.lambda_min),
                            prob.deg, prob.grid, prob.mesh)

    def test_overflowing_lambda_rejected(self, w64):
        # e^{3 lambda |Psi|_inf} overflows, so every rho would be infinite
        prob, _ = w64
        with pytest.raises(ValueError, match=r"lambda=1000000.0 is too "
                           r"large: .* is not finite"):
            CarlemanWeights(replace(PARAMS, lam=1e6), prob.deg, prob.grid,
                            prob.mesh)

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
        c = UNIT_GAME.couplings(prob)
        rep = empirical_observability(prob, w, c,
                                      *sampler_inputs(prob, w, c), samples=8,
                                      rng=np.random.default_rng(3))
        assert rep["skipped"] == 0
        assert np.isfinite(rep["max_ratio"])
        assert all(r >= 0 for r in rep["ratios"])

    def test_carleman_finite(self, w64):
        prob, w = w64
        c = UNIT_GAME.couplings(prob)
        rep = empirical_carleman(prob, w, *sampler_inputs(prob, w, c),
                                 samples=4, rng=np.random.default_rng(3))
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


def _reference_observability(prob, w, couplings, samples, rng):
    """One two-follower reference sweep per sample, with
    rho = alpha1 psi1 + alpha2 psi2; the weight exponentiated per integral.

    Returns the ratios, NaN for a skipped sample, and the number of
    skipped samples."""
    grid, mesh = prob.grid, prob.mesh
    _, _, observation = _reference_forms(prob, w)
    wmass = observation(np.ones((mesh.M + 1, grid.N + 1)))
    ratios, skipped = [], 0
    for _ in range(samples):
        phi, psi, _ = two_follower_sweep(
            prob, carleman._random_smooth_row(grid, rng)[None],
            couplings.control, couplings.tracking)
        a1, a2 = couplings.alphas
        phi, rho = _nodal(phi[:, 0]), _nodal(a1 * psi[:, 0, 0]
                                             + a2 * psi[:, 0, 1])
        lhs = grid.norm(phi[0]) ** 2 + grid.norm(rho[-1]) ** 2
        rhs = observation(phi) / wmass
        if rhs <= 1e-300:
            skipped += 1
            ratios.append(np.nan)
            continue
        ratios.append(lhs / rhs)
    return ratios, skipped


def _reference_logs(prob, w):
    """The log weights (lw0, lwf, log_src, log_obs) of the Carleman
    integrals on all levels: zero order, gradient at the faces (without
    b^2 a), source and observation (without the mask of O)."""
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
    return lw0, lwf, log_src, log_obs


def _reference_forms(prob, w):
    """The Carleman integrals on nodal fields (M+1, N+1), every weight
    exponentiated per integral: gamma(u), the source term of a sum of
    squares, and the observation term of phi."""
    grid, mesh = prob.grid, prob.mesh
    lw0, lwf, log_src, log_obs = _reference_logs(prob, w)
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


def _reference_carleman(prob, w, couplings, samples, rng):
    """One two-follower reference sweep per sample; every weight
    exponentiated per integral.

    Returns the ratios, NaN for a skipped sample, and the number of
    skipped samples."""
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
        phi, psi, _ = two_follower_sweep(
            prob, phiT[None], couplings.control, couplings.tracking,
            Fsrc=srcs[0][None], F1=srcs[1][None], F2=srcs[2][None])
        phi = _nodal(phi[:, 0])
        lhs = (gamma(phi) + gamma(_nodal(psi[:, 0, 0]))
               + gamma(_nodal(psi[:, 0, 1])))
        rhs = source(sum(f**2 for f in srcs)) + observation(phi)
        if rhs <= 1e-300:
            skipped += 1
            ratios.append(np.nan)
            continue
        ratios.append(lhs / rhs)
    return ratios, skipped


@pytest.fixture(scope="module")
def w32():
    return build(32, 64)[:2]


def _exp_table(logw):
    """e^{logw}, capped at e^700, with the non-finite entries 0."""
    return np.where(np.isfinite(logw), np.exp(np.minimum(logw, 700.0)), 0.0)


def _band_reference(prob, w, cols):
    """Gram matrices (gamma, observation) of the columns cols
    (M+1, k, N-1) summed level by level, sum_m u_m^T T_m u_m, with
    tridiagonal T_m = diag(dt w w0 b^2) + D^T diag(dt wf / h) D for the
    Gamma form (D the face differences, boundary values zero) and the
    diagonal T_m = diag(dt w w_obs 1_O) for the observation form."""
    grid, mesh = prob.grid, prob.mesh
    lw0, lwf, _, log_obs = _reference_logs(prob, w)
    b_sq = prob.b_t[1:, None] ** 2
    g = (mesh.dt * _exp_table(lwf[1:]) * b_sq * prob.deg.a(grid.faces)
         / grid.spacings)
    dtw = mesh.dt * grid.interior_volumes
    n = grid.N - 1
    i = np.arange(n)
    bands = np.zeros((mesh.M, n, n))
    bands[:, i, i] = (g[:, :-1] + g[:, 1:]
                      + dtw * _exp_table(lw0[1:, 1:-1]) * b_sq)
    bands[:, i[1:], i[:-1]] = bands[:, i[:-1], i[1:]] = -g[:, 1:-1]
    diag = np.zeros_like(bands)
    diag[:, i, i] = (dtw * _exp_table(log_obs[1:, 1:-1])
                     * prob.indicator_interior("O"))
    u = cols[1:]
    return tuple(np.einsum("mkn,mnp,mlp->kl", u, t, u) for t in (bands, diag))


class TestGramForms:
    """The Gram forms of the weighted columns equal the per-level band
    forms and the integral formulas on random fields."""

    def test_gamma_and_observation_forms(self, w32):
        prob, w = w32
        grid, mesh = prob.grid, prob.mesh
        gamma, _, observation = _reference_forms(prob, w)
        roots = carleman.weight_roots(prob, w)
        rng = np.random.default_rng(4)
        cols = rng.standard_normal((mesh.M + 1, 5, grid.N - 1))
        g_gamma = carleman._gram(carleman._gamma_columns(cols, roots))
        g_obs = carleman._gram(carleman._weighted(cols, roots[3]))
        for g, ref in zip((g_gamma, g_obs), _band_reference(prob, w, cols)):
            assert np.all(np.abs(g - ref) <= 1e-13 * np.abs(ref))
            assert np.array_equal(g, g.T)
            assert np.min(np.linalg.eigvalsh(g)) >= -1e-13 * np.max(np.abs(g))
        # the weights vanish at the boundary faces (below 1e-29 of their
        # peak), so unit roots check that D u takes the boundary values
        # as zero: T = I + D^T D = tridiag(-1, 3, -1)
        n = grid.N - 1
        unit = (np.ones((mesh.M, n)), np.ones((mesh.M, n + 1)))
        t = 3 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        ref = np.einsum("mkn,np,mlp->kl", cols[1:], t, cols[1:])
        g = carleman._gram(carleman._gamma_columns(cols, unit))
        assert np.all(np.abs(g - ref) <= 1e-13 * np.abs(ref))
        for c in np.vstack([np.eye(5), rng.standard_normal((3, 5))]):
            u = np.zeros((mesh.M + 1, grid.N + 1))
            u[:, 1:-1] = np.einsum("mkn,k->mn", cols, c)
            assert c @ g_gamma @ c == pytest.approx(gamma(u), rel=1e-12)
            assert c @ g_obs @ c == pytest.approx(observation(u), rel=1e-12)


class TestGramSampling:
    """Gram-form sampling gives the per-sample ratios and rng stream."""

    def test_skipped_sample_keeps_its_row(self, w32):
        # a sample whose right-hand form is 0 is skipped: its ratio is NaN
        # in its own row, and the maximum is over the samples kept
        w = w32[1]
        coef, lhs = np.eye(3), np.diag([2.0, 3.0, 4.0])
        rep = carleman._ratio_report(coef, lhs, np.diag([1.0, 0.0, 2.0]), w)
        assert len(rep["ratios"]) == 3 and np.isnan(rep["ratios"][1])
        assert (rep["ratios"][0], rep["ratios"][2]) == (2.0, 2.0)
        assert (rep["skipped"], rep["max_ratio"]) == (1, 2.0)
        rep = carleman._ratio_report(coef, lhs, np.zeros((3, 3)), w)
        assert np.all(np.isnan(rep["ratios"])) and len(rep["ratios"]) == 3
        assert rep["skipped"] == 3 and np.isnan(rep["max_ratio"])

    def test_ratios_match_per_sample_reference(self, w32):
        prob, w = w32
        c = UNIT_GAME.couplings(prob)
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        inputs = sampler_inputs(prob, w, c)
        obs = empirical_observability(prob, w, c, *inputs, samples=7, rng=rng)
        car = empirical_carleman(prob, w, *inputs, samples=3, rng=rng)
        ref_obs, obs_skipped = _reference_observability(prob, w, c, 7,
                                                        ref_rng)
        ref_car, car_skipped = _reference_carleman(prob, w, c, 3, ref_rng)
        # the basis solutions meet the sweep tolerance, not the samples'
        # own solutions, so the ratios agree to about 1e-9, not bit for bit
        np.testing.assert_allclose(obs["ratios"], ref_obs, rtol=1e-8)
        np.testing.assert_allclose(car["ratios"], ref_car, rtol=1e-8)
        assert (obs["skipped"], car["skipped"]) == (obs_skipped, car_skipped)
        assert rng.standard_normal() == ref_rng.standard_normal()

    def test_unweighted_ratios_match_per_sample_reference(self):
        # without the Jacobian factor the couplings carry wt = l(t); the
        # reference sweeps each sample with the game's control/tracking
        prob, w, game = build(16, 16, game={
            "alpha1": 1.3, "alpha2": 0.7, "mu1": 2.0, "mu2": 3.0,
            "jacobian_weighting": False, "target_amplitude": 0.0})
        c = game.couplings(prob)
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        inputs = sampler_inputs(prob, w, c)
        obs = empirical_observability(prob, w, c, *inputs, samples=1, rng=rng)
        car = empirical_carleman(prob, w, *inputs, samples=1, rng=rng)
        ref_obs, _ = _reference_observability(prob, w, c, 1, ref_rng)
        ref_car, _ = _reference_carleman(prob, w, c, 1, ref_rng)
        np.testing.assert_allclose(obs["ratios"], ref_obs, rtol=1e-8)
        np.testing.assert_allclose(car["ratios"], ref_car, rtol=1e-8)
        # and wt = l(t) is not the weighted game's wt = 1
        weighted = replace(game, jacobian_weighting=True).couplings(prob)
        rng = np.random.default_rng(8)
        inputs = sampler_inputs(prob, w, weighted)
        obs_1 = empirical_observability(prob, w, weighted, *inputs, samples=1,
                                        rng=rng)
        car_1 = empirical_carleman(prob, w, *inputs, samples=1, rng=rng)
        assert rel_gap(np.array(obs["ratios"]), np.array(obs_1["ratios"])) > 1e-3
        assert rel_gap(np.array(car["ratios"]), np.array(car_1["ratios"])) > 1e-3

    def test_source_term_without_observation(self, w32, monkeypatch):
        # the observation term swamps the source term by about 1e11; with
        # the window O emptied only the source term is left
        _, w = w32
        prob = build(32, 64)[0]
        indicator = prob.indicator
        monkeypatch.setattr(prob, "indicator", lambda name: (
            0.0 * indicator(name) if name == "O" else indicator(name)))
        c = UNIT_GAME.couplings(prob)
        car = empirical_carleman(prob, w, *sampler_inputs(prob, w, c),
                                 samples=3, rng=np.random.default_rng(12))
        ref_car, _ = _reference_carleman(prob, w, c, 3,
                                         np.random.default_rng(12))
        np.testing.assert_allclose(car["ratios"], ref_car, rtol=1e-8)
        assert car["source_share"] == pytest.approx(1.0, rel=1e-12)

    def test_source_share_on_default_problem(self, prob, weights):
        # with O in place the observation term dominates the right-hand
        # side, but the source term still shows in the report
        c = UNIT_GAME.couplings(prob)
        car = empirical_carleman(prob, weights,
                                 *sampler_inputs(prob, weights, c),
                                 samples=50, rng=np.random.default_rng(0))
        assert 0.0 < car["source_share"] < 1e-4


def _fourteen_column_block(prob, couplings):
    """The basis as one `solve_adjoint_coupled` block of every column:
    the sine terminals, then each slot's source modes, zero-padded."""
    grid = prob.grid
    modes = carleman._source_modes(grid, prob.mesh)
    q, s0 = len(modes), carleman.SINE_MODES
    k = s0 + len(carleman.SOURCE_SLOTS) * q
    phiT = np.zeros((k, grid.N + 1))
    phiT[:s0] = carleman._sine_modes(grid)
    sources = {}
    for i, slot in enumerate(carleman.SOURCE_SLOTS):
        sources[slot] = np.zeros((k,) + modes.shape[1:])
        sources[slot][s0 + i * q:s0 + (i + 1) * q] = modes
    return solve_adjoint_coupled(prob, phiT, couplings, **sources)


class TestBasisColumns:
    """`adjoint_basis` sweeps the F1 and F2 slots as one scaled column
    per mode, and its couplings on their windows only; it equals the
    14-column block."""

    @staticmethod
    def _couplings(prob, alphas, jacobian_weighting):
        game = GameSpec(alpha1=1.0, alpha2=1.0, mu1=2.0, mu2=3.0,
                        jacobian_weighting=jacobian_weighting)
        return replace(game.couplings(prob), alphas=alphas)

    @pytest.mark.parametrize("jacobian_weighting", [True, False])
    @pytest.mark.parametrize("alphas", [(1.0, 1.0), (2.0, 0.5), (1.0, 0.0)])
    def test_bit_for_bit(self, w32, alphas, jacobian_weighting):
        # the slot scales are 1, a power of 2 or 0, all exact
        prob = w32[0]
        c = self._couplings(prob, alphas, jacobian_weighting)
        basis = adjoint_basis(prob, c)
        ref = _fourteen_column_block(prob, c)
        assert np.array_equal(basis.phi, ref.phi)
        assert np.array_equal(basis.psi, ref.psi)
        assert basis.history == ref.history

    def test_scaled_slot_at_roundoff(self, w32):
        prob = w32[0]
        c = self._couplings(prob, (0.7, 0.3), True)
        basis = adjoint_basis(prob, c)
        ref = _fourteen_column_block(prob, c)
        for got, want in ((basis.phi, ref.phi), (basis.psi, ref.psi)):
            for j in range(got.shape[1]):
                assert rel_gap(got[:, j], want[:, j]) <= 1e-13, j
        assert len(basis.history) == len(ref.history)
        np.testing.assert_allclose(basis.history, ref.history, rtol=1e-12)


class TestSharedBasis:
    """Both samplers read one block solve, `adjoint_basis`."""

    GAME = GameSpec(alpha1=0.7, alpha2=1.3, mu1=2.0, mu2=3.0,
                    jacobian_weighting=True)

    def test_given_basis_equals_own_solve(self, w32):
        # the samplers only read the basis and roots they are given, so
        # one pair serves both: each report equals the one from a pair
        # made for that sampler alone, and the shared pair is unchanged
        prob, w = w32
        c = self.GAME.couplings(prob)
        basis, roots = shared = sampler_inputs(prob, w, c)
        kept = [basis.phi.copy(), basis.psi.copy(), *map(np.copy, roots)]
        for sampler in (partial(empirical_observability, prob, w, c),
                        partial(empirical_carleman, prob, w)):
            reports = [sampler(*given, samples=6,
                               rng=np.random.default_rng(5))
                       for given in (shared, sampler_inputs(prob, w, c))]
            assert reports[0].keys() == reports[1].keys()
            for key in reports[0]:
                assert np.array_equal(reports[0][key], reports[1][key])
        for now, before in zip([basis.phi, basis.psi, *roots], kept):
            assert np.array_equal(now, before)

    @pytest.mark.parametrize("game", [UNIT_GAME, GAME],
                             ids=["default", "weighted"])
    def test_observability_forms_match_two_follower_sweep(self, w32, game):
        # rho = alpha1 psi1 + alpha2 psi2 of the basis against the same
        # combination of the two-follower reference sweep
        prob, w = w32
        c = game.couplings(prob)
        a1, a2 = c.alphas
        basis, roots = sampler_inputs(prob, w, c)
        psi = basis.psi[:, :carleman.SINE_MODES]
        forms = carleman._observability_forms(
            prob, basis.phi[:, :carleman.SINE_MODES],
            a1 * psi[:, :, 0] + a2 * psi[:, :, 1], roots)
        phi, psi, _ = two_follower_sweep(prob,
                                         carleman._sine_modes(prob.grid),
                                         c.control, c.tracking)
        ref = carleman._observability_forms(
            prob, phi, a1 * psi[:, :, 0] + a2 * psi[:, :, 1], roots)
        for form, ref_form in zip(forms, ref):
            assert rel_gap(form, ref_form) <= 1e-9

    def test_carleman_forms_match_per_slot_solves(self, w32):
        # the reference solves the sine modes and each slot's source modes
        # in four calls, and stacks their columns in the basis order
        prob, w = w32
        grid = prob.grid
        c = UNIT_GAME.couplings(prob)
        modes = carleman._source_modes(grid, prob.mesh)
        blocks = [solve_adjoint_coupled(prob, carleman._sine_modes(grid), c)]
        for slot in carleman.SOURCE_SLOTS:
            blocks.append(solve_adjoint_coupled(
                prob, np.zeros((len(modes), grid.N + 1)), c, **{slot: modes}))
        basis, roots = sampler_inputs(prob, w, c)
        ref = carleman._carleman_forms(
            prob, np.concatenate([b.phi for b in blocks], axis=1),
            np.concatenate([b.psi for b in blocks], axis=1), roots)
        forms = carleman._carleman_forms(prob, basis.phi, basis.psi, roots)
        for form, ref_form in zip(forms, ref):
            assert rel_gap(form, ref_form) <= 1e-9

    def test_observability_run_solves_once(self, tmp_path, monkeypatch):
        # the basis makes the run's one block sweep, by `sweep_adjoint`
        calls = []
        sweep = solvers.sweep_adjoint

        def counted(*args, **kwargs):
            calls.append(1)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(solvers, "sweep_adjoint", counted)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "grid": {"N": 16, "M": 16},
            "experiment": {"kind": "observability", "samples": 4}}))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        assert len(calls) == 1
