"""Graded grid, time mesh, trajectory fields and discrete operators."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from degcontrol.geometry import DegeneracySpec
from degcontrol.grids import SpatialGrid, TimeMesh, TrajectoryField, integral_q
from degcontrol.nash import _dL_transpose_apply
from degcontrol.nullcontrol import (SHIFT, BandCholesky, HUMSolver,
                                    _hum_blocks, _nonlinear_remainders,
                                    _remainder_parts, h1a_norm, level_order,
                                    lower_band)
from degcontrol.operators import (band_apply, band_transpose, drift_bands,
                                  weighted_transpose)
from degcontrol.mms import (manufactured_source, space_order_study,
                            time_order_study)
from degcontrol.solvers import (
    CylinderProblem,
    _interior,
    solve_backward_linear,
    solve_forward_linear,
    solve_forward_semilinear,
)

from conftest import LINEAR, NO_TARGETS, build
from sparse_reference import (
    assemble_drift,
    assemble_stiffness,
    central_gradient_matrix,
    tridiag_csr,
)


class TestSpatialGrid:
    def test_nodes_graded(self):
        g = SpatialGrid(N=8, gamma=2.0)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
        assert np.allclose(g.nodes, (np.arange(9) / 8.0) ** 2)
        assert np.all(np.diff(g.nodes) > 0)

    def test_cell_volumes_partition_unity(self):
        g = SpatialGrid(N=64, gamma=2.0)
        assert np.sum(g.cell_volumes) == pytest.approx(1.0)

    def test_norm_of_one(self):
        g = SpatialGrid(N=32, gamma=1.5)
        assert g.norm(np.ones(33)) == pytest.approx(1.0)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            SpatialGrid(N=2, gamma=2.0)

    def test_inner_reduces_the_last_axis(self, rng):
        g = SpatialGrid(N=32, gamma=2.0)
        u, v = rng.standard_normal((2, 5, 33))
        rows = g.inner(u, v)
        assert rows.shape == (5,)
        for n in range(5):
            assert rows[n] == g.inner(u[n], v[n])
            assert g.norm(u)[n] == g.norm(u[n])

    def test_face_energy_rows(self):
        # rows u = c x(1-x), a = sqrt(x): int a u'^2 = 22 c^2 / 105 and
        # int u^2 = c^2 / 30, so the squared H^1_a norm is 17 c^2 / 70
        grid = SpatialGrid(N=256, gamma=2.0)
        deg = DegeneracySpec(alpha=0.5)
        c = np.array([1.0, -2.0, 0.5])
        u = c[:, None] * (grid.nodes * (1.0 - grid.nodes))
        energy = grid.face_energy(deg.a(grid.faces), u)
        assert energy == pytest.approx(22.0 * c**2 / 105.0, rel=1e-2)
        assert grid.inner(u, u) + energy == pytest.approx(
            17.0 * c**2 / 70.0, rel=1e-2)
        for row, e in zip(u, energy):
            assert h1a_norm(grid, deg, row) ** 2 == pytest.approx(
                grid.inner(row, row) + e, rel=1e-14)

    @given(st.integers(4, 64), st.floats(0.5, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_volumes_positive(self, N, gamma):
        g = SpatialGrid(N=N, gamma=gamma)
        assert np.all(g.cell_volumes > 0)
        assert np.sum(g.cell_volumes) == pytest.approx(1.0)


class TestTimeMesh:
    def test_dt(self):
        m = TimeMesh(M=128, T=1.0)
        assert m.dt == pytest.approx(1.0 / 128)
        assert len(m.times) == 129

    def test_small_mesh_rejected(self):
        with pytest.raises(ValueError):
            TimeMesh(M=1, T=1.0)


class TestTrajectoryField:
    def test_shape_checked(self):
        g, m = SpatialGrid(N=8, gamma=2.0), TimeMesh(M=4, T=1.0)
        with pytest.raises(ValueError):
            TrajectoryField(g, m, np.zeros((3, 9)))

    def test_right_endpoint_quadrature(self):
        # constant field 1: the right-endpoint rule integrates exactly,
        # sum_{n>=1} dt * 1 = T
        g, m = SpatialGrid(N=16, gamma=2.0), TimeMesh(M=10, T=1.0)
        f = TrajectoryField(g, m, np.ones((11, 17)))
        assert f.l2q_norm() ** 2 == pytest.approx(1.0, rel=1e-13)

    def test_quadrature_refinement(self):
        # a time-constant integrand is integrated exactly at every M, so
        # the value must not move under time refinement
        g = SpatialGrid(N=16, gamma=2.0)
        x = g.nodes
        vals = []
        for M in (16, 64, 256):
            m = TimeMesh(M=M, T=1.0)
            f = TrajectoryField.from_function(g, m, lambda x, t: np.sin(np.pi * x))
            vals.append(f.l2q_norm() ** 2)
        assert vals[0] == pytest.approx(vals[2], rel=1e-12)

    def test_from_function(self):
        g, m = SpatialGrid(N=8, gamma=2.0), TimeMesh(M=4, T=1.0)
        f = TrajectoryField.from_function(g, m, lambda x, t: x * t)
        assert f.values[2, 3] == pytest.approx(g.nodes[3] * m.times[2])

    @pytest.mark.parametrize("N, M", [(8, 4), (32, 64)])
    def test_integral_is_the_right_endpoint_sum(self, N, M, rng):
        # int_Q u v = sum_{n>=1} dt <u_n, v_n>: level 0 carries no weight
        g, m = SpatialGrid(N=N, gamma=2.0), TimeMesh(M=M, T=1.0)
        u, v = rng.standard_normal((2, M + 1, N + 1))
        want = sum(m.dt * g.inner(u[n], v[n]) for n in range(1, M + 1))
        assert integral_q(g, m, u * v) == pytest.approx(want, rel=1e-13)
        u[0] = 1e6
        assert integral_q(g, m, u * v) == pytest.approx(want, rel=1e-13)
        wt = rng.random(M + 1)
        want = sum(m.dt * wt[n] * g.inner(u[n], v[n])
                   for n in range(1, M + 1))
        assert integral_q(g, m, u * v, wt) == pytest.approx(want, rel=1e-13)
        a, b = TrajectoryField(g, m, u), TrajectoryField(g, m, v)
        assert a.l2q_inner(b) == integral_q(g, m, u * v)

    def test_inner_bilinear(self):
        g, m = SpatialGrid(N=8, gamma=2.0), TimeMesh(M=4, T=1.0)
        rng = np.random.default_rng(0)
        a = TrajectoryField(g, m, rng.standard_normal((5, 9)))
        b = TrajectoryField(g, m, rng.standard_normal((5, 9)))
        assert a.l2q_inner(b) == pytest.approx(b.l2q_inner(a))
        assert a.l2q_inner(a) == pytest.approx(a.l2q_norm() ** 2)


class TestOperators:
    def test_stiffness_symmetric_in_volume_inner_product(self, rng):
        g = SpatialGrid(N=32, gamma=2.0)
        deg = DegeneracySpec(alpha=0.5)
        A = assemble_stiffness(g, deg)
        wv = g.interior_volumes
        L = np.diag(1.0 / wv) @ A.toarray()
        u = rng.standard_normal(g.N - 1)
        v = rng.standard_normal(g.N - 1)
        assert np.sum(wv * (L @ u) * v) == pytest.approx(
            np.sum(wv * u * (L @ v)), rel=1e-12)

    def test_stiffness_positive(self, rng):
        g = SpatialGrid(N=32, gamma=2.0)
        deg = DegeneracySpec(alpha=0.5)
        A = assemble_stiffness(g, deg)
        wv = g.interior_volumes
        L = np.diag(1.0 / wv) @ A.toarray()
        for _ in range(5):
            u = rng.standard_normal(g.N - 1)
            assert np.sum(wv * (L @ u) * u) > 0

    def test_weighted_transpose_is_adjoint(self, rng):
        g = SpatialGrid(N=24, gamma=2.0)
        deg = DegeneracySpec(alpha=0.5)
        wv = g.interior_volumes
        L = assemble_drift(g, -0.3 * g.interior)
        Lt = weighted_transpose(L, wv)
        u = rng.standard_normal(g.N - 1)
        v = rng.standard_normal(g.N - 1)
        assert np.sum(wv * (L @ u) * v) == pytest.approx(
            np.sum(wv * u * (Lt @ v)), rel=1e-11)


def _sparse_levels(prob, y):
    """Reference L_n and W^{-1} L_n^T W at state y, assembled per level with
    scipy.sparse in the order the band layer reproduces."""
    wv = prob.grid.interior_volumes
    winv_a = sp.diags(1.0 / wv) @ assemble_stiffness(prob.grid, prob.deg)
    Dc = central_gradient_matrix(prob.grid)
    yi = y.values[:, 1:-1]
    mats, mats_t = [], []
    for n in range(prob.mesh.M + 1):
        g = prob.C_t[n] * prob.beta_i
        w = g * (Dc @ yi[n])
        base = (prob.b_t[n] * winv_a
                + assemble_drift(prob.grid, -prob.B_t[n] * prob.xi))
        L = (base + sp.diags(prob.F.D1(yi[n], w))
             + sp.diags(prob.F.D2(yi[n], w) * g) @ Dc).tocsr()
        mats.append(L)
        mats_t.append(weighted_transpose(L, wv))
    return mats, mats_t


def _random_state(prob, rng, amplitude=0.3):
    vals = amplitude * rng.standard_normal((prob.mesh.M + 1, prob.grid.N + 1))
    vals[:, [0, -1]] = 0.0
    return TrajectoryField(prob.grid, prob.mesh, vals)


def _space_time_reference(mats, dt, sign):
    """block_diag of I/dt + L_m over m = 1..M, minus I/dt shifted one block
    down (sign=-1) or up (sign=+1)."""
    M, n = len(mats) - 1, mats[0].shape[0]
    eye = sp.identity(n, format="csr")
    shift = sp.kron(sp.diags([np.ones(M - 1)], [sign], (M, M)), eye)
    return (sp.block_diag([eye / dt + mats[m] for m in range(1, M + 1)])
            - shift / dt).tocsr()


def _space_time_pair(prob, mats, mats_t):
    """(L*, L): the backward space-time operator of the weighted
    transposes with the block column of the free terminal datum
    phi^{M+1} (-I/dt on the rows of level M), and the forward one."""
    M, n, dt = prob.mesh.M, prob.grid.N - 1, prob.mesh.dt
    term_col = sp.kron(
        sp.csr_matrix((np.ones(1), (np.array([M - 1]), np.array([0]))),
                      shape=(M, 1)), -sp.identity(n, format="csr") / dt)
    return (sp.hstack([_space_time_reference(mats_t, dt, 1),
                       term_col]).tocsr(),
            _space_time_reference(mats, dt, -1))


def _assert_space_time_columns(prob, blocks, mats, mats_t):
    """The phi columns of G0 and the psi blocks of G1, G2 are the
    space-time block matrices of the sparse levels."""
    M, n = prob.mesh.M, prob.grid.N - 1
    G0, G1, G2 = blocks[:3]
    off, size = (M + 1) * n, M * n
    Lstar, Lfwd = _space_time_pair(prob, mats, mats_t)
    _assert_same_csr(G0[:, :off], Lstar)
    _assert_same_csr(G1[:, off:off + size], Lfwd)
    _assert_same_csr(G2[:, off + size:], Lfwd)


def _hum_blocks_reference(prob, game):
    """G0, G1, G2, E assembled blockwise, as scipy stacks them: the
    space-time blocks of the sparse reference levels at zero, the
    couplings as diagonals, and hstack."""
    M, n = prob.mesh.M, prob.grid.N - 1
    Lstar, Lfwd = _space_time_pair(
        prob, *_sparse_levels(prob, prob.new_field()))
    c = game.couplings(prob)
    control, tracking = c.control, c.tracking

    def diag(c):
        return sp.diags(c[1:, 1:-1].ravel())

    D_o = sp.diags(np.tile(prob.indicator_interior("O"), M))
    Z, Zt = sp.csr_matrix((M * n, M * n)), sp.csr_matrix((M * n, n))
    return (sp.hstack([Lstar, -diag(tracking[0]), -diag(tracking[1])]).tocsr(),
            sp.hstack([diag(control[0]), Zt, Lfwd, Z]).tocsr(),
            sp.hstack([diag(control[1]), Zt, Z, Lfwd]).tocsr(),
            sp.hstack([D_o, Zt, Z, Z]).tocsr())


def _remainders_reference(prob, game, y, p1, p2):
    """N0, N1, N2 computed field by field and padded with np.pad; the
    adjoint parts from the change in the coefficients, r p + W^{-1}
    Dc^T (c W p)."""
    tracking = game.couplings(prob).tracking
    targets = game.targets(prob)
    zero = np.zeros(1)
    d1 = float(prob.F.D1(zero, zero)[0])
    d2 = float(prob.F.D2(zero, zero)[0])
    yi = _interior(y.values)
    g = prob.grad_weights
    wgrad = g * band_apply(prob.Dc_bands, yi)
    N0 = prob.F.F(yi, wgrad) - d1 * yi - d2 * wgrad
    r = prob.F.D1(yi, wgrad) - d1
    c = (prob.F.D2(yi, wgrad) - d2) * g
    wv = prob.grid.interior_volumes
    dct = band_transpose(prob.Dc_bands)
    Ni = []
    for i, p in enumerate((p1, p2)):
        pi = _interior(p.values)
        Ni.append(r * pi + band_apply(dct, c * wv * pi) / wv
                  + _interior(tracking[i] * targets[i].values))
    return [np.pad(N, ((0, 0), (1, 1))) for N in (N0, *Ni)]


def _assert_same_csr(a, b):
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, part), getattr(b, part)), part


class TestBandOperators:
    def test_drift_bands_match_loop(self, rng):
        g = SpatialGrid(N=24, gamma=2.0)
        coeff = rng.standard_normal((3, g.N - 1))
        bands = drift_bands(g, coeff)
        for c, b in zip(coeff, bands):
            assert np.array_equal(tridiag_csr(b).toarray(),
                                  assemble_drift(g, c).toarray())

    def test_levels_equal_sparse_reference(self, prob_small, rng):
        y = _random_state(prob_small, rng)
        ops = prob_small.ops_at_state(y)
        mats, mats_t = _sparse_levels(prob_small, y)
        for n in range(prob_small.mesh.M + 1):
            assert np.array_equal(tridiag_csr(ops.bands[n]).toarray(),
                                  mats[n].toarray())
            assert np.array_equal(tridiag_csr(ops.bands_t[n]).toarray(),
                                  mats_t[n].toarray())

    def test_space_time_blocks_equal_block_diag(self, prob_small, game, rng):
        # the HUM blocks read the level bands of any operator set, here
        # those linearized at a random state
        prob = prob_small
        y = _random_state(prob, rng)
        _assert_space_time_columns(
            prob, _hum_blocks(prob, prob.ops_at_state(y),
                              game.couplings(prob)),
            *_sparse_levels(prob, y))

    def test_hum_blocks_equal_sparse_reference(self):
        # the HUM operator is built from the system linearized at zero,
        # plus the free terminal datum of phi as one extra block column
        prob, weights, game = build(32, 48, game=NO_TARGETS)
        hum = HUMSolver(prob, weights, game)
        _assert_space_time_columns(prob, (hum.G0, hum.G1, hum.G2),
                                   *_sparse_levels(prob, prob.new_field()))

    @pytest.mark.parametrize("N, M, game", [
        (16, 16, NO_TARGETS),
        (32, 64, NO_TARGETS),
        (16, 16, {"alpha1": 2.0, "alpha2": 3.0, "mu2": 7.0,
                  "jacobian_weighting": False, **NO_TARGETS}),
    ], ids=["16x16", "32x64", "unweighted"])
    def test_hum_build_equals_blockwise_assembly(self, N, M, game):
        # the stencil rows give the blockwise assembly's arrays bit for
        # bit, and so the same operator, scaling and band factor
        prob, weights, game = build(N, M, game=game)
        n, dt = N - 1, prob.mesh.dt
        hum = HUMSolver(prob, weights, game)
        ref = _hum_blocks_reference(prob, game)
        for got, want in zip((hum.G0, hum.G1, hum.G2), ref):
            _assert_same_csr(got, want)
        # the leader's block E is the 0/1 mask of O on phi^1..phi^M, which
        # the solver applies as a mask: E z is z masked, bit for bit
        E, size = ref[3], M * n
        mask = np.tile(prob.indicator_interior("O"), M)
        assert set(np.unique(mask)) == {0.0, 1.0}
        z = np.random.default_rng(0).standard_normal(E.shape[1])
        assert np.array_equal(E @ z, np.where(mask, z[:size], 0.0))
        wv = prob.grid.interior_volumes
        W0 = sp.diags(dt * np.outer(weights.rho0_n[1:] ** -2.0, wv).ravel())
        W1 = sp.diags(dt * np.outer(weights.rho1_n[1:] ** -2.0, wv).ravel())
        G0, G1, G2, E = ref
        B = (G0.T @ W0 @ G0 + G1.T @ W0 @ G1 + G2.T @ W0 @ G2
             + E.T @ W1 @ E).tocsc()
        scale = np.sqrt(B.diagonal())
        Dinv = sp.diags(1.0 / scale)
        Bs = (Dinv @ B @ Dinv).tocsr()
        Bs.sort_indices()
        assert np.array_equal(hum.scale, scale)
        # held in long double, with the same entries on the same indices
        _assert_same_csr(hum.Bs, Bs)
        assert np.array_equal(hum.Bs.data, Bs.data.astype(np.longdouble))
        perm = level_order(M, n)
        ab = lower_band(Bs, perm)
        ab[0] += SHIFT
        assert np.array_equal(hum.lu.band, BandCholesky(ab, perm).band)

    def test_dL_transpose_equals_levelwise_sparse(self, prob_small, rng):
        prob, F = prob_small, prob_small.F
        y, theta, p = (_random_state(prob, rng).values[:, 1:-1]
                       for _ in range(3))
        got = _dL_transpose_apply(prob, y, theta, p)
        Dc = central_gradient_matrix(prob.grid)
        wv = prob.grid.interior_volumes
        for n in range(prob.mesh.M + 1):
            g = prob.C_t[n] * prob.beta_i
            w = g * (Dc @ y[n])
            dth = g * (Dc @ theta[n])
            r = F.D11(y[n], w) * theta[n] + F.D12(y[n], w) * dth
            q = F.D21(y[n], w) * theta[n] + F.D22(y[n], w) * dth
            ref = r * p[n] + (Dc.T @ (q * g * wv * p[n])) / wv
            assert np.array_equal(got[n], ref)

    def test_gradient_argument_is_g_Dc_y(self, prob_small, rng):
        prob = prob_small
        y = _random_state(prob, rng).values[:, 1:-1]
        got = prob.gradient_argument(y)
        Dc = central_gradient_matrix(prob.grid)
        for n in range(prob.mesh.M + 1):
            assert np.array_equal(got[n],
                                  prob.C_t[n] * prob.beta_i * (Dc @ y[n]))

    @pytest.mark.parametrize("N, M", [(32, 64), (64, 128)])
    def test_summation_by_parts(self, N, M, rng):
        # sum dt <f,p> + <y0,p^1> = sum dt <g,y>, relative to the sum of
        # the magnitudes of its terms, for the forward march and the
        # backward march through the transposed forward factors
        prob = build(N, M)[0]
        dt, wv = prob.mesh.dt, prob.grid.interior_volumes
        for ops in (prob.linearized_ops(),
                    prob.ops_at_state(_random_state(prob, rng))):
            f = rng.standard_normal((M + 1, N - 1))
            g = rng.standard_normal((M + 1, N - 1))
            y0 = np.pad(rng.standard_normal(N - 1), 1)
            y = solve_forward_linear(ops, y0, f).values[:, 1:-1]
            p = solve_backward_linear(ops, g).values[:, 1:-1]
            terms = [dt * wv * f[1:] * p[1:], wv * y0[1:-1] * p[1],
                     -dt * wv * g[1:] * y[1:]]
            mismatch = abs(sum(float(np.sum(t)) for t in terms))
            assert mismatch <= 1e-15 * sum(float(np.sum(np.abs(t)))
                                           for t in terms)

    def test_nonlinear_remainders_match_sparse(self, rng):
        prob, weights, game = build(32, 48)
        y, p1, p2 = (_random_state(prob, rng) for _ in range(3))
        N0, N1, N2 = _nonlinear_remainders(
            prob, _remainder_parts(HUMSolver(prob, weights, game)), y, p1, p2)
        zero = np.zeros(1)
        d1 = float(prob.F.D1(zero, zero)[0])
        d2 = float(prob.F.D2(zero, zero)[0])
        Dc = central_gradient_matrix(prob.grid)
        wv = prob.grid.interior_volumes
        ind_d = prob.indicator_interior("Od")
        wt = game.time_weight(prob)
        for n in range(prob.mesh.M + 1):
            yi = y.values[n, 1:-1]
            g = prob.C_t[n] * prob.beta_i
            w = g * (Dc @ yi)
            ref0 = prob.F.F(yi, w) - d1 * yi - d2 * w
            assert np.allclose(N0[n, 1:-1], ref0, rtol=1e-14, atol=1e-15)
            # L(y) - L(0) = diag(r) + diag(c) Dc, from the coefficients
            dL = (sp.diags(prob.F.D1(yi, w) - d1)
                  + sp.diags((prob.F.D2(yi, w) - d2) * g) @ Dc)
            dLt = weighted_transpose(dL.tocsr(), wv)
            for i, (p, Ni) in enumerate(((p1, N1), (p2, N2))):
                target = game.targets(prob)[i].values[n, 1:-1]
                ref = (dLt @ p.values[n, 1:-1]
                       + game.alphas[i] * wt[n] * target * ind_d)
                assert np.allclose(Ni[n, 1:-1], ref, rtol=1e-14, atol=1e-15)

    def test_nonlinear_remainders_equal_padded_reference(self, rng):
        # wt = l(t) and non-zero targets make every fixed part count
        prob, weights, game = build(32, 48, game={
            "alpha1": 2.0, "alpha2": 3.0, "mu2": 7.0,
            "jacobian_weighting": False})
        parts = _remainder_parts(HUMSolver(prob, weights, game))
        for _ in range(2):
            y, p1, p2 = (_random_state(prob, rng) for _ in range(3))
            ref = _remainders_reference(prob, game, y, p1, p2)
            got = _nonlinear_remainders(prob, parts, y, p1, p2)
            assert got.shape == (3,) + y.values.shape
            for g, r in zip(got, ref):
                assert np.array_equal(g, r)


    def test_nonlinear_remainders_build_no_operators(self, rng, monkeypatch):
        prob, weights, game = build(32, 48, game=NO_TARGETS)
        parts = _remainder_parts(HUMSolver(prob, weights, game))

        def refuse(self, y):
            raise AssertionError("ops_at_state reached")
        monkeypatch.setattr(CylinderProblem, "ops_at_state", refuse)
        y, p1, p2 = (_random_state(prob, rng) for _ in range(3))
        assert np.all(np.isfinite(_nonlinear_remainders(prob, parts, y, p1,
                                                        p2)))

    def test_nonlinear_remainders_adjoint_part_long_double(self, rng):
        # small states are where the change of the coefficients is small
        # against the operator.  Relative errors at amplitude 1e-2, five
        # draws: 3.6e-14 to 5.8e-14 from the coefficient change, 1.7e-10 to
        # 2.9e-10 from subtracting the two weighted transposes
        prob, weights, game = build(32, 64, game=NO_TARGETS)
        parts = _remainder_parts(HUMSolver(prob, weights, game))
        ld, F = np.longdouble, prob.F
        wv = prob.grid.interior_volumes.astype(ld)
        dct = band_transpose(prob.Dc_bands).astype(ld)
        g = prob.grad_weights.astype(ld)
        zero = np.zeros(1, dtype=ld)
        for _ in range(3):
            y, p1, p2 = (_random_state(prob, rng, amplitude=1e-2)
                         for _ in range(3))
            # no targets, so N1 and N2 are the adjoint parts alone
            got = _nonlinear_remainders(prob, parts, y, p1, p2)[1:, :, 1:-1]
            yi = _interior(y.values).astype(ld)
            w = g * band_apply(prob.Dc_bands.astype(ld), yi)
            r = F.D1(yi, w) - F.D1(zero, zero)
            c = (F.D2(yi, w) - F.D2(zero, zero)) * g
            p = np.stack([_interior(p1.values), _interior(p2.values)]).astype(ld)
            ref = r * p + band_apply(dct, c * wv * p) / wv
            assert float(np.max(np.abs(got - ref))
                         / np.max(np.abs(ref))) <= 1e-12


def _moving_domain_error(family: str, N: int, Ms=(512, 1024)) -> float:
    """Interior L2 error on [0.25, 0.9] at t = T of the exact solution
    Y(xi, t) = e^{-t} sin(pi xi / l(t)) on (0, l(t)), F = 0, pulled back
    to the cylinder by xi = l(t) x; the time error is removed by
    Richardson extrapolation over the two M of Ms (M2 = 2 M1)."""
    finals = []
    for M in Ms:
        prob = build(N, M, geometry={"family": family}, **LINEAR)[0]
        y = solve_forward_semilinear(prob, np.sin(np.pi * prob.grid.nodes),
                                     source=manufactured_source(prob, 1.0))
        finals.append(y.values[-1])
    x, T = prob.grid.nodes, prob.mesh.T
    l_T = prob.dom.ell(T)
    exact = np.exp(-T) * np.sin(np.pi * (l_T * x) / l_T)  # Y(l(T) x, T)
    err = 2.0 * finals[1] - finals[0] - exact
    on = (x >= 0.25) & (x <= 0.9)
    return float(np.sqrt(np.sum(prob.grid.cell_volumes[on] * err[on] ** 2)))


CONSTANT = {"family": "constant"}


class TestManufacturedOrders:
    @pytest.mark.parametrize("family, lo, hi", [
        ("constant", 1.8, np.inf),
        # the upwind drift -B x y_x is first order once the domain moves
        # (0.95 measured at N = 32, 64, 128 on the default k = 0.25)
        ("affine", 0.8, 1.3),
    ], ids=["constant", "affine"])
    def test_moving_domain_exact_solution(self, family, lo, hi):
        e32, e64 = (_moving_domain_error(family, N) for N in (32, 64))
        assert lo <= np.log2(e32 / e64) <= hi

    def test_time_first_order(self):
        # M = 16, 32, 64 at N = 128 against M = 512
        study = time_order_study(build(128, 64, geometry=CONSTANT,
                                       **LINEAR)[0])
        assert study["slope"] == pytest.approx(1.0, abs=0.15)

    def test_space_second_order(self):
        # N = 32, 64, 128 at M = 64
        study = space_order_study(build(32, 64, geometry=CONSTANT,
                                        **LINEAR)[0])
        assert study["slope"] == pytest.approx(2.0, abs=0.3)
