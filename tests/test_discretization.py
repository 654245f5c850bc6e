"""Graded grid, time mesh, trajectory fields and discrete operators."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from degcontrol.geometry import DegeneracySpec
from degcontrol.grids import SpatialGrid, TimeMesh, TrajectoryField
from degcontrol.nash import GameSpec, make_default_targets
from degcontrol.nullcontrol import _nonlinear_remainders
from degcontrol.operators import (
    assemble_drift,
    assemble_stiffness,
    drift_bands,
    tridiag_csr,
    weighted_transpose,
)
from degcontrol.mms import space_order_study, time_order_study
from degcontrol.solvers import (
    CylinderProblem,
    central_gradient_matrix,
    solve_backward_linear,
    solve_forward_linear,
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
            SpatialGrid(N=2)

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
        g, m = SpatialGrid(N=8), TimeMesh(M=4, T=1.0)
        with pytest.raises(ValueError):
            TrajectoryField(g, m, np.zeros((3, 9)))

    def test_right_endpoint_quadrature(self):
        # constant field 1: the right-endpoint rule integrates exactly,
        # sum_{n>=1} dt * 1 = T
        g, m = SpatialGrid(N=16), TimeMesh(M=10, T=1.0)
        f = TrajectoryField(g, m, np.ones((11, 17)))
        assert f.l2q_norm() ** 2 == pytest.approx(1.0, rel=1e-13)

    def test_quadrature_refinement(self):
        # a time-constant integrand is integrated exactly at every M, so
        # the value must not move under time refinement
        g = SpatialGrid(N=16)
        x = g.nodes
        vals = []
        for M in (16, 64, 256):
            m = TimeMesh(M=M, T=1.0)
            f = TrajectoryField.from_function(g, m, lambda x, t: np.sin(np.pi * x))
            vals.append(f.l2q_norm() ** 2)
        assert vals[0] == pytest.approx(vals[2], rel=1e-12)

    def test_from_function(self):
        g, m = SpatialGrid(N=8), TimeMesh(M=4, T=1.0)
        f = TrajectoryField.from_function(g, m, lambda x, t: x * t)
        assert f.values[2, 3] == pytest.approx(g.nodes[3] * m.times[2])

    def test_inner_bilinear(self):
        g, m = SpatialGrid(N=8), TimeMesh(M=4, T=1.0)
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

    @pytest.mark.parametrize("N, M", [(32, 64), (64, 128)])
    def test_summation_by_parts(self, N, M, rng):
        # sum dt <f,p> + <y0,p^1> = sum dt <g,y>, relative to the sum of
        # the magnitudes of its terms, for the forward march and the
        # backward march through the transposed forward factors
        prob = CylinderProblem.default(N=N, M=M)
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

    def test_nonlinear_remainders_match_sparse(self, prob_small, rng):
        prob = prob_small
        game = GameSpec(mu1=5.0, mu2=5.0)
        game.target1, game.target2 = make_default_targets(prob)
        y, p1, p2 = (_random_state(prob, rng) for _ in range(3))
        N0, N1, N2 = _nonlinear_remainders(prob, game, y, p1, p2)
        _, lt_y = _sparse_levels(prob, y)
        _, lt_0 = _sparse_levels(prob, prob.new_field())
        zero = np.zeros(1)
        d1 = float(prob.F.D1(zero, zero)[0])
        d2 = float(prob.F.D2(zero, zero)[0])
        Dc = central_gradient_matrix(prob.grid)
        ind_d = prob.indicator_interior("Od")
        wt = game.time_weight(prob)
        for n in range(prob.mesh.M + 1):
            yi = y.values[n, 1:-1]
            w = prob.C_t[n] * prob.beta_i * (Dc @ yi)
            ref0 = prob.F.F(yi, w) - d1 * yi - d2 * w
            assert np.allclose(N0[n, 1:-1], ref0, rtol=1e-14, atol=1e-15)
            for i, (p, Ni) in enumerate(((p1, N1), (p2, N2))):
                target = game.targets(prob)[i].values[n, 1:-1]
                ref = ((lt_y[n] - lt_0[n]) @ p.values[n, 1:-1]
                       + game.alphas[i] * wt[n] * target * ind_d)
                assert np.allclose(Ni[n, 1:-1], ref, rtol=1e-14, atol=1e-15)


class TestManufacturedOrders:
    def test_time_first_order(self):
        study = time_order_study(N=128, Ms=(16, 32, 64), M_ref=512)
        assert study["slope"] == pytest.approx(1.0, abs=0.15)

    def test_space_second_order(self):
        study = space_order_study(Ns=(32, 64, 128), M=64)
        assert study["slope"] == pytest.approx(2.0, abs=0.3)
