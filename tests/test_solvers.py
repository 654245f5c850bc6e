"""Forward/backward kernels, discrete duality and coupled sweeps."""

import numpy as np
import pytest

from degcontrol import carleman
from degcontrol.carleman import CarlemanParams, CarlemanWeights
from degcontrol.grids import TrajectoryField
from degcontrol.semilinear import SemilinearF
from degcontrol.solvers import (
    CylinderProblem,
    LevelOps,
    SweepFailureError,
    energy_diagnostics,
    solve_adjoint_coupled,
    solve_backward_linear,
    solve_forward_linear,
    solve_forward_semilinear,
    solve_linearized_coupled,
)

from adjoint_reference import two_follower_sweep
from conftest import rel_gap, sine_data


def _duality_mismatch(prob, ops, rng):
    """Relative gap in sum dt<f,p> + <y0,p^1> = sum dt<g,y>."""
    M, n = prob.mesh.M, prob.grid.N - 1
    dt = prob.mesh.dt
    wv = prob.grid.interior_volumes
    f = rng.standard_normal((M + 1, n))
    g = rng.standard_normal((M + 1, n))
    y0 = np.pad(rng.standard_normal(n), 1)
    y = solve_forward_linear(ops, y0, f)
    p = solve_backward_linear(ops, g)
    yi, pi = y.values[:, 1:-1], p.values[:, 1:-1]
    lhs = dt * np.einsum("j,nj->", wv, f[1:] * pi[1:]) \
        + float(np.sum(wv * y0[1:-1] * pi[1]))
    rhs = dt * np.einsum("j,nj->", wv, g[1:] * yi[1:])
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


class TestDuality:
    def test_five_random_pairs(self, prob, rng):
        ops = prob.linearized_ops()
        for _ in range(5):
            assert _duality_mismatch(prob, ops, rng) <= 1e-8

    def test_duality_at_nonzero_state(self, prob, rng):
        y = TrajectoryField.from_function(
            prob.grid, prob.mesh, lambda x, t: 0.2 * np.sin(np.pi * x) * (1 + t))
        ops = prob.ops_at_state(y)
        assert _duality_mismatch(prob, ops, rng) <= 1e-8


class TestForward:
    def test_zero_data_stays_zero(self, prob):
        y = solve_forward_semilinear(prob, np.zeros(prob.grid.N + 1))
        assert np.all(y.values == 0.0)

    def test_dirichlet_boundaries(self, prob):
        y = solve_forward_semilinear(prob, sine_data(prob, 0.1))
        assert np.all(y.values[:, 0] == 0.0)
        assert np.all(y.values[:, -1] == 0.0)

    def test_semilinear_reduces_to_linear(self, prob_linear):
        y0 = sine_data(prob_linear, 0.1)
        ys = solve_forward_semilinear(prob_linear, y0)
        ops = prob_linear.linearized_ops()
        shape = (prob_linear.mesh.M + 1, prob_linear.grid.N - 1)
        yl = solve_forward_linear(ops, y0, np.zeros(shape))
        assert np.max(np.abs(ys.values - yl.values)) <= 1e-12

    def test_dissipation_without_forcing(self, prob_linear):
        y = solve_forward_semilinear(prob_linear, sine_data(prob_linear, 0.1))
        norms = [prob_linear.grid.norm(row) for row in y.values]
        assert norms[-1] < norms[0]

    def test_bad_initial_shape(self, prob):
        with pytest.raises(ValueError):
            solve_forward_semilinear(prob, np.zeros(3))


class TestCoupledSweeps:
    def test_linearized_coupled_converges(self, prob, rng):
        y0 = sine_data(prob, 0.05)
        sol = solve_linearized_coupled(prob, y0)
        assert np.all(np.isfinite(sol.y.values))
        assert sol.history[-1] <= 1e-10

    def test_adjoint_reduction_identity(self, prob, rng):
        # the reduced variable is rho = alpha1 psi1 + alpha2 psi2
        phiT = sine_data(prob, 1.0)[None]
        alphas = (1.3, 0.7)
        full = solve_adjoint_coupled(prob, phiT, alphas=alphas)
        red = solve_adjoint_coupled(prob, phiT, alphas=alphas, reduced=True)
        combo = alphas[0] * full.psi[:, 0, 0] + alphas[1] * full.psi[:, 0, 1]
        scale = np.max(np.abs(combo)) + 1e-30
        assert np.max(np.abs(red.psi[:, 0, 0] - combo)) / scale <= 1e-8

    def test_bad_input_shapes(self, prob_small):
        prob = prob_small
        row = sine_data(prob, 1.0)
        src = np.zeros((1, prob.mesh.M + 1, prob.grid.N + 1))
        for phiT, kw in ((row, {}), (row[None, :-1], {}),
                         (row[None], {"F1": src[0]}),
                         (row[None], {"Fsrc": src[:, :-1]}),
                         (np.vstack([row, row]), {"F2": src})):
            with pytest.raises(ValueError):
                solve_adjoint_coupled(prob, phiT, **kw)


class TestBlockedMarches:
    """Columns of one march equal one-column marches, bit for bit."""

    def test_forward_columns(self, prob, rng):
        ops = prob.ops_at_state(TrajectoryField.from_function(
            prob.grid, prob.mesh, lambda x, t: 0.2 * np.sin(np.pi * x) * (1 + t)))
        rows = rng.standard_normal((prob.mesh.M + 1, 5, prob.grid.N - 1))
        cols = [rows[:, j].copy() for j in range(5)]
        ops.march(rows)
        for j, col in enumerate(cols):
            ops.march(col)
            assert np.array_equal(rows[:, j], col)

    @pytest.mark.parametrize("start", ["free", "terminal"])
    def test_adjoint_columns(self, prob, rng, start):
        ops = prob.linearized_ops()
        M = prob.mesh.M
        m0 = M if start == "free" else M - 1
        rows = rng.standard_normal((M + 1, 4, prob.grid.N - 1))
        cols = [rows[:, j].copy() for j in range(4)]
        ops.march_adjoint(rows, m0)
        for j, col in enumerate(cols):
            ops.march_adjoint(col, m0)
            assert np.array_equal(rows[:, j], col)


def _block_case(prob, k):
    """k terminal rows scaled over 1e-6..1e2 and k source triples."""
    rng = np.random.default_rng(7)
    x = prob.grid.nodes
    scales = np.logspace(-6, 2, k)
    phiT = np.array([s * (np.sin(np.pi * x) + 0.4 * np.sin(3 * np.pi * x)
                          * rng.standard_normal()) for s in scales])
    shape = (3, k, prob.mesh.M + 1, prob.grid.N + 1)
    srcs = 1e-3 * scales[None, :, None, None] * rng.standard_normal(shape)
    return phiT, srcs


class TestBlockedAdjoint:
    """A block of rows solves like one-row blocks, column by column."""

    @pytest.mark.parametrize("reduced", [False, True])
    def test_block_matches_rows(self, prob_small, reduced):
        prob = prob_small
        k = 5
        phiT, srcs = _block_case(prob, k)
        kw = dict(mus=(2.0, 3.0), alphas=(1.3, 0.7), reduced=reduced)
        block = solve_adjoint_coupled(prob, phiT, Fsrc=srcs[0], F1=srcs[1],
                                      F2=srcs[2], **kw)
        sweeps = []
        for j in range(k):
            row = solve_adjoint_coupled(prob, phiT[j:j + 1],
                                        Fsrc=srcs[0, j:j + 1],
                                        F1=srcs[1, j:j + 1],
                                        F2=srcs[2, j:j + 1], **kw)
            # every column meets the absolute sweep tolerance of its row
            for got, want in ((block.phi, row.phi), (block.psi, row.psi)):
                assert np.max(np.abs(got[:, j] - want[:, 0])) <= 1e-10, j
            sweeps.append(len(row.history))
        # the rows alone converge at different sweeps; the block sweeps
        # until its slowest column has converged
        assert len(set(sweeps)) > 1
        assert len(block.history) == max(sweeps)

    def test_unconverged_column_raises(self, prob_small):
        phiT, srcs = _block_case(prob_small, 3)
        with pytest.raises(SweepFailureError) as err:
            solve_adjoint_coupled(prob_small, phiT, Fsrc=srcs[0], F1=srcs[1],
                                  F2=srcs[2], max_sweeps=1)
        assert len(err.value.history) == 1


class TestTwoFollowerReference:
    """The (phi, rho) sweep and one closing march of psi1 and psi2 solve
    the system that the two-follower reference sweep solves."""

    KW = dict(mus=(2.0, 3.0), alphas=(1.3, 0.7))

    def _case(self, prob):
        phiT, srcs = _block_case(prob, 5)
        return phiT, dict(Fsrc=srcs[0], F1=srcs[1], F2=srcs[2], **self.KW)

    def test_matches_reference(self, prob_small):
        prob = prob_small
        phiT, data = self._case(prob)
        block = solve_adjoint_coupled(prob, phiT, **data)
        phi, psi, _ = two_follower_sweep(prob, phiT, **data)
        assert np.max(np.abs(block.phi - phi)) <= 1e-10
        assert np.max(np.abs(block.psi - psi)) <= 1e-10
        w = CarlemanWeights(CarlemanParams(), prob.deg, prob.grid, prob.mesh)
        a1, a2 = self.KW["alphas"]

        def forms(phi, psi):  # Carleman (lhs, rhs), observability (lhs, rhs)
            rho = a1 * psi[:, :, 0] + a2 * psi[:, :, 1]
            return (carleman._carleman_forms(prob, w, phi, psi)[:2]
                    + carleman._observability_forms(prob, w, phi, rho))

        for got, want in zip(forms(block.phi, block.psi), forms(phi, psi)):
            assert rel_gap(got, want) <= 1e-9

    @pytest.mark.parametrize("reduced", [False, True])
    def test_march_widths(self, prob_small, monkeypatch, reduced):
        # each sweep marches k columns each way; the full form adds one
        # march of its 2k follower columns
        shapes = {"march": [], "march_adjoint": []}
        for name, seen in shapes.items():
            def recorded(ops, rows, *args, _march=getattr(LevelOps, name),
                         _seen=seen):
                _seen.append(rows.shape)
                return _march(ops, rows, *args)
            monkeypatch.setattr(LevelOps, name, recorded)
        prob = prob_small
        phiT, data = self._case(prob)
        block = solve_adjoint_coupled(prob, phiT, reduced=reduced, **data)
        k, sweeps = len(phiT), len(block.history)
        rows = (prob.mesh.M + 1, k, prob.grid.N - 1)
        assert shapes["march_adjoint"] == [rows] * sweeps
        closing = [] if reduced else [(rows[0], 2 * k, rows[2])]
        assert shapes["march"] == [rows] * sweeps + closing


class TestSuperposition:
    """The adjoint system is linear: a column with the data a u + b v
    equals a (column u) + b (column v), to the sweep tolerance."""

    @pytest.mark.parametrize("reduced", [False, True])
    def test_combined_column(self, prob_small, reduced):
        prob = prob_small
        rng = np.random.default_rng(3)
        x = prob.grid.nodes
        phiT = np.array([np.sin(np.pi * x) + 0.5 * np.sin(2 * np.pi * x),
                         np.sin(3 * np.pi * x) - 0.2 * np.sin(np.pi * x)])
        srcs = 0.3 * rng.standard_normal((3, 2, prob.mesh.M + 1,
                                          prob.grid.N + 1))
        a, b = 0.7, -1.9
        phiT = np.vstack([phiT, a * phiT[0] + b * phiT[1]])
        srcs = np.concatenate([srcs, a * srcs[:, :1] + b * srcs[:, 1:]],
                              axis=1)
        block = solve_adjoint_coupled(prob, phiT, Fsrc=srcs[0], F1=srcs[1],
                                      F2=srcs[2], mus=(2.0, 3.0),
                                      alphas=(1.3, 0.7), reduced=reduced)
        for u in (block.phi, block.psi):
            gap = u[:, 2] - (a * u[:, 0] + b * u[:, 1])
            assert np.max(np.abs(gap)) <= 1e-9 * np.max(np.abs(u))


def _nan_field(prob):
    """A zero field with one NaN value inside the cylinder."""
    f = prob.new_field()
    f.values[prob.mesh.M // 2, prob.grid.N // 2] = np.nan
    return f


class TestNonFiniteSweep:
    """A NaN source ends a coupled sweep at once with SweepFailureError."""

    @pytest.mark.parametrize("reduced", [False, True])
    def test_adjoint(self, prob_small, reduced):
        with pytest.raises(SweepFailureError) as err:
            solve_adjoint_coupled(prob_small, sine_data(prob_small, 1.0)[None],
                                  F1=_nan_field(prob_small).values[None],
                                  reduced=reduced)
        assert len(err.value.history) == 1
        assert np.isnan(err.value.history[0])

    def test_silent_follower(self, prob_small):
        # with alpha2 = 0, phi and rho do not see F2, so its NaN shows
        # only in the closing march of psi1 and psi2
        phiT = sine_data(prob_small, 1.0)[None]
        kw = dict(F2=_nan_field(prob_small).values[None], alphas=(1.0, 0.0))
        red = solve_adjoint_coupled(prob_small, phiT, reduced=True, **kw)
        assert np.all(np.isfinite(red.phi)) and np.all(np.isfinite(red.psi))
        with pytest.raises(SweepFailureError) as err:
            solve_adjoint_coupled(prob_small, phiT, **kw)
        history = err.value.history
        assert np.isnan(history[-1])
        assert history[:-1] == red.history

    @pytest.mark.parametrize("reduced", [False, True])
    def test_initial_level(self, prob_small, reduced):
        # phi^0 feeds no follower source, so a NaN source on level 0 shows
        # in no update, only in the check of phi^0
        phiT = sine_data(prob_small, 1.0)[None]
        Fsrc = np.zeros((1, prob_small.mesh.M + 1, prob_small.grid.N + 1))
        Fsrc[0, 0, prob_small.grid.N // 2] = np.nan
        with pytest.raises(SweepFailureError) as err:
            solve_adjoint_coupled(prob_small, phiT, Fsrc=Fsrc,
                                  reduced=reduced)
        history = err.value.history
        assert np.isnan(history[-1]) and np.all(np.isfinite(history[:-1]))

    def test_linearized(self, prob_small):
        with pytest.raises(SweepFailureError) as err:
            solve_linearized_coupled(prob_small, sine_data(prob_small, 0.1),
                                     H1=_nan_field(prob_small))
        assert len(err.value.history) == 1
        assert np.isnan(err.value.history[0])


class TestEnergy:
    def test_diagnostics_finite(self, prob):
        y = solve_forward_semilinear(prob, sine_data(prob, 0.1))
        rep = energy_diagnostics(prob, {"y": y})
        assert np.isfinite(rep.sup_l2["y"])
        assert np.isfinite(rep.grad_energy["y"])
        assert rep.total("y") > 0

    def test_sup_matches_norm(self, prob):
        y = solve_forward_semilinear(prob, sine_data(prob, 0.1))
        rep = energy_diagnostics(prob, {"y": y})
        sup = max(prob.grid.norm(row) for row in y.values)
        assert rep.sup_l2["y"] == pytest.approx(sup)
