"""Forward/backward kernels, discrete duality and coupled sweeps."""

import json

import numpy as np
import pytest
from scipy.linalg import lapack

from degcontrol import carleman, cli, harness, solvers
from degcontrol.grids import TrajectoryField
from degcontrol.harness import build_run
from degcontrol.nash import GameSpec
from degcontrol.semilinear import SemilinearF
from degcontrol.solvers import (
    CylinderProblem,
    LevelOps,
    StepFailureError,
    SweepFailureError,
    energy_diagnostics,
    follower_adjoints,
    solve_adjoint_coupled,
    solve_backward_linear,
    solve_forward_linear,
    solve_forward_semilinear,
    solve_linearized_coupled,
)

from adjoint_reference import two_follower_sweep
from conftest import (UNIT_GAME, build, cubic_F, rel_gap, sampler_inputs,
                      sine_data, with_F)
from semilinear_reference import PicardFailure, picard_march, sparse_residual


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


class TestProblem:
    def test_window_without_a_node_rejected(self):
        # at gamma 60 every interior node of the 8-cell grid lies below
        # 0.3; a nash run reads O1
        with pytest.raises(ValueError, match=r"window O1=\(0.55, 0.7\) "
                           r"holds no interior node"):
            build_run({"grid": {"N": 8, "M": 8, "gamma": 60.0},
                       "experiment": {"kind": "nash"}})


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


def _counted(monkeypatch, owner, name) -> list:
    """Replaces owner.name by a wrapper that appends to the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestSemilinearNewton:
    """The state march solves the whole trajectory by Newton's method."""

    def test_residual_at_roundoff(self, prob_small):
        prob = prob_small
        src = np.outer(np.sin(3.0 * prob.mesh.times),
                       np.ones(prob.grid.N - 1))
        y0 = sine_data(prob, 0.5)
        y = solve_forward_semilinear(prob, y0, source=src)
        newton = np.max(np.abs(sparse_residual(prob, y.values, src)))
        picard = np.max(np.abs(sparse_residual(
            prob, picard_march(prob, y0, src), src)))
        assert newton <= 1e-13
        assert 100.0 * newton <= picard

    def test_linear_problem_takes_one_march(self, prob_linear, rng,
                                            monkeypatch):
        prob = prob_linear
        src = rng.standard_normal((prob.mesh.M + 1, prob.grid.N - 1))
        y0 = sine_data(prob, 0.1)
        marches = _counted(monkeypatch, LevelOps, "march")
        y = solve_forward_semilinear(prob, y0, source=src)
        assert len(marches) == 1
        ref = solve_forward_linear(prob.linearized_ops(), y0, src)
        assert np.max(np.abs(y.values - ref.values)) <= 1e-14

    @pytest.mark.parametrize("F, amplitude, searches", [
        (SemilinearF.sinusoidal(50.0, 50.0), 1.75, True),
        (cubic_F(), 5.0, False),
    ])
    def test_converges_where_picard_fails(self, F, amplitude, searches,
                                          monkeypatch):
        # in both, the per-step Picard iteration does not converge at
        # step 1; the stiff reaction also takes some Newton steps only up
        # to a front, or halves them
        prob = with_F(build(16, 32)[0], F)
        y0 = sine_data(prob, amplitude)
        src = np.zeros((prob.mesh.M + 1, prob.grid.N - 1))
        with pytest.raises(PicardFailure, match="step 1:"):
            picard_march(prob, y0, src)
        steps = _counted(monkeypatch, CylinderProblem, "ops_at_state")
        residuals = _counted(monkeypatch, solvers, "_semilinear_residual")
        y = solve_forward_semilinear(prob, y0)
        assert np.max(np.abs(sparse_residual(prob, y.values, src))) <= 1e-13
        # one residual per step and the initial one, plus the restarts
        # and halvings
        assert (len(residuals) > len(steps) + 1) == searches

    def test_stiff_case_picard_solves_is_well_inside_the_budget(
            self, monkeypatch):
        # kappa = 60 at (64,128) (dt kappa = 0.47), where the per-step
        # Picard iteration still converges; the first linearization, at
        # y0 on every level, grows like e^{kappa t} through the march
        prob = build(64, 128, nonlinearity={"kappa1": 60.0, "kappa2": 60.0})[0]
        y0 = sine_data(prob, 10.0)
        src = np.zeros((prob.mesh.M + 1, prob.grid.N - 1))
        picard = picard_march(prob, y0, src)
        steps = _counted(monkeypatch, CylinderProblem, "ops_at_state")
        y = solve_forward_semilinear(prob, y0)
        assert np.max(np.abs(sparse_residual(prob, y.values, src))) <= 1e-12
        assert rel_gap(y.values, picard) <= 1e-8
        assert 4 * len(steps) <= solvers._MAX_STEPS

    def test_no_step_that_raises_the_first_level_is_taken(self):
        # dt kappa = 1.9: the first level's Jacobian block is nearly
        # singular, and no step down to the smallest lowers its residual
        prob = build(16, 32, nonlinearity={"kappa1": 60.0, "kappa2": 60.0})[0]
        with pytest.raises(StepFailureError) as err:
            solve_forward_semilinear(prob, sine_data(prob, 3.0))
        assert err.value.time_index == 1
        assert np.isfinite(err.value.residual)

    def test_nonlinearity_returning_its_argument(self):
        # F(u, w) = u hands back the trajectory's own rows; the residual
        # must not write into them
        zero = SemilinearF.sinusoidal(0.0, 0.0).D12
        F = SemilinearF(F=lambda u, w: u, D1=lambda u, w: np.ones_like(u),
                        D2=zero, D11=zero, D12=zero, D21=zero, D22=zero)
        prob = with_F(build(16, 32)[0], F)
        y0 = sine_data(prob, 0.5)
        y = solve_forward_semilinear(prob, y0)
        shape = (prob.mesh.M + 1, prob.grid.N - 1)
        ref = solve_forward_linear(prob.linearized_ops(), y0, np.zeros(shape))
        assert rel_gap(y.values, ref.values) <= 1e-13

    def test_nonfinite_data_fails_before_any_march(self, prob_small,
                                                   monkeypatch):
        prob = prob_small
        marches = _counted(monkeypatch, LevelOps, "march")
        y0 = sine_data(prob, 0.1)
        y0[5] = np.nan
        with pytest.raises(StepFailureError) as err:
            solve_forward_semilinear(prob, y0)
        assert err.value.time_index == 1
        src = np.zeros((prob.mesh.M + 1, prob.grid.N - 1))
        src[7, 3] = np.inf
        with pytest.raises(StepFailureError) as err:
            solve_forward_semilinear(prob, sine_data(prob, 0.1), source=src)
        assert err.value.time_index == 7
        assert marches == []


def couplings(prob, jacobian_weighting=True):
    """The couplings of a game with distinct weights and penalties;
    without the Jacobian factor they vary in time, as wt = l(t)."""
    game = GameSpec(alpha1=1.3, alpha2=0.7, mu1=2.0, mu2=3.0,
                    jacobian_weighting=jacobian_weighting)
    return game.couplings(prob)


class TestCoupledSweeps:
    def test_linearized_coupled_converges(self, prob, rng):
        y0 = sine_data(prob, 0.05)
        sol = solve_linearized_coupled(prob, y0, UNIT_GAME.couplings(prob))
        assert np.all(np.isfinite(sol.y.values))
        assert sol.history[-1] <= 1e-10

    def test_bad_input_shapes(self, prob_small):
        prob = prob_small
        row = sine_data(prob, 1.0)
        src = np.zeros((1, prob.mesh.M + 1, prob.grid.N + 1))
        for phiT, kw in ((row, {}), (row[None, :-1], {}),
                         (row[None], {"F1": src[0]}),
                         (row[None], {"Fsrc": src[:, :-1]}),
                         (np.vstack([row, row]), {"F2": src})):
            with pytest.raises(ValueError):
                solve_adjoint_coupled(prob, phiT, couplings(prob), **kw)


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


    def test_adjoint_scales_once(self, rng, monkeypatch):
        # the march runs on W p: one scaling and one unscaling per call,
        # the terminal row untouched, and the columns within roundoff of
        # a march that scales and unscales every level
        prob = build(16, 16)[0]
        ops = prob.ops_at_state(TrajectoryField.from_function(
            prob.grid, prob.mesh, lambda x, t: 0.2 * np.sin(np.pi * x) * (1 + t)))
        M, wv = prob.mesh.M, prob.grid.interior_volumes
        rows = rng.standard_normal((M + 1, 3, prob.grid.N - 1))
        want, terminal = rows.copy(), rows[M].copy()
        calls = {"multiply": 0, "divide": 0}

        class CountingNumpy:
            def __getattr__(self, name):
                fn = getattr(np, name)
                if name not in calls:
                    return fn

                def counted(*args, **kwargs):
                    calls[name] += 1
                    return fn(*args, **kwargs)
                return counted

        with monkeypatch.context() as m:
            m.setattr(solvers, "np", CountingNumpy())
            ops.march_adjoint(rows, M - 1)
        assert calls == {"multiply": 1, "divide": 1}
        assert np.array_equal(rows[M], terminal)
        for m in range(M - 1, -1, -1):
            b = want[m]
            np.add(b, want[m + 1], out=b)
            np.multiply(wv, b, out=b)
            lapack.dgttrs(*ops._factors[m], b.T, trans="T", overwrite_b=1)
            np.divide(b, wv, out=b)
        for j in range(3):
            assert rel_gap(rows[:, j], want[:, j]) <= 1e-15


def _level_factors(ops):
    """One dgttrf call per level of I + dt L_n."""
    dt = ops.prob.mesh.dt
    out = []
    for lo, d, up in ops.bands:
        *factors, info = lapack.dgttrf(dt * lo[1:], 1.0 + dt * d, dt * up[:-1])
        assert info == 0
        out.append(factors)
    return out


class TestStackedFactor:
    """One dgttrf on the stacked levels gives each level's own factors."""

    @staticmethod
    def _check(ops, rng):
        ref = _level_factors(ops)
        assert len(ops._factors) == len(ref)
        for got, want in zip(ops._factors, ref):
            assert len(got) == len(want) == 5
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        rows = rng.standard_normal((len(ref), 3, ops.bands.shape[-1]))
        want = rows.copy()
        ops.march(rows)
        for m in range(1, len(want)):
            b = want[m]
            np.add(want[m - 1], b, out=b)
            lapack.dgttrs(*ref[m], b.T, overwrite_b=1)
        assert np.array_equal(rows, want)
        return ref

    def test_random_bands_with_row_interchanges(self, rng):
        prob = build(16, 16)[0]
        bands = 40.0 * rng.standard_normal(prob.base_bands.shape)
        bands[:, 0, 0] = bands[:, 2, -1] = 0.0
        ref = self._check(LevelOps(prob, bands), rng)
        n = bands.shape[-1]
        # every level pivots, so the slices must carry level-local pivots
        assert all(np.any(f[4] != np.arange(1, n + 1)) for f in ref)

    def test_linearized_ops(self, rng):
        self._check(build(32, 64)[0].linearized_ops(), rng)

    @pytest.mark.parametrize("level", [0, 5, 16])
    def test_singular_level_is_named(self, level):
        prob = build(16, 16)[0]
        bands = prob.base_bands.copy()
        bands[level, :, 3] = bands[level, 0, 4] = bands[level, 2, 2] = 0.0
        bands[level, 1, 3] = -1.0 / prob.mesh.dt  # row and column 3 vanish
        assert 1.0 + prob.mesh.dt * bands[level, 1, 3] == 0.0
        with pytest.raises(RuntimeError,
                           match=rf"^level {level}: I \+ dt L_n is singular"):
            LevelOps(prob, bands)._factors

    def test_transposed_bands_factor_nothing(self, prob_small):
        y = TrajectoryField.from_function(
            prob_small.grid, prob_small.mesh,
            lambda x, t: 0.2 * np.sin(np.pi * x) * (1 + t))
        ops = prob_small.ops_at_state(y)
        ops.bands_t
        assert "_factors" not in ops.__dict__


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

    @pytest.mark.parametrize("jacobian_weighting", [False, True])
    def test_block_matches_rows(self, prob_small, jacobian_weighting):
        prob = prob_small
        k = 5
        phiT, srcs = _block_case(prob, k)
        c = couplings(prob, jacobian_weighting)
        block = solve_adjoint_coupled(prob, phiT, c, Fsrc=srcs[0],
                                      F1=srcs[1], F2=srcs[2])
        sweeps = []
        for j in range(k):
            row = solve_adjoint_coupled(prob, phiT[j:j + 1], c,
                                        Fsrc=srcs[0, j:j + 1],
                                        F1=srcs[1, j:j + 1],
                                        F2=srcs[2, j:j + 1])
            # every column meets the absolute sweep tolerance of its row
            for got, want in ((block.phi, row.phi), (block.psi, row.psi)):
                assert np.max(np.abs(got[:, j] - want[:, 0])) <= 1e-10, j
            sweeps.append(len(row.history))
        # the rows alone converge at different sweeps; the block sweeps
        # until its slowest column has converged
        assert len(set(sweeps)) > 1
        assert len(block.history) == max(sweeps)

    def test_unconverged_column_raises(self, prob_small, monkeypatch):
        phiT, srcs = _block_case(prob_small, 3)
        monkeypatch.setattr(solvers, "_MAX_SWEEPS", 1)
        with pytest.raises(SweepFailureError) as err:
            solve_adjoint_coupled(prob_small, phiT, couplings(prob_small),
                                  Fsrc=srcs[0], F1=srcs[1], F2=srcs[2])
        assert len(err.value.history) == 1


class TestTwoFollowerReference:
    """The (phi, rho) sweep and one closing march of psi1 and psi2 solve
    the system that the two-follower reference sweep solves, here with
    the time-varying couplings of wt = l(t)."""

    def _case(self, prob):
        phiT, srcs = _block_case(prob, 5)
        return phiT, dict(Fsrc=srcs[0], F1=srcs[1], F2=srcs[2])

    def test_matches_reference(self):
        prob, w, _ = build(32, 48)
        phiT, data = self._case(prob)
        c = couplings(prob, jacobian_weighting=False)
        block = solve_adjoint_coupled(prob, phiT, c, **data)
        phi, psi, _ = two_follower_sweep(prob, phiT, c.control, c.tracking,
                                         **data)
        assert np.max(np.abs(block.phi - phi)) <= 1e-10
        assert np.max(np.abs(block.psi - psi)) <= 1e-10
        a1, a2 = c.alphas
        _, roots = sampler_inputs(prob, w, c)

        def forms(phi, psi):  # Carleman (lhs, rhs), observability (lhs, rhs)
            rho = a1 * psi[:, :, 0] + a2 * psi[:, :, 1]
            return (carleman._carleman_forms(prob, phi, psi, roots)[:2]
                    + carleman._observability_forms(prob, phi, rho, roots))

        for got, want in zip(forms(block.phi, block.psi), forms(phi, psi)):
            assert rel_gap(got, want) <= 1e-9

    @pytest.mark.parametrize("jacobian_weighting", [False, True])
    def test_march_widths(self, prob_small, monkeypatch, jacobian_weighting):
        # each sweep marches k columns each way, and one closing march
        # takes the 2k follower columns
        shapes = {"march": [], "march_adjoint": []}
        for name, seen in shapes.items():
            def recorded(ops, rows, *args, _march=getattr(LevelOps, name),
                         _seen=seen):
                _seen.append(rows.shape)
                return _march(ops, rows, *args)
            monkeypatch.setattr(LevelOps, name, recorded)
        prob = prob_small
        phiT, data = self._case(prob)
        block = solve_adjoint_coupled(
            prob, phiT, couplings(prob, jacobian_weighting), **data)
        k, sweeps = len(phiT), len(block.history)
        rows = (prob.mesh.M + 1, k, prob.grid.N - 1)
        assert shapes["march_adjoint"] == [rows] * sweeps
        assert shapes["march"] == ([rows] * sweeps
                                   + [(rows[0], 2 * k, rows[2])])


class TestSuperposition:
    """The adjoint system is linear: a column with the data a u + b v
    equals a (column u) + b (column v), to the sweep tolerance."""

    @pytest.mark.parametrize("jacobian_weighting", [False, True])
    def test_combined_column(self, prob_small, jacobian_weighting):
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
        block = solve_adjoint_coupled(prob, phiT,
                                      couplings(prob, jacobian_weighting),
                                      Fsrc=srcs[0], F1=srcs[1], F2=srcs[2])
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

    @pytest.mark.parametrize("jacobian_weighting", [False, True])
    def test_adjoint(self, prob_small, jacobian_weighting):
        with pytest.raises(SweepFailureError) as err:
            solve_adjoint_coupled(prob_small, sine_data(prob_small, 1.0)[None],
                                  couplings(prob_small, jacobian_weighting),
                                  F1=_nan_field(prob_small).values[None])
        assert len(err.value.history) == 1
        assert np.isnan(err.value.history[0])

    def test_silent_follower(self, prob_small):
        # a follower source that the sweep of phi and rho does not see (as
        # `adjoint_basis` feeds rho its own source) shows its NaN only in
        # the closing march of psi1 and psi2
        c = UNIT_GAME.couplings(prob_small)
        phi = np.zeros((prob_small.mesh.M + 1, 1, prob_small.grid.N - 1))
        phi[-1] = sine_data(prob_small, 1.0)[1:-1]
        clean = solvers.sweep_adjoint(prob_small, phi, c)
        f2 = (slice(0, 1), _nan_field(prob_small).values[:, None, 1:-1])
        with pytest.raises(SweepFailureError) as err:
            solvers.march_followers(prob_small, phi, c, list(clean), f2=f2)
        history = err.value.history
        assert np.isnan(history[-1])
        assert history[:-1] == clean and np.all(np.isfinite(clean))

    @pytest.mark.parametrize("jacobian_weighting", [False, True])
    def test_initial_level(self, prob_small, jacobian_weighting):
        # phi^0 feeds no follower source, so a NaN source on level 0 shows
        # in no update, only in the check of phi^0
        phiT = sine_data(prob_small, 1.0)[None]
        Fsrc = np.zeros((1, prob_small.mesh.M + 1, prob_small.grid.N + 1))
        Fsrc[0, 0, prob_small.grid.N // 2] = np.nan
        with pytest.raises(SweepFailureError) as err:
            solve_adjoint_coupled(prob_small, phiT,
                                  couplings(prob_small, jacobian_weighting),
                                  Fsrc=Fsrc)
        history = err.value.history
        assert np.isnan(history[-1]) and np.all(np.isfinite(history[:-1]))

    def test_linearized(self, prob_small):
        with pytest.raises(SweepFailureError) as err:
            solve_linearized_coupled(prob_small, sine_data(prob_small, 0.1),
                                     UNIT_GAME.couplings(prob_small),
                                     H1=_nan_field(prob_small))
        assert len(err.value.history) == 1
        assert np.isnan(err.value.history[0])


def _observability(mu) -> dict:
    return {"grid": {"N": 32, "M": 64}, "game": {"mu1": mu, "mu2": mu},
            "experiment": {"kind": "observability"}}


class TestSweepStop:
    """Every Picard sweep stops on the one rule: an update of at most
    _SWEEP_TOL, no net contraction over three sweeps, or the one budget
    of _MAX_SWEEPS sweeps."""

    def test_diverging_adjoint_sweep_ends_early(self, tmp_path):
        # at mu = 1e-3 on (32,64) the adjoint sweep's updates grow from
        # the second sweep on, so it stops at sweep 4 rather than run to
        # the budget, where 200 sweeps reach an update near 1e52
        with pytest.raises(SweepFailureError) as err:
            harness.run_scenario(_observability(1e-3), tmp_path, seed=0)
        history = err.value.history
        assert len(history) == 4
        assert np.all(np.isfinite(history))
        assert history[-1] >= history[-4]

    def test_stalled_linearized_sweep_ends_early(self, prob_small,
                                                 monkeypatch):
        # updates of 1, 0.5, 2 and 1 stop the sweep at the fourth, as in
        # the Nash loop
        deltas = iter([1.0, 0.5, 2.0, 1.0, 1e-12])
        p = np.zeros((2, prob_small.mesh.M + 1, prob_small.grid.N + 1))

        def adjoints(ops, sources):
            p[:] += next(deltas)
            return p.copy()

        monkeypatch.setattr(solvers, "follower_adjoints", adjoints)
        with pytest.raises(SweepFailureError) as err:
            solve_linearized_coupled(prob_small, sine_data(prob_small, 0.1),
                                     UNIT_GAME.couplings(prob_small))
        assert err.value.history == [1.0, 0.5, 2.0, 1.0]

    def test_slow_adjoint_sweep_converges_within_budget(self, tmp_path):
        # at mu = 0.002 on (32,64) the adjoint sweep contracts slowly and
        # converges after more than 200 sweeps, within the one budget
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_observability(0.002)))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_OK


class TestFollowerAdjoints:
    def test_equal_one_column_marches(self, prob, game):
        # at a state with F != 0 the operators vary from level to level
        y = solve_forward_semilinear(prob, sine_data(prob, 0.5))
        ops = prob.ops_at_state(y)
        tracking = game.couplings(prob).tracking
        sources = np.stack([tracking[i] * (y.values - t.values)
                            for i, t in enumerate(game.targets(prob))])
        p = follower_adjoints(ops, sources)
        assert np.any(p != 0.0)
        for i in (0, 1):
            ref = solve_backward_linear(ops, sources[i][:, 1:-1])
            assert np.array_equal(p[i], ref.values)


class TestEnergy:
    def test_diagnostics_finite(self, prob):
        y = solve_forward_semilinear(prob, sine_data(prob, 0.1))
        sup_l2, grad_energy = energy_diagnostics(prob, y)
        assert np.isfinite(sup_l2)
        assert np.isfinite(grad_energy)
        assert grad_energy > 0

    def test_sup_matches_norm(self, prob):
        y = solve_forward_semilinear(prob, sine_data(prob, 0.1))
        sup_l2, _ = energy_diagnostics(prob, y)
        sup = max(prob.grid.norm(row) for row in y.values)
        assert sup_l2 == pytest.approx(sup)
