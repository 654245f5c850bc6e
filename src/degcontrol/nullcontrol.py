"""Leader null control: weighted variational (HUM) solve and Newton loop.

The linearized optimality system is controlled by minimizing

    (1/2) b((phi,psi1,psi2),(phi,psi1,psi2)) - <l, (phi,psi1,psi2)>

over discrete adjoint trajectories, with

    b = int rho0^-2 |L* phi - a1 psi1 1_Od - a2 psi2 1_Od|^2
      + sum_i int rho0^-2 |L psi_i + phi/mu_i 1_Oi|^2
      + int_O rho1^-2 |phi|^2,
    l = <y0, phi(0+)> + int H phi + sum_i int H_i psi_i.

The minimizer is found by assembling the (sparse, SPD) normal operator
over the 3*M*(N-1) space-time unknowns, built from the CSR views of the
banded level operators; a shifted sparse LU factorization, corrected by
iterative refinement with extended-precision residuals, solves it to
near roundoff.  The controlled triple is read off the minimizer as

    y = rho0^-2 (L* phi - a1 psi1 1_Od - a2 psi2 1_Od),
    p_i = rho0^-2 (L psi_i + phi/mu_i 1_Oi),    h = -rho1^-2 phi 1_O,

and, by stationarity, satisfies the discrete linearized system exactly
(the transposition argument made computational).  The rho tables are the
normalized, capped ones from the carleman module; all fitted constants
absorb the normalization.

The semilinear problem is solved by the Liusternik/Newton iteration
z_{k+1} = W(b - N(z_k)) with W the linear control solve (the right
inverse of the map linearized at zero) and N the nonlinear remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .carleman import CarlemanWeights
from .grids import TrajectoryField
from .nash import GameSpec, _dL_transpose_apply
from .operators import band_apply
from .solvers import CylinderProblem, _interior, solve_backward_linear, solve_forward_linear

__all__ = [
    "LinearControlProblem",
    "ControlledTriple",
    "YSpaceNorm",
    "HUMSolver",
    "CGStagnationError",
    "NewtonFailureError",
    "h1a_norm",
    "solve_linear_null_control",
    "verify_additional_estimates",
    "AResiduals",
    "assemble_A_map",
    "apply_A_derivative",
    "solve_nonlinear_null_control",
]


class CGStagnationError(RuntimeError):
    """The Lax-Milgram solve failed to reach the requested residual."""

    def __init__(self, rel_residual: float, iterations: int):
        super().__init__(
            f"variational solve stalled: relative residual {rel_residual:.3e} "
            f"after {iterations} iterations")
        self.rel_residual = rel_residual
        self.iterations = iterations


class NewtonFailureError(RuntimeError):
    """Newton loop diverged or stagnated; data likely outside the local radius."""

    def __init__(self, history: list):
        super().__init__(
            "Newton iteration did not converge "
            f"(last residual {history[-1]['remainder_delta']:.3e}); "
            "try smaller initial data")
        self.history = history


def h1a_norm(grid, deg, row: np.ndarray) -> float:
    """Discrete H^1_a norm: (|u|^2 + |sqrt(a) u_x|^2)^(1/2), face-centered a."""
    row = np.asarray(row, dtype=float)
    a_face = deg.a(grid.faces)
    h = grid.spacings
    grad = np.diff(row) / h
    return float(np.sqrt(grid.inner(row, row) + np.sum(a_face * grad**2 * h)))


@dataclass
class LinearControlProblem:
    """Data of one Theorem-4 style linear control solve."""

    prob: CylinderProblem
    weights: CarlemanWeights
    game: GameSpec
    y0: np.ndarray
    H: TrajectoryField | None = None
    H1: TrajectoryField | None = None
    H2: TrajectoryField | None = None

    def kappa0(self) -> float:
        """|rho2 H|^2 + |rho2 H1|^2 + |rho2 H2|^2 + |y0|^2 (normalized rho2)."""
        total = self.prob.grid.inner(self.y0, self.y0)
        r2 = self.weights.rho2_n
        for f in (self.H, self.H1, self.H2):
            if f is not None:
                total += _weighted_l2q(self.prob, r2**2, f.values)
        return float(total)

    def kappa1(self) -> float:
        """kappa0 with the initial trace measured in H^1_a instead of L^2."""
        return (self.kappa0() - self.prob.grid.inner(self.y0, self.y0)
                + h1a_norm(self.prob.grid, self.prob.deg, self.y0) ** 2)


def _weighted_l2q(prob: CylinderProblem, tfactor: np.ndarray,
                  vals: np.ndarray) -> float:
    """sum_{n>=1} dt tfactor_n sum_j w_j vals_nj^2."""
    w = prob.grid.cell_volumes
    return float(prob.mesh.dt * np.einsum("n,j,nj->", tfactor[1:], w,
                                          vals[1:] ** 2))


@dataclass
class YSpaceNorm:
    """The six summands of the Y-norm of a state (y, p1, p2, h)."""

    rho0_y: float
    rho0_p: float
    rho1_h: float
    rho2_H: float
    rho2_Hi: float
    h1a_trace: float

    def total(self) -> float:
        return (self.rho0_y + self.rho0_p + self.rho1_h
                + self.rho2_H + self.rho2_Hi + self.h1a_trace)

    def all_finite(self) -> bool:
        return all(np.isfinite(v) for v in
                   (self.rho0_y, self.rho0_p, self.rho1_h,
                    self.rho2_H, self.rho2_Hi, self.h1a_trace))


@dataclass
class ControlledTriple:
    """Output of a linear null-control solve."""

    h: TrajectoryField
    y: TrajectoryField
    p1: TrajectoryField
    p2: TrajectoryField
    weighted_norms: dict
    kappa0: float
    budget_constant: float
    terminal_norm: float
    residuals: dict
    cg_info: dict
    budget_exceeded: bool = False


class HUMSolver:
    """Assembles and factorizes the variational operator once; solves many.

    The operator is built from the system linearized at zero, so the
    frozen-at-zero Newton loop reuses a single factorization.
    """

    def __init__(self, prob: CylinderProblem, weights: CarlemanWeights,
                 game: GameSpec, residual_limit: float = 1e-6):
        self.prob = prob
        self.weights = weights
        self.game = game
        self.residual_limit = residual_limit
        ops = prob.linearized_ops()
        self.ops = ops
        M, n = prob.mesh.M, prob.grid.N - 1
        dt = prob.mesh.dt
        eye = sp.identity(n, format="csr")
        shift_up = sp.kron(sp.diags([np.ones(M - 1)], [1], (M, M)), eye)
        shift_dn = sp.kron(sp.diags([np.ones(M - 1)], [-1], (M, M)), eye)
        # phi carries a free terminal datum phi^{M+1}: its stationarity
        # condition reads w . y^M = 0, i.e. exact discrete null control,
        # rather than relying on the capped weight to crush y(T)
        term_col = sp.kron(
            sp.csr_matrix((np.ones(1), (np.array([M - 1]), np.array([0]))),
                          shape=(M, 1)), -eye / dt)
        self.Lstar = sp.hstack(
            [(sp.block_diag([eye / dt + ops.mats_t[m]
                             for m in range(1, M + 1)])
              - shift_up / dt), term_col]).tocsr()
        self.Lfwd = (sp.block_diag([eye / dt + ops.mats[m]
                                    for m in range(1, M + 1)])
                     - shift_dn / dt).tocsr()
        wt = game.time_weight(prob)[1:]
        ind_d = prob.indicator_interior("Od")
        ind_o = prob.indicator_interior("O")
        ind_i = [prob.indicator_interior("O1"), prob.indicator_interior("O2")]
        self.D_od = sp.diags(np.outer(wt, ind_d).ravel())
        self.D_o = sp.diags(np.tile(ind_o, M))
        self.D_oi = [sp.diags(np.tile(ind_i[i], M)) for i in (0, 1)]
        wv = prob.grid.interior_volumes
        self.rho0_inv2 = weights.rho0_n ** (-2.0)
        self.rho1_inv2 = weights.rho1_n ** (-2.0)
        W0 = sp.diags(dt * np.outer(self.rho0_inv2[1:], wv).ravel())
        W1 = sp.diags(dt * np.outer(self.rho1_inv2[1:], wv).ravel())
        size = M * n
        Z = sp.csr_matrix((size, size))
        Zt = sp.csr_matrix((size, n))  # phi^{M+1} couples only through L*
        a1, a2 = game.alphas
        m1, m2 = game.mus
        self.G0 = sp.hstack([self.Lstar, -a1 * self.D_od, -a2 * self.D_od]).tocsr()
        self.G1 = sp.hstack([self.D_oi[0] / m1, Zt, self.Lfwd, Z]).tocsr()
        self.G2 = sp.hstack([self.D_oi[1] / m2, Zt, Z, self.Lfwd]).tocsr()
        self.E = sp.hstack([self.D_o, Zt, Z, Z]).tocsr()
        B = (self.G0.T @ W0 @ self.G0 + self.G1.T @ W0 @ self.G1
             + self.G2.T @ W0 @ self.G2 + self.E.T @ W1 @ self.E)
        self.B = B.tocsc()
        # symmetric Jacobi scaling: the raw operator mixes rho scales over
        # ten decades, which defeats plain splu in double precision
        self.scale = np.sqrt(self.B.diagonal())
        Dinv = sp.diags(1.0 / self.scale)
        self.Bs = (Dinv @ self.B @ Dinv).tocsc()
        # the normal operator inherits the exponentially weak observability
        # of the continuous problem; factor a shifted copy and correct by
        # iterative refinement against the true matrix (the load is in the
        # numerical range, so the refinement converges there)
        self.shift = 1e-12
        self.lu = spla.splu(
            (self.Bs + self.shift * sp.identity(self.Bs.shape[0])).tocsc())
        # extended-precision copy for refinement residuals
        self._Bld = self.Bs.astype(np.longdouble)
        self._W0, self._W1 = W0, W1
        self._size, self._n, self._M = size, n, M

    def _rhs(self, y0: np.ndarray, H, H1, H2) -> np.ndarray:
        prob = self.prob
        M, n = self._M, self._n
        dt = prob.mesh.dt
        wv = prob.grid.interior_volumes
        off = (M + 1) * n  # phi block includes the free terminal datum
        f = np.zeros(off + 2 * M * n)
        fp = f[:M * n].reshape(M, n)
        if H is not None:
            fp += dt * wv[None, :] * _interior(H.values)[1:]
        fp[0] += wv * _interior(np.asarray(y0, dtype=float))
        for k, Hi in enumerate((H1, H2)):
            if Hi is not None:
                f[off + k * M * n:off + (k + 1) * M * n] += (
                    dt * wv[None, :] * _interior(Hi.values)[1:]).ravel()
        return f

    def solve(self, y0: np.ndarray, H=None, H1=None, H2=None,
              budget_limit: float = float("inf")) -> ControlledTriple:
        prob = self.prob
        M, n = self._M, self._n
        f = self._rhs(y0, H, H1, H2)
        fs = f / self.scale
        fnorm = np.linalg.norm(fs)
        if fnorm == 0.0:
            z = np.zeros_like(f)
            rel_res = 0.0
        else:
            # shifted LU corrected by refinement with extended-precision
            # residuals; the best iterate is kept
            fld = fs.astype(np.longdouble)
            zl = self.lu.solve(fs).astype(np.longdouble)
            best = zl.astype(float)
            best_res = np.linalg.norm((fld - self._Bld @ zl).astype(float))
            for _ in range(10):
                zl = zl + self.lu.solve((fld - self._Bld @ zl).astype(float))
                r = np.linalg.norm((fld - self._Bld @ zl).astype(float))
                if r < best_res:
                    best, best_res = zl.astype(float), r
            rel_res = float(best_res / fnorm)
            if rel_res > self.residual_limit:
                raise CGStagnationError(rel_res, 0)
            z = best / self.scale
        return self._reconstruct(z, y0, H, H1, H2, rel_res, budget_limit)

    def _reconstruct(self, z, y0, H, H1, H2, rel_res,
                     budget_limit) -> ControlledTriple:
        prob = self.prob
        M, n = self._M, self._n
        grid, mesh = prob.grid, prob.mesh

        def to_field(rows_1M: np.ndarray) -> TrajectoryField:
            fld = prob.new_field()
            fld.values[1:, 1:-1] = rows_1M
            return fld

        r0 = self.rho0_inv2[1:, None]
        y = to_field(r0 * (self.G0 @ z).reshape(M, n))
        p1 = to_field(r0 * (self.G1 @ z).reshape(M, n))
        p2 = to_field(r0 * (self.G2 @ z).reshape(M, n))
        h = to_field(-self.rho1_inv2[1:, None] * (self.E @ z).reshape(M, n))
        y.values[0] = np.asarray(y0, dtype=float)
        y.zero_boundary()
        # weighted budget with the normalized tables
        w = self.weights
        norms = {
            "rho0_y": _weighted_l2q(prob, w.rho0_n**2, y.values),
            "rho0_p1": _weighted_l2q(prob, w.rho0_n**2, p1.values),
            "rho0_p2": _weighted_l2q(prob, w.rho0_n**2, p2.values),
            "rho1_h": _weighted_l2q(prob, w.rho1_n**2, h.values),
        }
        kappa0 = LinearControlProblem(prob, w, self.game, np.asarray(y0, float),
                                      H, H1, H2).kappa0()
        total = sum(norms.values())
        budget_c = total / kappa0 if kappa0 > 0 else 0.0
        # consistency: re-solve the linearized system with the recovered
        # control and compare (stationarity made computational)
        residuals = self._consistency(y, p1, p2, h, y0, H, H1, H2)
        triple = ControlledTriple(
            h=h, y=y, p1=p1, p2=p2, weighted_norms=norms, kappa0=kappa0,
            budget_constant=budget_c,
            terminal_norm=grid.norm(y.values[-1]),
            residuals=residuals,
            cg_info={"relative_residual": rel_res, "iterations": 0},
            budget_exceeded=bool(budget_c > budget_limit),
        )
        return triple

    def _consistency(self, y, p1, p2, h, y0, H, H1, H2) -> dict:
        prob = self.prob
        ind_o = prob.indicator_interior("O")
        ind_i = [prob.indicator_interior("O1"), prob.indicator_interior("O2")]
        ind_d = prob.indicator_interior("Od")
        wt = self.game.time_weight(prob)
        src = (_interior(h.values) * ind_o[None, :]
               - _interior(p1.values) * ind_i[0][None, :] / self.game.mu1
               - _interior(p2.values) * ind_i[1][None, :] / self.game.mu2)
        if H is not None:
            src = src + _interior(H.values)
        y_check = solve_forward_linear(self.ops, y0, src)
        scale = 1.0 + float(np.max(np.abs(y.values)))
        out = {"y": float(np.max(np.abs(y_check.values - y.values)) / scale)}
        for i, (p, Hi) in enumerate(((p1, H1), (p2, H2)), start=1):
            g = (self.game.alphas[i - 1] * wt[:, None]
                 * _interior(y.values) * ind_d[None, :])
            if Hi is not None:
                g = g + _interior(Hi.values)
            p_check = solve_backward_linear(self.ops, g)
            pscale = 1.0 + float(np.max(np.abs(p.values)))
            # row 0 of p is not among the variational unknowns
            out[f"p{i}"] = float(
                np.max(np.abs(p_check.values[1:] - p.values[1:])) / pscale)
        return out


def solve_linear_null_control(lcp: LinearControlProblem,
                              hum: HUMSolver | None = None,
                              budget_limit: float = float("inf")) -> ControlledTriple:
    """One-shot linear control solve (builds the operator if not given)."""
    if hum is None:
        hum = HUMSolver(lcp.prob, lcp.weights, lcp.game)
    return hum.solve(lcp.y0, lcp.H, lcp.H1, lcp.H2, budget_limit=budget_limit)


def verify_additional_estimates(lcp: LinearControlProblem,
                                triple: ControlledTriple) -> dict:
    """Weighted bundles of the additional estimates and fitted constants.

    Bundle 1: sup_t rho_hat^2 |u|^2 and int rho_hat^2 a |u_x|^2 against
    kappa0; bundle 2: sup_t rho1^2 |sqrt(a) u_x|^2 and
    int rho1^2 (|u_t|^2 + |(a u_x)_x|^2) against kappa1.
    """
    prob, w = lcp.prob, lcp.weights
    grid, mesh = prob.grid, prob.mesh
    a_face = prob.deg.a(grid.faces)
    hsp = grid.spacings
    wv = grid.cell_volumes
    dt = mesh.dt
    rh2 = w.rho_hat_n**2
    r12 = w.rho1_n**2
    sup_rh, int_rh_a, sup_r1, int_r1 = 0.0, 0.0, 0.0, 0.0
    for u in (triple.y, triple.p1, triple.p2):
        vals = u.values
        l2rows = np.array([grid.inner(r, r) for r in vals])
        sup_rh = max(sup_rh, float(np.max(rh2 * l2rows)))
        gsq = np.sum(a_face[None, :] * (np.diff(vals, axis=1) / hsp[None, :]) ** 2
                     * hsp[None, :], axis=1)
        int_rh_a += float(dt * np.sum(rh2[1:] * gsq[1:]))
        sup_r1 = max(sup_r1, float(np.max(r12 * gsq)))
        ut = np.diff(vals, axis=0) / dt
        utsq = np.sum(wv[None, :] * ut**2, axis=1)
        dflux = a_face[None, :] * np.diff(vals, axis=1) / hsp[None, :]
        div = np.diff(dflux, axis=1) / wv[None, 1:-1]
        divsq = np.sum(wv[None, 1:-1] * div**2, axis=1)
        int_r1 += float(dt * np.sum(r12[1:] * (utsq + divsq[1:])))
    k0, k1 = lcp.kappa0(), lcp.kappa1()
    bundle1 = sup_rh + int_rh_a
    bundle2 = sup_r1 + int_r1
    return {
        "sup_rho_hat_l2": sup_rh,
        "int_rho_hat_grad": int_rh_a,
        "sup_rho1_sqrta_grad": sup_r1,
        "int_rho1_dt_flux": int_r1,
        "kappa0": k0,
        "kappa1": k1,
        "C_prop5": bundle1 / k0 if k0 > 0 else 0.0,
        "C_prop6": bundle2 / k1 if k1 > 0 else 0.0,
        "all_finite": bool(np.isfinite(bundle1) and np.isfinite(bundle2)),
    }


def y_space_norm(lcp: LinearControlProblem, y, p1, p2, h) -> YSpaceNorm:
    """The six Y-norm summands of a state, with H, H_i from the residuals."""
    prob, w = lcp.prob, lcp.weights
    res = assemble_A_map(prob, lcp.game, y, p1, p2, h, linearized=True)
    return YSpaceNorm(
        rho0_y=_weighted_l2q(prob, w.rho0_n**2, y.values),
        rho0_p=(_weighted_l2q(prob, w.rho0_n**2, p1.values)
                + _weighted_l2q(prob, w.rho0_n**2, p2.values)),
        rho1_h=_weighted_l2q(prob, w.rho1_n**2, h.values),
        rho2_H=_weighted_l2q(prob, w.rho2_n**2, res.A0),
        rho2_Hi=(_weighted_l2q(prob, w.rho2_n**2, res.A1)
                 + _weighted_l2q(prob, w.rho2_n**2, res.A2)),
        h1a_trace=h1a_norm(prob.grid, prob.deg, y.values[0]) ** 2,
    )


@dataclass
class AResiduals:
    """PDE residuals of the optimality-system map, nodal fields (M+1, N+1)."""

    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray  # initial trace y(., 0)

    def znorm(self, lcp: LinearControlProblem,
              y0_target: np.ndarray | None = None) -> float:
        prob, w = lcp.prob, lcp.weights
        total = (_weighted_l2q(prob, w.rho2_n**2, self.A0)
                 + _weighted_l2q(prob, w.rho2_n**2, self.A1)
                 + _weighted_l2q(prob, w.rho2_n**2, self.A2))
        trace = self.A3 if y0_target is None else self.A3 - y0_target
        total += h1a_norm(prob.grid, prob.deg, trace) ** 2
        return float(np.sqrt(total))


def _next_level(p: np.ndarray) -> np.ndarray:
    """Rows shifted one level back: out[m] = p[m+1], and zero at m = M."""
    out = np.zeros_like(p)
    out[:-1] = p[1:]
    return out


def _nodal(arr: np.ndarray) -> np.ndarray:
    """Interior rows (M+1, N-1) padded with zero boundary columns."""
    return np.pad(arr, ((0, 0), (1, 1)))


def assemble_A_map(prob: CylinderProblem, game: GameSpec,
                   y: TrajectoryField, p1: TrajectoryField,
                   p2: TrajectoryField, h: TrajectoryField,
                   linearized: bool = False) -> AResiduals:
    """Discrete residuals of the optimality-system map at a state.

    linearized=True evaluates the map of the system linearized at zero
    (used for Y-norm bookkeeping); otherwise the full semilinear map.
    """
    dt = prob.mesh.dt
    ind_o = prob.indicator_interior("O")
    ind_i = [prob.indicator_interior("O1"), prob.indicator_interior("O2")]
    ind_d = prob.indicator_interior("Od")
    wt = game.time_weight(prob)[:, None]
    targets = game.targets(prob)
    yi, h_i = _interior(y.values), _interior(h.values)
    p_i = [_interior(p1.values), _interior(p2.values)]
    if linearized:
        ops = prob.linearized_ops()
        Ly = band_apply(ops.bands, yi)
    else:
        ops = prob.ops_at_state(y)
        wgrad = prob.grad_weights * band_apply(prob.Dc_bands, yi)
        Ly = band_apply(prob.base_bands, yi) + prob.F.F(yi, wgrad)
    A0 = np.zeros_like(yi)
    A0[1:] = ((yi[1:] - yi[:-1]) / dt + Ly[1:] - h_i[1:] * ind_o
              + p_i[0][1:] * ind_i[0] / game.mu1
              + p_i[1][1:] * ind_i[1] / game.mu2)
    A12 = []
    for i in (0, 1):
        p = p_i[i]
        if linearized:
            track = game.alphas[i] * wt * yi * ind_d
        else:
            track = (game.alphas[i] * wt
                     * (yi - _interior(targets[i].values)) * ind_d)
        res = (p - _next_level(p)) / dt + band_apply(ops.bands_t, p) - track
        res[0] = 0.0
        A12.append(res)
    return AResiduals(A0=_nodal(A0), A1=_nodal(A12[0]), A2=_nodal(A12[1]),
                      A3=y.values[0].copy())


def apply_A_derivative(prob: CylinderProblem, game: GameSpec,
                       y: TrajectoryField, p1: TrajectoryField,
                       p2: TrajectoryField,
                       dy: TrajectoryField, dp1: TrajectoryField,
                       dp2: TrajectoryField, dh: TrajectoryField) -> AResiduals:
    """Gateaux derivative of the semilinear map at (y,p1,p2,.) applied
    to the direction (dy, dp1, dp2, dh)."""
    M = prob.mesh.M
    dt = prob.mesh.dt
    ind_o = prob.indicator_interior("O")
    ind_i = [prob.indicator_interior("O1"), prob.indicator_interior("O2")]
    ind_d = prob.indicator_interior("Od")
    wt = game.time_weight(prob)[:, None]
    ops = prob.ops_at_state(y)
    yi = _interior(y.values)
    ti = _interior(dy.values)
    dhi = _interior(dh.values)
    q = [_interior(dp1.values), _interior(dp2.values)]
    pfull = [_interior(p1.values), _interior(p2.values)]
    A0 = np.zeros_like(ti)
    A0[1:] = ((ti[1:] - ti[:-1]) / dt + band_apply(ops.bands, ti)[1:]
              - dhi[1:] * ind_o
              + q[0][1:] * ind_i[0] / game.mu1
              + q[1][1:] * ind_i[1] / game.mu2)
    A12 = []
    for i in (0, 1):
        dlt = np.array([_dL_transpose_apply(prob, m, yi[m], ti[m], pfull[i][m])
                        for m in range(1, M + 1)])
        res = np.zeros_like(ti)
        res[1:] = (((q[i] - _next_level(q[i])) / dt
                    + band_apply(ops.bands_t, q[i]))[1:] + dlt
                   - game.alphas[i] * wt[1:] * ti[1:] * ind_d)
        A12.append(res)
    return AResiduals(A0=_nodal(A0), A1=_nodal(A12[0]), A2=_nodal(A12[1]),
                      A3=dy.values[0].copy())


def _nonlinear_remainders(prob: CylinderProblem, game: GameSpec,
                          y: TrajectoryField, p1: TrajectoryField,
                          p2: TrajectoryField) -> tuple:
    """The remainder N(z) of the map beyond its linearization at zero.

    N0 = F(y, g y_x) - D1F(0,0) y - D2F(0,0) g y_x,
    N_i = (L(y)^T - L(0)^T) p_i + alpha_i wt y_id 1_Od  (constants included).
    """
    wt = game.time_weight(prob)[:, None]
    ind_d = prob.indicator_interior("Od")
    targets = game.targets(prob)
    zero = np.zeros(1)
    d1 = float(prob.F.D1(zero, zero)[0])
    d2 = float(prob.F.D2(zero, zero)[0])
    dbands = prob.ops_at_state(y).bands_t - prob.linearized_ops().bands_t
    yi = _interior(y.values)
    wgrad = prob.grad_weights * band_apply(prob.Dc_bands, yi)
    N0 = prob.F.F(yi, wgrad) - d1 * yi - d2 * wgrad
    Ni = [band_apply(dbands, _interior(p.values))
          + game.alphas[i] * wt * _interior(targets[i].values) * ind_d
          for i, p in enumerate((p1, p2))]
    return _nodal(N0), _nodal(Ni[0]), _nodal(Ni[1])


def solve_nonlinear_null_control(prob: CylinderProblem,
                                 weights: CarlemanWeights,
                                 game: GameSpec, y0: np.ndarray,
                                 tol_z: float = 1e-9,
                                 tol_terminal: float = 1e-6,
                                 max_newton: int = 10,
                                 hum: HUMSolver | None = None) -> tuple:
    """Newton-Kantorovich loop z_{k+1} = W(b - N(z_k)) for the semilinear
    optimality system; returns (ControlledTriple, history).

    Convergence is declared when the rho2-weighted relative change of
    the nonlinear remainder N between consecutive iterates falls below
    tol_z (the remainder is evaluated analytically from the fields, so
    this measure is free of the amplified round-off that contaminates
    the raw PDE residuals at large weight caps) and the terminal L2
    norm of the state is below tol_terminal.  With F identically zero
    the remainder is constant in z and the loop stops after one solve.

    The variational operator is the one linearized at zero, so every
    step reuses one factorization: the Liusternik construction.
    """
    y0 = np.asarray(y0, dtype=float)
    if hum is None:
        hum = HUMSolver(prob, weights, game)

    def remainder_norm(N0, N1, N2):
        r2 = weights.rho2_n**2
        return float(np.sqrt(_weighted_l2q(prob, r2, N0)
                             + _weighted_l2q(prob, r2, N1)
                             + _weighted_l2q(prob, r2, N2)))

    z = (prob.new_field(), prob.new_field(), prob.new_field(), prob.new_field())
    N_prev = _nonlinear_remainders(prob, game, z[0], z[1], z[2])
    history = []
    triple = None
    for k in range(max_newton):
        H = TrajectoryField(prob.grid, prob.mesh, -N_prev[0])
        H1 = TrajectoryField(prob.grid, prob.mesh, -N_prev[1])
        H2 = TrajectoryField(prob.grid, prob.mesh, -N_prev[2])
        triple = hum.solve(y0, H=H, H1=H1, H2=H2)
        z = (triple.y, triple.p1, triple.p2, triple.h)
        N_cur = _nonlinear_remainders(prob, game, z[0], z[1], z[2])
        delta = remainder_norm(N_cur[0] - N_prev[0], N_cur[1] - N_prev[1],
                               N_cur[2] - N_prev[2])
        scale = 1.0 + remainder_norm(*N_cur)
        record = {
            "iteration": k + 1,
            "remainder_delta": delta / scale,
            "terminal_norm": triple.terminal_norm,
            "budget_constant": triple.budget_constant,
        }
        history.append(record)
        if not np.isfinite(delta):
            raise NewtonFailureError(history)
        if delta / scale <= tol_z and triple.terminal_norm <= tol_terminal:
            record["converged"] = True
            return triple, history
        if len(history) >= 3 and delta / scale > 10.0 * history[0]["remainder_delta"]:
            raise NewtonFailureError(history)
        N_prev = N_cur
    raise NewtonFailureError(history)
