"""Leader null control: weighted variational (HUM) solve and Newton loop.

The linearized optimality system is controlled by minimizing

    (1/2) b((phi,psi1,psi2),(phi,psi1,psi2)) - <l, (phi,psi1,psi2)>

over discrete adjoint trajectories, with

    b = int rho0^-2 |L* phi - t1 psi1 - t2 psi2|^2
      + sum_i int rho0^-2 |L psi_i + c_i phi|^2
      + int_O rho1^-2 |phi|^2,
    l = <y0, phi(0+)> + int H phi + sum_i int H_i psi_i,

where (c_i, t_i) = (1_Oi / (mu_i wt), alpha_i wt 1_Od) are the followers'
control and tracking couplings, read from GameSpec.couplings.

The minimizer is found by assembling the (sparse, SPD) normal operator
over the (3M+1)(N-1) space-time unknowns, whose blocks are laid out from
the same level bands the marches use.  It couples time level m only with
levels m-1 and m+1, so with the unknowns numbered level by level
(level_order) it is a band matrix of lower bandwidth 3(N-1)+1.  A
shifted copy is factored by a banded Cholesky (LAPACK dpbtrf), which
fills nothing outside the band and needs no fill-reducing ordering.  The
shift sits at the roundoff floor of the factor, SHIFT = 1e-15; if dpbtrf
meets a non-positive pivot the copy is factored again at 10x, 100x and
1000x the shift, and HUMError is raised only when all four rungs fail.
Iterative refinement against the unshifted operator, with one
extended-precision CSR residual per step, solves it to near roundoff.  It
stops at the first step that fails to halve the residual, or after
REFINEMENT_STEPS steps, and keeps the best iterate: below the shift the
residual reaches its floor within a step or two and then grows again.
The controlled triple is read off the minimizer as

    y = rho0^-2 (L* phi - t1 psi1 - t2 psi2),
    p_i = rho0^-2 (L psi_i + c_i phi),    h = -rho1^-2 phi 1_O,

and, by stationarity, satisfies the discrete linearized system exactly
(the transposition argument made computational).  The rho tables are the
normalized, capped ones from the carleman module; all fitted constants
absorb the normalization.

The semilinear problem is solved by the Liusternik/Newton iteration
z_{k+1} = W(b - N(z_k)) with W the linear control solve (the right
inverse of the map linearized at zero) and N the nonlinear remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .carleman import CarlemanWeights
from .grids import TrajectoryField
from .nash import GameSpec
from .operators import band_apply
from .solvers import CylinderProblem, _interior, solve_backward_linear, solve_forward_linear

__all__ = [
    "LinearControlProblem",
    "ControlledTriple",
    "HUMSolver",
    "BandCholesky",
    "HUMError",
    "RefinementError",
    "NewtonFailureError",
    "h1a_norm",
    "solve_linear_null_control",
    "verify_additional_estimates",
    "solve_nonlinear_null_control",
]


# largest relative residual of the refined HUM solve that is accepted
RESIDUAL_LIMIT = 1e-6
# largest reconstruction residual (HUMSolver._consistency) that is accepted
RECONSTRUCTION_LIMIT = 1e-6
# diagonal shift of the factored copy of the scaled normal operator, at
# the roundoff floor of the band factor.  A copy that dpbtrf finds
# indefinite is rebuilt and factored again at ten times the shift, up to
# SHIFT_RUNGS rungs in all: 1e-15, 1e-14, 1e-13 and 1e-12
SHIFT = 1e-15
SHIFT_RUNGS = 4
# most refinement steps; refinement stops earlier at the first step that
# fails to halve the residual
REFINEMENT_STEPS = 10


class HUMError(RuntimeError):
    """The HUM solve failed: the factorization, the refinement or the
    reconstruction of the controlled triple."""


class RefinementError(HUMError):
    """The refined HUM solve failed to reach RESIDUAL_LIMIT."""

    def __init__(self, rel_residual: float):
        super().__init__(
            f"HUM refinement stalled: relative residual {rel_residual:.3e} "
            f"above the limit {RESIDUAL_LIMIT:.1e}")
        self.rel_residual = rel_residual


class NewtonFailureError(RuntimeError):
    """Newton loop ended without converging.

    reason is "diverged" when a remainder delta is not finite or has not
    fallen over three steps, the data being outside the local radius, and
    "budget" when the loop was still contracting as its steps ran out.
    """

    def __init__(self, history: list, reason: str):
        super().__init__(
            f"Newton iteration did not converge ({reason}; last residual "
            f"{history[-1]['remainder_delta']:.3e}); "
            "try smaller initial data")
        self.history = history
        self.reason = reason


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


def _space_time_blocks(bands: np.ndarray, dt: float,
                       shift: int) -> sp.csr_matrix:
    """Backward-Euler space-time operator of the levels in `bands`.

    bands: (M, 3, n).  Level m puts I/dt + L_m on its diagonal block, and
    -I/dt sits at offset `shift` (-n: y^m sees y^{m-1}; +n: p^m sees
    p^{m+1}).  Zero entries are dropped.
    """
    lo, d, up = bands.transpose(1, 0, 2).reshape(3, -1)
    size = d.size
    return sp.diags(
        [lo[1:], d + 1.0 / dt, up[:-1], np.full(size - abs(shift), -1.0 / dt)],
        [-1, 0, 1, shift], shape=(size, size), format="csr")


def level_order(M: int, n: int) -> np.ndarray:
    """Old index of each HUM unknown, numbered level by level.

    The unknowns are stored block by block, [phi^1..phi^{M+1},
    psi1^1..psi1^M, psi2^1..psi2^M], n per level.  In the order
    [phi^1, psi1^1, psi2^1, phi^2, ..., psi2^M, phi^{M+1}] the normal
    operator is a band matrix of lower bandwidth 3n+1.
    """
    size = M * n
    blocks = np.arange(3 * size).reshape(3, M, n)
    blocks[1:] += n  # the psi blocks follow phi^{M+1}
    return np.concatenate([blocks.transpose(1, 0, 2).ravel(),
                           np.arange(size, size + n)])


def lower_band(A: sp.spmatrix, perm: np.ndarray) -> np.ndarray:
    """LAPACK lower band storage of the symmetric A[perm][:, perm].

    Returns ab, Fortran-ordered, of shape (kd+1, size), with
    ab[i - j, j] = A[perm[i], perm[j]] for i >= j; the bandwidth kd is
    the largest distance of a stored entry from the diagonal.
    """
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    coo = A.tocoo()
    row, col = inv[coo.row], inv[coo.col]
    low = row >= col
    col, dist = col[low], row[low] - col[low]
    ab = np.zeros((dist.max() + 1, A.shape[0]), order="F")
    ab[dist, col] = coo.data[low]
    return ab


class BandCholesky:
    """Cholesky factor L L^T of an SPD matrix that is a band once permuted.

    Factors `ab` (lower_band storage of A[perm][:, perm]) in place with
    LAPACK dpbtrf; `solve` takes and returns vectors in the order of A.
    `L` is a zero-copy view of the band factor and `U` = L^T.
    """

    def __init__(self, ab: np.ndarray, perm: np.ndarray):
        self.band, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
        if info > 0:
            raise HUMError(
                f"HUM factorization failed: leading minor {info} of the "
                "shifted operator is not positive definite")
        self.perm = perm

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, _ = lapack.dpbtrs(self.band, rhs[self.perm], lower=1)
        out = np.empty_like(x)
        out[self.perm] = x
        return out

    @property
    def L(self) -> sp.dia_array:
        kd1, size = self.band.shape
        return sp.dia_array((self.band, -np.arange(kd1)), shape=(size, size))

    @property
    def U(self) -> sp.dia_array:
        return self.L.T


class HUMSolver:
    """Assembles and factorizes the variational operator once; solves many.

    The operator is built from the system linearized at zero, so the
    frozen-at-zero Newton loop reuses a single factorization.
    """

    def __init__(self, prob: CylinderProblem, weights: CarlemanWeights,
                 game: GameSpec):
        self.prob = prob
        self.weights = weights
        self.game = game
        ops = prob.linearized_ops()
        self.ops = ops
        M, n = prob.mesh.M, prob.grid.N - 1
        dt = prob.mesh.dt
        eye = sp.identity(n, format="csr")
        # phi carries a free terminal datum phi^{M+1}: its stationarity
        # condition reads w . y^M = 0, i.e. exact discrete null control,
        # rather than relying on the capped weight to crush y(T)
        term_col = sp.kron(
            sp.csr_matrix((np.ones(1), (np.array([M - 1]), np.array([0]))),
                          shape=(M, 1)), -eye / dt)
        self.Lstar = sp.hstack(
            [_space_time_blocks(ops.bands_t[1:], dt, n), term_col]).tocsr()
        self.Lfwd = _space_time_blocks(ops.bands[1:], dt, -n)
        control, tracking = game.couplings(prob)

        def diag(c):  # a coupling on the unknowns of levels 1..M
            return sp.diags(_interior(c[1:]).ravel())

        D_o = sp.diags(np.tile(prob.indicator_interior("O"), M))
        wv = prob.grid.interior_volumes
        self.rho0_inv2 = weights.rho0_n ** (-2.0)
        self.rho1_inv2 = weights.rho1_n ** (-2.0)
        W0 = sp.diags(dt * np.outer(self.rho0_inv2[1:], wv).ravel())
        W1 = sp.diags(dt * np.outer(self.rho1_inv2[1:], wv).ravel())
        size = M * n
        Z = sp.csr_matrix((size, size))
        Zt = sp.csr_matrix((size, n))  # phi^{M+1} couples only through L*
        self.G0 = sp.hstack([self.Lstar, -diag(tracking[0]),
                             -diag(tracking[1])]).tocsr()
        self.G1 = sp.hstack([diag(control[0]), Zt, self.Lfwd, Z]).tocsr()
        self.G2 = sp.hstack([diag(control[1]), Zt, Z, self.Lfwd]).tocsr()
        self.E = sp.hstack([D_o, Zt, Z, Z]).tocsr()
        B = (self.G0.T @ W0 @ self.G0 + self.G1.T @ W0 @ self.G1
             + self.G2.T @ W0 @ self.G2 + self.E.T @ W1 @ self.E).tocsc()
        # symmetric Jacobi scaling: the raw operator mixes rho scales over
        # ten decades, which defeats a factorization in double precision
        self.scale = np.sqrt(B.diagonal())
        Dinv = sp.diags(1.0 / self.scale)
        self.Bs = (Dinv @ B @ Dinv).tocsc()
        # only the scaled operator is read from here on; free the unscaled
        # copy before the factorization, the memory peak of the build
        del B
        # the normal operator inherits the exponentially weak observability
        # of the continuous problem; factor a shifted copy and correct by
        # iterative refinement against the true matrix (the load is in the
        # numerical range, so the refinement converges there).  The shifted
        # copy is SPD and, numbered level by level, a band matrix.  dpbtrf
        # overwrites a band it fails on, so each rung builds its own
        perm = level_order(M, n)
        for self.rung in range(SHIFT_RUNGS):
            self.shift = SHIFT * 10.0 ** self.rung
            ab = lower_band(self.Bs, perm)
            ab[0] += self.shift
            try:
                self.lu = BandCholesky(ab, perm)
                break
            except HUMError:
                if self.rung == SHIFT_RUNGS - 1:
                    raise
            del ab  # free the failed band before the next rung builds one
        # extended-precision copy for refinement residuals; CSR sums each
        # row in the same order as the CSC product, at half its cost
        self._Bld = self.Bs.astype(np.longdouble).tocsr()
        self._n, self._M = n, M

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
        f = self._rhs(y0, H, H1, H2)
        fs = f / self.scale
        fnorm = np.linalg.norm(fs)
        history = []
        if fnorm == 0.0:
            z = np.zeros_like(f)
            rel_res = 0.0
        else:
            # shifted factor corrected by refinement with extended-precision
            # residuals; the residual that scores an iterate is the load
            # of the next correction.  Past its floor the residual grows
            # again, so refinement stops at the first step that fails to
            # halve it, and the best iterate is kept
            fld = fs.astype(np.longdouble)
            zl = self.lu.solve(fs).astype(np.longdouble)
            rl = fld - self._Bld @ zl
            history.append(np.linalg.norm(rl.astype(float)))
            best, best_res = zl.astype(float), history[0]
            for _ in range(REFINEMENT_STEPS):
                zl = zl + self.lu.solve(rl.astype(float))
                rl = fld - self._Bld @ zl
                r = np.linalg.norm(rl.astype(float))
                history.append(r)
                if r < best_res:
                    best, best_res = zl.astype(float), r
                if not r < 0.5 * history[-2]:
                    break
            rel_res = float(best_res / fnorm)
            if rel_res > RESIDUAL_LIMIT:
                raise RefinementError(rel_res)
            z = best / self.scale
        cg_info = {"relative_residual": rel_res, "iterations": 0,
                   "refinement_residuals": [float(r / fnorm)
                                            for r in history],
                   "refinement_steps": max(len(history) - 1, 0),
                   "shift": self.shift, "rung": self.rung}
        triple = self._reconstruct(z, y0, H, H1, H2, cg_info, budget_limit)
        worst = np.max(list(triple.residuals.values()))
        if not worst <= RECONSTRUCTION_LIMIT:
            raise HUMError(
                f"HUM reconstruction residual {worst:.3e} above the limit "
                f"{RECONSTRUCTION_LIMIT:.1e}")
        return triple

    def _reconstruct(self, z, y0, H, H1, H2, cg_info,
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
            cg_info=cg_info,
            budget_exceeded=bool(budget_c > budget_limit),
        )
        return triple

    def _consistency(self, y, p1, p2, h, y0, H, H1, H2) -> dict:
        prob = self.prob
        tracking = self.game.couplings(prob)[1]
        v1, v2 = self.game.controls(prob, (p1.values, p2.values))
        src = (_interior(h.values) * prob.indicator_interior("O")[None, :]
               + _interior(v1.values) + _interior(v2.values))
        if H is not None:
            src = src + _interior(H.values)
        y_check = solve_forward_linear(self.ops, y0, src)
        scale = 1.0 + float(np.max(np.abs(y.values)))
        out = {"y": float(np.max(np.abs(y_check.values - y.values)) / scale)}
        for i, (p, Hi) in enumerate(((p1, H1), (p2, H2)), start=1):
            g = _interior(tracking[i - 1] * y.values)
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


def _nodal(arr: np.ndarray) -> np.ndarray:
    """Interior rows (M+1, N-1) padded with zero boundary columns."""
    return np.pad(arr, ((0, 0), (1, 1)))


def _nonlinear_remainders(prob: CylinderProblem, game: GameSpec,
                          y: TrajectoryField, p1: TrajectoryField,
                          p2: TrajectoryField) -> tuple:
    """The remainder N(z) of the map beyond its linearization at zero.

    N0 = F(y, g y_x) - D1F(0,0) y - D2F(0,0) g y_x,
    N_i = (L(y)^T - L(0)^T) p_i + tracking_i y_id  (constants included),
    with tracking_i = alpha_i wt 1_Od the game's tracking coupling.
    """
    tracking = game.couplings(prob)[1]
    targets = game.targets(prob)
    zero = np.zeros(1)
    d1 = float(prob.F.D1(zero, zero)[0])
    d2 = float(prob.F.D2(zero, zero)[0])
    dbands = prob.ops_at_state(y).bands_t - prob.linearized_ops().bands_t
    yi = _interior(y.values)
    wgrad = prob.grad_weights * band_apply(prob.Dc_bands, yi)
    N0 = prob.F.F(yi, wgrad) - d1 * yi - d2 * wgrad
    Ni = [band_apply(dbands, _interior(p.values))
          + _interior(tracking[i] * targets[i].values)
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
    Each history record carries the step's contraction
    delta_k / delta_{k-1} (None at the first step).  The loop raises
    NewtonFailureError with reason "diverged" at a non-finite delta or
    when delta_k >= delta_{k-3}, and with reason "budget" when max_newton
    steps end without convergence.

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
        d = delta / scale
        prev = history[-1]["remainder_delta"] if history else None
        record = {
            "iteration": k + 1,
            "remainder_delta": d,
            "contraction": (None if prev is None
                            else d / prev if prev > 0 else float("nan")),
            "terminal_norm": triple.terminal_norm,
            "budget_constant": triple.budget_constant,
        }
        history.append(record)
        if not np.isfinite(delta):
            raise NewtonFailureError(history, "diverged")
        if d <= tol_z and triple.terminal_norm <= tol_terminal:
            record["converged"] = True
            return triple, history
        # no net contraction over three steps: delta_k >= delta_{k-3}
        if len(history) >= 4 and d >= history[-4]["remainder_delta"]:
            raise NewtonFailureError(history, "diverged")
        N_prev = N_cur
    raise NewtonFailureError(history, "budget")
