"""Leader null control: weighted variational (HUM) solve and Newton loop.

The linearized optimality system is controlled by minimizing

    (1/2) b((phi,psi1,psi2),(phi,psi1,psi2)) - <l, (phi,psi1,psi2)>

over discrete adjoint trajectories, with

    b = int rho0^-2 |L* phi - t1 psi1 - t2 psi2|^2
      + sum_i int rho0^-2 |L psi_i + c_i phi|^2
      + int_O rho1^-2 |phi|^2,
    l = <y0, phi(0+)> + int H phi + sum_i int H_i psi_i,

where (c_i, t_i) = (1_Oi / (mu_i wt), alpha_i wt 1_Od) are the followers'
control and tracking couplings, built once, `HUMSolver.couplings`.

The minimizer is found by assembling the (sparse, SPD) normal operator
over the (3M+1)(N-1) space-time unknowns.  Its blocks are CSR matrices
assembled row by row from the same level bands the marches use: each row
(time level, node) is a short stencil in the column order of the blocks,
with zero entries dropped.  Their Gram products are summed into one CSR
matrix, Jacobi-scaled in place on its data.  The normal operator couples
time level m only with levels m-1 and m+1, so with the unknowns numbered
level by level (level_order) it is a band matrix of lower bandwidth
3(N-1)+1.  A shifted copy is factored by a banded Cholesky (LAPACK
dpbtrf), which fills nothing outside the band and needs no
fill-reducing ordering.  The shift sits at the roundoff floor of the
factor, SHIFT = 1e-15; if dpbtrf meets a non-positive pivot, HUMError
is raised.
One step of iterative refinement against the unshifted operator, with
extended-precision CSR residuals, corrects the shifted solve, and the
corrected iterate is the solution: the correction cuts the residual by
1.5-28x, and a second one would cut it by only 1.03-1.45x, the floor of
fixed-precision refinement with a perturbed factor.
HUMSolver(prob, weights, game).solve(y0, load) is the linear control
map: it takes the initial data y0 and the load (H, H1, H2), one array
(3, M+1, N+1), to the controlled triple, which is read off the
minimizer as

    y = rho0^-2 (L* phi - t1 psi1 - t2 psi2),
    p_i = rho0^-2 (L psi_i + c_i phi),    h = -rho1^-2 phi 1_O,

and, by stationarity, satisfies the discrete linearized system exactly
(the transposition argument made computational).  Each solve checks this
by marching the system again with the recovered controls: y forward, and
both follower adjoints backward as the two columns of one march
(`solvers.follower_adjoints`, which the Nash layer marches too).  The
rho tables are the normalized, capped ones from the carleman module; all
fitted constants absorb the normalization.  A budget limit is the
caller's to compare with the triple's `budget_constant`.

The semilinear problem is solved by the Liusternik/Newton iteration
z_{k+1} = W(b - N(z_k)) with W the linear control solve (the right
inverse of the map linearized at zero) and N the nonlinear remainder,
whose parts that do not depend on z are computed once per loop; -N is
the load of the next solve.  solve_nonlinear_null_control(hum, y0,
tol_z, tol_terminal, max_newton) runs it on the HUMSolver it is given,
whose problem, weights and game define the remainder too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .carleman import CarlemanWeights
from .grids import TrajectoryField, integral_q
from .nash import GameSpec
from .solvers import (Couplings, CylinderProblem, LevelOps, SolverError,
                      _interior, _source_array, _stalled, follower_adjoints,
                      solve_forward_linear)

__all__ = [
    "ControlledTriple",
    "HUMSolver",
    "BandCholesky",
    "HUMError",
    "RefinementError",
    "NewtonFailureError",
    "h1a_norm",
    "verify_additional_estimates",
    "solve_nonlinear_null_control",
]


# largest relative residual of the refined HUM solve that is accepted
RESIDUAL_LIMIT = 1e-6
# largest reconstruction residual (HUMSolver._consistency) that is accepted
RECONSTRUCTION_LIMIT = 1e-6
# diagonal shift of the factored copy of the scaled normal operator, at
# the roundoff floor of the band factor
SHIFT = 1e-15


class HUMError(SolverError):
    """The HUM solve failed: the factorization, the refinement or the
    reconstruction of the controlled triple."""


class RefinementError(HUMError):
    """The refined HUM solve failed to reach RESIDUAL_LIMIT."""

    def __init__(self, rel_residual: float):
        super().__init__(
            f"HUM refinement stalled: relative residual {rel_residual:.3e} "
            f"above the limit {RESIDUAL_LIMIT:.1e}")
        self.rel_residual = rel_residual


class NewtonFailureError(SolverError):
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
    return float(np.sqrt(grid.inner(row, row)
                         + grid.face_energy(deg.a(grid.faces), row)))


@dataclass
class ControlledTriple:
    """Output of a linear null-control solve, `HUMSolver.solve`."""

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


def _stencil_csr(cols: np.ndarray, vals: np.ndarray,
                 ncols: int) -> sp.csr_matrix:
    """CSR matrix whose row i holds vals[i, k] at column cols[i, k].

    cols, vals: (rows, K), the columns of each row ascending.  Zero
    entries are dropped, as scipy drops them when it stacks diagonals, so
    the arrays equal those of the same matrix assembled blockwise.
    """
    keep = vals != 0
    indptr = np.zeros(len(vals) + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return sp.csr_matrix((vals[keep], cols[keep], indptr),
                         shape=(len(vals), ncols))


def _hum_blocks(prob: CylinderProblem, ops: LevelOps,
                couplings: Couplings) -> tuple:
    """(G0, G1, G2), the CSR blocks of the HUM functional b.

    Their columns are the unknowns [phi^1..phi^{M+1}, psi1^1..psi1^M,
    psi2^1..psi2^M], n per level.  Row (m, r), m = 1..M, of each block
    is a stencil read from the level bands of `ops`: G0 holds the
    backward-Euler row of L* (I/dt + the weighted transpose of L_m, and
    -I/dt on phi^{m+1}) and -tracking_i on psi_i^m; G_i holds control_i
    on phi^m and the forward row of L (I/dt + L_m, and -I/dt on
    psi_i^{m-1}); the leader's block E, 1_O on phi^m, is a diagonal mask
    that `HUMSolver` applies without forming it.  phi carries a free
    terminal datum phi^{M+1}: its stationarity condition reads
    w . y^M = 0, i.e. exact discrete null control, rather than relying on
    the capped weight to crush y(T).
    """
    M, n, dt = prob.mesh.M, prob.grid.N - 1, prob.mesh.dt
    control, tracking = couplings.control, couplings.tracking

    def coupling(c):  # a coupling on the unknowns of levels 1..M
        return _interior(c[1:]).ravel()

    size = M * n
    row = np.arange(size)
    psi = ((M + 1) * n, (2 * M + 1) * n)  # first columns of psi1, psi2
    ncols = psi[1] + size
    lo, d, up = ops.bands_t[1:].transpose(1, 0, 2).reshape(3, -1)
    G0 = _stencil_csr(
        np.stack([row - 1, row, row + 1, row + n, psi[0] + row,
                  psi[1] + row], axis=1),
        np.stack([lo, d + 1.0 / dt, up, np.full(size, -1.0 / dt),
                  -coupling(tracking[0]), -coupling(tracking[1])], axis=1),
        ncols)
    lo, d, up = ops.bands[1:].transpose(1, 0, 2).reshape(3, -1)
    back = np.where(row >= n, -1.0 / dt, 0.0)  # psi^0 is not an unknown

    def follower(i):
        col = psi[i] + row
        return _stencil_csr(
            np.stack([row, col - n, col - 1, col, col + 1], axis=1),
            np.stack([coupling(control[i]), back, lo, d + 1.0 / dt, up],
                     axis=1), ncols)

    return G0, follower(0), follower(1)


def _gram_term(G: sp.csr_matrix, w: np.ndarray) -> sp.csr_matrix:
    """G^T diag(w) G for CSR G, with the bits of G.T @ sp.diags(w) @ G."""
    X = G.copy()
    X.data *= np.repeat(w, np.diff(G.indptr))
    return X.T.tocsr() @ G


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


def lower_band(A: sp.csr_matrix, perm: np.ndarray) -> np.ndarray:
    """LAPACK lower band storage of the symmetric CSR A[perm][:, perm].

    Returns ab, Fortran-ordered, of shape (kd+1, size), with
    ab[i - j, j] = A[perm[i], perm[j]] for i >= j; the bandwidth kd is
    the largest distance of a stored entry from the diagonal.
    """
    inv = np.empty(perm.size, dtype=A.indices.dtype)
    inv[perm] = np.arange(perm.size, dtype=inv.dtype)
    row = np.repeat(inv, np.diff(A.indptr))
    col = inv[A.indices]
    low = row >= col
    col, dist = col[low], row[low] - col[low]
    ab = np.zeros((dist.max() + 1, A.shape[0]), order="F")
    ab[dist, col] = A.data[low]
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
    frozen-at-zero Newton loop reuses a single factorization.  `solve`
    is the linear control map (y0, H, H1, H2) -> controlled triple.
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
        # the followers' couplings, read by every solve and the Newton loop
        self.couplings = game.couplings(prob)
        self.G0, self.G1, self.G2 = _hum_blocks(prob, ops, self.couplings)
        wv = prob.grid.interior_volumes
        self.rho0_inv2 = weights.rho0_n ** (-2.0)
        self.rho1_inv2 = weights.rho1_n ** (-2.0)
        w0 = dt * np.outer(self.rho0_inv2[1:], wv).ravel()
        w1 = dt * np.outer(self.rho1_inv2[1:], wv).ravel()
        # the leader's term E^T diag(w1) E, E = 1_O on phi^1..phi^M
        leader = np.zeros(self.G0.shape[1])
        leader[:M * n] = w1 * np.tile(prob.indicator_interior("O"), M)
        B = (_gram_term(self.G0, w0) + _gram_term(self.G1, w0)
             + _gram_term(self.G2, w0) + sp.diags(leader)).tocsr()
        B.sort_indices()
        # symmetric Jacobi scaling: the raw operator mixes rho scales over
        # ten decades, which defeats a factorization in double precision.
        # Scaled in place, rows then columns: the bits of Dinv @ B @ Dinv
        self.scale = np.sqrt(B.diagonal())
        dinv = 1.0 / self.scale
        B.data *= np.repeat(dinv, np.diff(B.indptr))
        B.data *= dinv[B.indices]
        # the normal operator inherits the exponentially weak observability
        # of the continuous problem; factor a shifted copy and correct by
        # iterative refinement against the true matrix (the load is in the
        # numerical range, so the refinement converges there).  The shifted
        # copy is SPD and, numbered level by level, a band matrix
        perm = level_order(M, n)
        ab = lower_band(B, perm)
        ab[0] += SHIFT
        self.lu = BandCholesky(ab, perm)
        # held once, in extended precision for the refinement residuals
        B.data = B.data.astype(np.longdouble)
        self.Bs = B
        self._n, self._M = n, M

    def _rhs(self, y0: np.ndarray, load: np.ndarray) -> np.ndarray:
        prob = self.prob
        M, n = self._M, self._n
        dt = prob.mesh.dt
        wv = prob.grid.interior_volumes
        off = (M + 1) * n  # phi block includes the free terminal datum
        f = np.zeros(off + 2 * M * n)
        fp = f[:M * n].reshape(M, n)
        fp += dt * wv[None, :] * _interior(load[0])[1:]
        fp[0] += wv * _interior(y0)
        f[off:] += (dt * wv[None, :] * _interior(load[1:])[:, 1:]).ravel()
        return f

    def solve(self, y0: np.ndarray,
              load: np.ndarray | None = None) -> ControlledTriple:
        """The controlled triple of the initial data y0 (N+1) and the
        load (H, H1, H2) of the state and the two follower adjoints, one
        array (3, M+1, N+1); None is a zero load.  The state vanishes on
        the boundary, so y0's two boundary values are taken as 0, in
        kappa0 too.  A load must decay toward T like the targets' 1/rho0
        profile: a white-noise load stalls the refinement far above
        RESIDUAL_LIMIT and raises RefinementError."""
        y0 = np.array(y0, dtype=float)
        y0[[0, -1]] = 0.0
        if load is None:
            load = np.zeros((3, self._M + 1, self._n + 2))
        f = self._rhs(y0, load)
        fs = f / self.scale
        fnorm = np.linalg.norm(fs)
        history = []
        if fnorm == 0.0:
            z = np.zeros_like(f)
            rel_res = 0.0
        else:
            # shifted factor corrected once by refinement with
            # extended-precision residuals; the correction lowered the
            # residual 1.5-28x in every solve measured, and a second one
            # would gain at most 1.45x (README)
            fld = fs.astype(np.longdouble)
            zl = self.lu.solve(fs).astype(np.longdouble)
            r = (fld - self.Bs @ zl).astype(float)
            history.append(np.linalg.norm(r))
            zl += self.lu.solve(r)
            r = (fld - self.Bs @ zl).astype(float)
            history.append(np.linalg.norm(r))
            rel_res = float(history[1] / fnorm)
            if rel_res > RESIDUAL_LIMIT:
                raise RefinementError(rel_res)
            z = zl.astype(float) / self.scale
        cg_info = {"relative_residual": rel_res, "iterations": 0,
                   "refinement_residuals": [float(r / fnorm)
                                            for r in history]}
        triple = self._reconstruct(z, y0, load, cg_info)
        worst = np.max(list(triple.residuals.values()))
        if not worst <= RECONSTRUCTION_LIMIT:
            raise HUMError(
                f"HUM reconstruction residual {worst:.3e} above the limit "
                f"{RECONSTRUCTION_LIMIT:.1e}")
        return triple

    def _reconstruct(self, z, y0, load, cg_info) -> ControlledTriple:
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
        # E z: phi^1..phi^M masked to O
        h = to_field(-self.rho1_inv2[1:, None] * np.where(
            prob.indicator_interior("O"), z[:M * n].reshape(M, n), 0.0))
        y.values[0] = y0
        y.zero_boundary()
        # weighted budget with the normalized tables
        w = self.weights
        norms = {
            "rho0_y": integral_q(grid, mesh, y.values**2, w.rho0_n**2),
            "rho0_p1": integral_q(grid, mesh, p1.values**2, w.rho0_n**2),
            "rho0_p2": integral_q(grid, mesh, p2.values**2, w.rho0_n**2),
            "rho1_h": integral_q(grid, mesh, h.values**2, w.rho1_n**2),
        }
        # |y0|^2 + |rho2 H|^2 + |rho2 H1|^2 + |rho2 H2|^2, load (H, H1, H2)
        kappa0 = float(grid.inner(y0, y0))
        for f in load:
            kappa0 += integral_q(grid, mesh, f**2, w.rho2_n**2)
        total = sum(norms.values())
        budget_c = total / kappa0 if kappa0 > 0 else 0.0
        # consistency: re-solve the linearized system with the recovered
        # control and compare (stationarity made computational)
        residuals = self._consistency(y, p1, p2, h, y0, load)
        return ControlledTriple(
            h=h, y=y, p1=p1, p2=p2, weighted_norms=norms, kappa0=kappa0,
            budget_constant=budget_c,
            terminal_norm=grid.norm(y.values[-1]),
            residuals=residuals,
            cg_info=cg_info,
        )

    def _consistency(self, y, p1, p2, h, y0, load) -> dict:
        prob, couplings = self.prob, self.couplings
        v1, v2 = couplings.controls(prob, (p1.values, p2.values))
        src = _source_array(prob, h, v1, v2, _interior(load[0]))
        y_check = solve_forward_linear(self.ops, y0, src)
        scale = 1.0 + float(np.max(np.abs(y.values)))
        out = {"y": float(np.max(np.abs(y_check.values - y.values)) / scale)}
        # p_i has the source tracking_i y + H_i
        p = follower_adjoints(self.ops,
                              couplings.tracking * y.values + load[1:])
        for i, p_i in enumerate((p1, p2)):
            pscale = 1.0 + float(np.max(np.abs(p_i.values)))
            # row 0 of p is not among the variational unknowns
            out[f"p{i + 1}"] = float(np.max(np.abs(
                p[i, 1:] - p_i.values[1:])) / pscale)
        return out


def verify_additional_estimates(prob: CylinderProblem,
                                weights: CarlemanWeights,
                                triple: ControlledTriple) -> dict:
    """Weighted bundles of the additional estimates and fitted constants.

    Bundle 1: sup_t rho_hat^2 |u|^2 and int rho_hat^2 a |u_x|^2 against
    kappa0; bundle 2: sup_t rho1^2 |sqrt(a) u_x|^2 and
    int rho1^2 (|u_t|^2 + |(a u_x)_x|^2) against kappa1, which is kappa0
    with the initial trace measured in H^1_a instead of L^2.
    """
    grid, mesh = prob.grid, prob.mesh
    a_face = prob.deg.a(grid.faces)
    hsp = grid.spacings
    wv = grid.cell_volumes
    dt = mesh.dt
    rh2 = weights.rho_hat_n**2
    r12 = weights.rho1_n**2
    sup_rh, int_rh_a, sup_r1, int_r1 = 0.0, 0.0, 0.0, 0.0
    for u in (triple.y, triple.p1, triple.p2):
        vals = u.values
        sup_rh = max(sup_rh, float(np.max(rh2 * grid.inner(vals, vals))))
        gsq = grid.face_energy(a_face, vals)
        int_rh_a += float(dt * np.sum(rh2[1:] * gsq[1:]))
        sup_r1 = max(sup_r1, float(np.max(r12 * gsq)))
        ut = np.diff(vals, axis=0) / dt
        utsq = np.sum(wv[None, :] * ut**2, axis=1)
        dflux = a_face[None, :] * np.diff(vals, axis=1) / hsp[None, :]
        div = np.diff(dflux, axis=1) / wv[None, 1:-1]
        divsq = np.sum(wv[None, 1:-1] * div**2, axis=1)
        int_r1 += float(dt * np.sum(r12[1:] * (utsq + divsq[1:])))
    y0 = triple.y.values[0]
    k0 = triple.kappa0
    k1 = k0 - grid.inner(y0, y0) + h1a_norm(grid, prob.deg, y0) ** 2
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


def _remainder_parts(hum: HUMSolver) -> tuple:
    """The parts of the remainder N(z) that do not depend on z, for hum's
    problem and game.

    (D1F(0,0), D2F(0,0), the interior rows of tracking_i y_id stacked
    over i), with hum's tracking couplings.
    """
    prob, tracking = hum.prob, hum.couplings.tracking
    targets = hum.game.targets(prob)
    zero = np.zeros(1)
    return (float(prob.F.D1(zero, zero)[0]), float(prob.F.D2(zero, zero)[0]),
            np.stack([_interior(tracking[i] * targets[i].values)
                      for i in (0, 1)]))


def _nonlinear_remainders(prob: CylinderProblem, parts: tuple,
                          y: TrajectoryField, p1: TrajectoryField,
                          p2: TrajectoryField) -> np.ndarray:
    """The remainder N(z) of the map beyond its linearization at zero.

    N0 = F(y, w) - D1F(0,0) y - D2F(0,0) w, with w = g Dc y,
    N_i = (L(y)^* - L(0)^*) p_i + tracking_i y_id  (constants included),
    with tracking_i = alpha_i wt 1_Od the game's tracking coupling and
    `parts` the game's _remainder_parts.  L(y) - L(0) = diag(r) +
    diag(c) Dc is formed from the change in the coefficients,
    r = D1F(y, w) - D1F(0,0) and c = (D2F(y, w) - D2F(0,0)) g, and its
    weighted transpose is applied by `CylinderProblem.coefficient_adjoint`:
    no operator set is built and no two operators are subtracted, so the
    adjoint part carries no cancellation against the base operator.
    Returns (N0, N1, N2) as one array (3, M+1, N+1) with zero boundary
    columns.
    """
    d1, d2, const = parts
    F, g = prob.F, prob.grad_weights
    yi = _interior(y.values)
    wgrad = prob.gradient_argument(yi)
    out = np.zeros((3,) + y.values.shape)
    out[0, :, 1:-1] = F.F(yi, wgrad) - d1 * yi - d2 * wgrad
    p = np.stack([_interior(p1.values), _interior(p2.values)])
    r = F.D1(yi, wgrad) - d1
    c = (F.D2(yi, wgrad) - d2) * g
    np.add(prob.coefficient_adjoint(r, c, p), const, out=out[1:, :, 1:-1])
    return out


def solve_nonlinear_null_control(hum: HUMSolver, y0: np.ndarray,
                                 tol_z: float, tol_terminal: float,
                                 max_newton: int) -> tuple:
    """Newton-Kantorovich loop z_{k+1} = W(b - N(z_k)) for the semilinear
    optimality system of hum's problem, weights and game; returns
    (ControlledTriple, history).

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
    a stall (`solvers._stalled`: delta_k >= delta_{k-3}), and with reason
    "budget" when max_newton steps end without convergence.

    The variational operator is the one linearized at zero, so every
    step reuses hum's one factorization: the Liusternik construction.
    The parts of the remainder that do not depend on z are computed once.
    """
    if max_newton < 1:
        raise ValueError(f"max_newton must be at least 1, got {max_newton}")
    prob, weights = hum.prob, hum.weights
    y0 = np.asarray(y0, dtype=float)

    def remainder_norm(N):
        r2 = weights.rho2_n**2
        return float(np.sqrt(sum(integral_q(prob.grid, prob.mesh, N_i**2, r2)
                                 for N_i in N)))

    parts = _remainder_parts(hum)
    zero = prob.new_field()
    N_prev = _nonlinear_remainders(prob, parts, zero, zero, zero)
    history = []
    triple = None
    for k in range(max_newton):
        triple = hum.solve(y0, -N_prev)
        N_cur = _nonlinear_remainders(prob, parts, triple.y, triple.p1,
                                      triple.p2)
        delta = remainder_norm(N_cur - N_prev)
        scale = 1.0 + remainder_norm(N_cur)
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
        if _stalled([r["remainder_delta"] for r in history]):
            raise NewtonFailureError(history, "diverged")
        N_prev = N_cur
    raise NewtonFailureError(history, "budget")
