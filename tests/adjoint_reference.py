"""Two-follower reference sweep of the coupled adjoint system.

`degcontrol.solvers.solve_adjoint_coupled` sweeps phi against the one
follower combination rho = alpha1 psi1 + alpha2 psi2 and marches psi1 and
psi2 once after convergence.  This reference sweeps phi against both
followers, with the game's couplings as given: each sweep marches phi
backward from tracking_1 psi1 + tracking_2 psi2 and then psi1 and psi2
forward from phi, until the largest update of either follower is at most
tol.  It is written for clarity, not memory, and no code path of the
package calls it.
"""

import numpy as np

from degcontrol.solvers import SweepFailureError


def two_follower_sweep(prob, phiT, control, tracking, Fsrc=None, F1=None,
                       F2=None, tol=1e-10, max_sweeps=200):
    """(phi, psi, history) of the adjoint system

        -phi_t + L* phi = Fsrc + tracking_1 psi1 + tracking_2 psi2,
        psi_i_t + L psi_i = F_i - control_i phi,

    for the couplings control, tracking (2, M+1, N+1) of
    `GameSpec.couplings`, in the layout of `solve_adjoint_coupled`: phi
    (M+1, k, N-1), psi (M+1, k, 2, N-1)."""
    ops = prob.linearized_ops()
    M, n, dt = prob.mesh.M, prob.grid.N - 1, prob.mesh.dt
    k = len(phiT)

    def source(F):
        if F is None:
            return np.zeros((M + 1, k, n))
        return np.asarray(F, dtype=float)[:, :, 1:-1].transpose(1, 0, 2)

    f0, fs = source(Fsrc), (source(F1), source(F2))
    control = np.asarray(control)[:, :, None, 1:-1]
    tracking = np.asarray(tracking)[:, :, None, 1:-1]
    psi = np.zeros((M + 1, k, 2, n))
    history = []
    for _ in range(max_sweeps):
        phi = np.zeros((M + 1, k, n))
        phi[M] = np.asarray(phiT, dtype=float)[:, 1:-1]
        phi[:M] = dt * (f0[:M] + tracking[0, :M] * psi[:M, :, 0]
                        + tracking[1, :M] * psi[:M, :, 1])
        ops.march_adjoint(phi, M - 1)
        new = np.zeros_like(psi)
        for i in (0, 1):
            new[1:, :, i] = dt * (fs[i][1:] - control[i, 1:] * phi[1:])
        ops.march(new.reshape(M + 1, 2 * k, n))
        history.append(float(np.max(np.abs(new - psi))))
        psi = new
        if not np.isfinite(history[-1]):
            break
        if history[-1] <= tol:
            return phi, psi, history
    raise SweepFailureError(history, "two-follower reference sweep")
