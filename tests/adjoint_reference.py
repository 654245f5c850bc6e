"""Two-follower reference sweep of the coupled adjoint system.

`degcontrol.solvers.solve_adjoint_coupled` sweeps phi against the one
follower combination rho = alpha1 psi1 + alpha2 psi2 and marches psi1 and
psi2 once after convergence.  This reference sweeps phi against both
followers: each sweep marches phi backward from alpha1 psi1 + alpha2 psi2
and then psi1 and psi2 forward from phi, until the largest update of
either follower is at most tol.  It is written for clarity, not memory,
and no code path of the package calls it.
"""

import numpy as np

from degcontrol.solvers import SweepFailureError


def two_follower_sweep(prob, phiT, Fsrc=None, F1=None, F2=None,
                       mus=(1.0, 1.0), alphas=(1.0, 1.0), tol=1e-10,
                       max_sweeps=200):
    """(phi, psi, history) of the full adjoint system, in the layout of
    `solve_adjoint_coupled`: phi (M+1, k, N-1), psi (M+1, k, 2, N-1)."""
    ops = prob.linearized_ops()
    M, n, dt = prob.mesh.M, prob.grid.N - 1, prob.mesh.dt
    k = len(phiT)

    def source(F):
        if F is None:
            return np.zeros((M + 1, k, n))
        return np.asarray(F, dtype=float)[:, :, 1:-1].transpose(1, 0, 2)

    f0, fs = source(Fsrc), (source(F1), source(F2))
    ind_od = prob.indicator_interior("Od")
    couplings = (prob.indicator_interior("O1") / mus[0],
                 prob.indicator_interior("O2") / mus[1])
    psi = np.zeros((M + 1, k, 2, n))
    history = []
    for _ in range(max_sweeps):
        rho = alphas[0] * psi[:, :, 0] + alphas[1] * psi[:, :, 1]
        phi = np.zeros((M + 1, k, n))
        phi[M] = np.asarray(phiT, dtype=float)[:, 1:-1]
        phi[:M] = dt * (f0[:M] + rho[:M] * ind_od)
        ops.march_adjoint(phi, M - 1)
        new = np.zeros_like(psi)
        for i in (0, 1):
            new[1:, :, i] = dt * (fs[i][1:] - phi[1:] * couplings[i])
        ops.march(new.reshape(M + 1, 2 * k, n))
        history.append(float(np.max(np.abs(new - psi))))
        psi = new
        if not np.isfinite(history[-1]):
            break
        if history[-1] <= tol:
            return phi, psi, history
    raise SweepFailureError(history, "two-follower reference sweep")
