"""Reference forms of the semilinear state march.

`picard_march` is the per-step Picard march the package used before it
solved the whole trajectory by Newton's method: each step iterates
(I + dt L0_n) z = y^{n-1} + dt (f^n - F(z, g_n Dc z)) around the factors
of the base operator.  `sparse_residual` evaluates the backward-Euler
residual level by level with the CSR reference operators.  No code path
of the package calls either.
"""

import numpy as np
from scipy.linalg import lapack

from degcontrol.solvers import LevelOps

from sparse_reference import (assemble_drift, assemble_stiffness,
                              central_gradient_matrix)


class PicardFailure(RuntimeError):
    """The inner iteration of a step did not converge."""


def picard_march(prob, y0, src, tol=1e-10, max_inner=25):
    """Nodal trajectory (M+1, N+1) of the per-step Picard march.

    src: interior source (M+1, N-1).  Raises PicardFailure at the first
    step whose iteration does not reach tol (weighted L2 norm of the
    update) or whose state is not finite.
    """
    base = LevelOps(prob, prob.base_bands)
    dt, wv = prob.mesh.dt, prob.grid.interior_volumes
    dc = central_gradient_matrix(prob.grid)
    out = np.zeros((prob.mesh.M + 1, prob.grid.N + 1))
    out[0, 1:-1] = np.asarray(y0, dtype=float)[1:-1]
    y = out[0, 1:-1].copy()
    for n in range(1, prob.mesh.M + 1):
        g = prob.grad_weights[n]
        z = y.copy()
        for _ in range(max_inner):
            w = g * (dc @ z)
            rhs = y + dt * (src[n] - prob.F.F(z, w))
            z_new = lapack.dgttrs(*base._factors[n], rhs)[0]
            dz = z_new - z
            d = float(np.sqrt(np.sum(wv * dz * dz)))
            z = z_new
            if d <= tol * (1.0 + float(np.max(np.abs(z)))):
                break
        else:
            raise PicardFailure(f"step {n}: stalled at {d:.3e}")
        if not np.all(np.isfinite(z)):
            raise PicardFailure(f"step {n}: state not finite")
        out[n, 1:-1] = z
        y = z
    return out


def sparse_residual(prob, values, src):
    """R_m = Y_m - Y_{m-1} + dt (L0_m Y_m + F(Y_m, g_m Dc Y_m) - f_m), m >= 1.

    values: nodal trajectory (M+1, N+1); returns (M, N-1).
    """
    grid, dt = prob.grid, prob.mesh.dt
    winv_a = (assemble_stiffness(grid, prob.deg)
              .multiply(1.0 / grid.interior_volumes[:, None]).tocsr())
    dc = central_gradient_matrix(grid)
    y = values[:, 1:-1]
    rows = []
    for m in range(1, prob.mesh.M + 1):
        L0 = (prob.b_t[m] * winv_a
              + assemble_drift(grid, -prob.B_t[m] * prob.xi))
        w = prob.grad_weights[m] * (dc @ y[m])
        rows.append(y[m] - y[m - 1]
                    + dt * (L0 @ y[m] + prob.F.F(y[m], w) - src[m]))
    return np.array(rows)
