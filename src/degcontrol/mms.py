"""Manufactured-solution refinement studies of a run's problem.

Both studies refine the given problem (F must be zero) and solve the
exact solution Y(xi, t) = e^{-decay t} sin(pi xi / l(t)) on (0, l(t)),
whose pull-back to the cylinder is e^{-decay t} sin(pi x) on every
domain.  Errors are measured at t = T on the interior window [0.25, 0.9],
away from the degeneracy point x = 0, where the source is singular
(a' ~ x^{alpha-1}) and the graded mesh is smooth.

* time order: decay 1, on M/4, M/2 and M steps at the problem's N; the
  temporal error is isolated by differencing against 8M steps on the
  same grid, so the (identical) spatial error cancels.
* space order: decay 0, on N, 2N and 4N nodes at the problem's M; the
  pulled-back solution sin(pi x) is stationary, so implicit Euler is
  exact up to the spatial truncation.  On a moving domain that includes
  the first-order upwind drift -B x y_x.
"""

from __future__ import annotations

import numpy as np

from .grids import SpatialGrid, TimeMesh
from .solvers import CylinderProblem, solve_forward_semilinear

__all__ = ["manufactured_source", "time_order_study", "space_order_study"]

# the interior window of the error norms
_LO, _HI = 0.25, 0.9


def manufactured_source(prob: CylinderProblem, decay: float) -> np.ndarray:
    """Source (M+1, N-1) for Y = e^{-decay t} sin(pi xi / l(t)), F = 0.

    source = Y_t - (xi^alpha Y_xi)_xi at xi = l(t) x, arg = pi xi / l:
      Y_t     = e^{-decay t} (-decay sin(arg) - pi xi l' / l^2 cos(arg))
      flux_xi = e^{-decay t} pi / l (alpha xi^{alpha-1} cos(arg)
                                     - xi^alpha pi / l sin(arg))
    evaluated at interior nodes (the xi^{alpha-1} term is singular at 0
    but every interior node is positive).
    """
    al = prob.deg.alpha
    t = prob.mesh.times[:, None]
    l, dl = prob.dom.ell(t), prob.dom.ell_prime(t)
    xi = l * prob.grid.interior[None, :]
    arg = np.pi * xi / l
    y_t = -decay * np.sin(arg) - np.pi * xi * dl / l**2 * np.cos(arg)
    flux_xi = np.pi / l * (al * xi ** (al - 1.0) * np.cos(arg)
                           - xi**al * np.pi / l * np.sin(arg))
    return np.exp(-decay * t) * (y_t - flux_xi)


def _rung(prob: CylinderProblem, N: int, M: int) -> CylinderProblem:
    """prob on grid (N, M)."""
    return CylinderProblem(prob.deg, prob.gw, prob.dom, prob.windows,
                           SpatialGrid(N, prob.grid.gamma),
                           TimeMesh(M, prob.mesh.T), prob.F)


def _terminal(prob: CylinderProblem, decay: float) -> np.ndarray:
    """The computed manufactured solution at t = T, from sin(pi x)."""
    y = solve_forward_semilinear(prob, np.sin(np.pi * prob.grid.nodes),
                                 source=manufactured_source(prob, decay))
    return y.values[-1]


def _window_norm(prob: CylinderProblem, row: np.ndarray) -> float:
    x = prob.grid.nodes
    mask = (x >= _LO) & (x <= _HI)
    w = prob.grid.cell_volumes[mask]
    return float(np.sqrt(np.sum(w * row[mask] ** 2)))


def _fit_slope(h: np.ndarray, e: np.ndarray) -> float:
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


def time_order_study(prob: CylinderProblem) -> dict:
    """Implicit-Euler temporal order against a fine-time reference."""
    N, M = prob.grid.N, prob.mesh.M
    Ms = np.array([M // 4, M // 2, M])
    y_ref = _terminal(_rung(prob, N, 8 * M), 1.0)
    errors = np.array([_window_norm(rung, _terminal(rung, 1.0) - y_ref)
                       for rung in (_rung(prob, N, m) for m in Ms)])
    return {"M": Ms, "errors": errors, "slope": _fit_slope(1.0 / Ms, errors)}


def space_order_study(prob: CylinderProblem) -> dict:
    """Interior spatial order on the stationary manufactured solution."""
    N, M = prob.grid.N, prob.mesh.M
    Ns = np.array([N, 2 * N, 4 * N])
    errors = np.array([
        _window_norm(rung, _terminal(rung, 0.0)
                     - np.sin(np.pi * rung.grid.nodes))
        for rung in (_rung(prob, n, M) for n in Ns)])
    return {"N": Ns, "errors": errors, "slope": _fit_slope(1.0 / Ns, errors)}
