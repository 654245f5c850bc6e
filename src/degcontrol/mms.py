"""Manufactured-solution refinement studies for the cylinder solver.

Two separated studies keep the error components clean:

* time order: y_ex = e^{-t} sin(pi x) on the constant domain, fixed fine
  space grid; the temporal error is isolated by differencing against a
  much finer time mesh on the same grid, so the (identical) spatial
  error cancels and the implicit-Euler slope 1 is measurable.
* space order: the stationary y_ex = sin(pi x); implicit Euler is exact
  for a steady state up to the spatial truncation, so the terminal error
  is purely spatial.  The degenerate coefficient a(x) = x^alpha makes
  the analytic source singular at x = 0 (a' ~ x^{alpha-1}), so the
  second-order rate is measured on an interior window away from the
  degeneracy point, where the graded mesh is smooth.
"""

from __future__ import annotations

import numpy as np

from .harness import build_run
from .solvers import CylinderProblem, solve_forward_semilinear

__all__ = ["manufactured_source", "time_order_study", "space_order_study"]


def _problem(N: int, M: int, alpha: float) -> CylinderProblem:
    return build_run({"grid": {"N": N, "M": M},
                      "geometry": {"alpha": alpha, "family": "constant"},
                      "nonlinearity": {"label": "zero"}})[0]


def manufactured_source(prob: CylinderProblem, decay: float) -> np.ndarray:
    """Source for y_ex = e^{-decay t} sin(pi x) with F = 0, constant domain.

    source = y_t - (a y_x)_x
           = e^{-decay t} (-decay sin(pi x)
                           - alpha pi x^{alpha-1} cos(pi x)
                           + pi^2 x^alpha sin(pi x))
    evaluated at interior nodes (the x^{alpha-1} term is singular at 0
    but every interior node is positive).
    """
    x = prob.grid.interior
    al = prob.deg.alpha
    spatial = (-decay * np.sin(np.pi * x)
               - al * np.pi * x ** (al - 1.0) * np.cos(np.pi * x)
               + np.pi**2 * x**al * np.sin(np.pi * x))
    t = prob.mesh.times
    return np.exp(-decay * t)[:, None] * spatial[None, :]


def _exact(prob: CylinderProblem, decay: float) -> np.ndarray:
    x = prob.grid.nodes
    t = prob.mesh.times
    return np.exp(-decay * t)[:, None] * np.sin(np.pi * x)[None, :]


def _window_norm(prob: CylinderProblem, row: np.ndarray,
                 lo: float = 0.25, hi: float = 0.9) -> float:
    x = prob.grid.nodes
    mask = (x >= lo) & (x <= hi)
    w = prob.grid.cell_volumes[mask]
    return float(np.sqrt(np.sum(w * row[mask] ** 2)))


def _fit_slope(h: np.ndarray, e: np.ndarray) -> float:
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


def time_order_study(N: int = 256, Ms=(16, 32, 64), M_ref: int = 1024,
                     alpha: float = 0.5, decay: float = 1.0) -> dict:
    """Implicit-Euler temporal order against a fine-time reference."""
    ref = _problem(N, M_ref, alpha)
    y_ref = solve_forward_semilinear(
        ref, _exact(ref, decay)[0], source=manufactured_source(ref, decay))
    errors = []
    for M in Ms:
        prob = _problem(N, M, alpha)
        y = solve_forward_semilinear(
            prob, _exact(prob, decay)[0],
            source=manufactured_source(prob, decay))
        errors.append(_window_norm(prob, y.values[-1] - y_ref.values[-1]))
    errors = np.asarray(errors)
    return {
        "M": np.asarray(Ms),
        "errors": errors,
        "slope": _fit_slope(1.0 / np.asarray(Ms, dtype=float), errors),
    }


def space_order_study(Ns=(32, 64, 128), M: int = 128,
                      alpha: float = 0.5) -> dict:
    """Interior spatial order on the stationary manufactured solution."""
    errors = []
    for N in Ns:
        prob = _problem(N, M, alpha)
        y = solve_forward_semilinear(
            prob, _exact(prob, 0.0)[0],
            source=manufactured_source(prob, 0.0))
        errors.append(_window_norm(prob, y.values[-1] - _exact(prob, 0.0)[-1]))
    errors = np.asarray(errors)
    return {
        "N": np.asarray(Ns),
        "errors": errors,
        "slope": _fit_slope(1.0 / np.asarray(Ns, dtype=float), errors),
    }
