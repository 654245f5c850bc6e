"""Follower Nash quasi-equilibria, functionals and the convexity certificate.

For a fixed leader control h the followers minimize

    J_i = (alpha_i/2) int_{Od} wt(t) |y - y_id|^2 + (mu_i/2) int_{Oi} wt(t) |v^i|^2,

where wt is 1 for the Jacobian-weighted physical functionals (the factor
|Jac|^{-1} cancels under the pullback to the cylinder) and wt = l(t)
for the variant without the Jacobian factor.  The discrete gradient of
J_i with respect to v^i is exactly mu_i wt v^i + p^i on O_i, because the
adjoint p^i is built from the exact weighted transpose of the linearized
forward step; the quasi-equilibrium is the Picard fixed point of

    v^i = -(1/(mu_i wt)) p^i 1_{Oi}.

GameSpec.couplings builds this map (`Couplings.controls`) and the adjoint
tracking weight alpha_i wt 1_{Od} once per solve: the Nash fixed point
(its NashSolution carries them to the second-derivative form), the
gradients, the leader's HUM solver and the observability samplers.  The
NashSolution also carries the operators I + dt L(y), factored, that the
fixed point's last sweep built at its state y, so the second-derivative
form marches through them and builds nothing.

The second-derivative quadratic form follows the tangent/second-adjoint
(theta, eta) system; with the exact-transpose construction it is the
exact Hessian of the discrete J_1, so finite-difference cross-checks
hold to solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .grids import TrajectoryField, integral_q
from .solvers import (
    Couplings,
    CylinderProblem,
    LevelOps,
    SolverError,
    _interior,
    _source_array,
    fixed_point,
    follower_adjoints,
    solve_backward_linear,
    solve_forward_linear,
    solve_forward_semilinear,
)

__all__ = [
    "GameSpec",
    "NashSolution",
    "make_default_targets",
    "evaluate_functional",
    "nash_fixed_point",
    "functional_gradient",
    "second_derivative_form",
    "convexity_margin",
    "fit_mu_star",
]


@dataclass(frozen=True)
class GameSpec:
    """Weights, penalties and targets of the two-follower game.

    jacobian_weighting=True is the paper's functional (with the inverse
    Jacobian factor), whose cylinder form carries no time weight; False
    drops the Jacobian factor, which puts wt(t)=l(t) into the cylinder
    integrals.
    """

    alpha1: float
    alpha2: float
    mu1: float
    mu2: float
    jacobian_weighting: bool
    target1: TrajectoryField | None = None
    target2: TrajectoryField | None = None

    def __post_init__(self):
        # every refused field in one error
        faults = [f"{name} must be positive, got {getattr(self, name)}"
                  for name in ("alpha1", "alpha2", "mu1", "mu2")
                  if getattr(self, name) <= 0]
        if faults:
            raise ValueError("; ".join(faults))

    @property
    def alphas(self) -> tuple:
        return (self.alpha1, self.alpha2)

    @property
    def mus(self) -> tuple:
        return (self.mu1, self.mu2)

    def targets(self, prob: CylinderProblem) -> tuple:
        t1 = self.target1 if self.target1 is not None else prob.new_field()
        t2 = self.target2 if self.target2 is not None else prob.new_field()
        return (t1, t2)

    def time_weight(self, prob: CylinderProblem) -> np.ndarray:
        if self.jacobian_weighting:
            return np.ones(prob.mesh.M + 1)
        return np.atleast_1d(prob.dom.ell(prob.mesh.times))

    def couplings(self, prob: CylinderProblem) -> Couplings:
        """The two couplings of the followers' optimality system.

        Follower i plays v^i = -control_i p^i, and its adjoint p^i has the
        source tracking_i (y - y_id), where

            control_i = 1_{Oi} / (mu_i wt),    tracking_i = alpha_i wt 1_{Od}.
        """
        wt = self.time_weight(prob)[:, None]
        ind = (prob.indicator("O1"), prob.indicator("O2"))
        control = np.stack([ind[i] / (self.mus[i] * wt) for i in (0, 1)])
        return Couplings(control, wt * prob.indicator("Od"), self.alphas)


def make_default_targets(prob: CylinderProblem, weights,
                         amplitude: float) -> tuple:
    """Smooth bumps in Od of peak `amplitude`, with a time profile
    decaying like 1/rho0 of the Carleman `weights`.

    The profile keeps rho0 * y_id bounded on the mesh, the discrete
    stand-in for the square-summability hypothesis on rho y_id.  It is
    rho0's normalized inverse, exp(shift - log rho0) with the shift the
    least finite log, so it lies in [0, 1] and is 0 at t = T.
    """
    lo, hi = prob.windows.Od
    c, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = prob.grid.nodes
    r = np.clip((x - c) / half, -1.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        bump = np.where(np.abs(r) < 1.0,
                        np.exp(-1.0 / np.maximum(1.0 - r**2, 1e-300)), 0.0)
    bump *= amplitude * np.e  # peak value = amplitude
    profile = np.exp(weights.norm_shifts["rho0"] - weights.log_rho0)
    vals = profile[:, None] * bump[None, :]
    t1 = TrajectoryField(prob.grid, prob.mesh, vals)
    t2 = TrajectoryField(prob.grid, prob.mesh, 0.5 * vals)
    return t1, t2


def evaluate_functional(prob: CylinderProblem, game: GameSpec, i: int,
                        y: TrajectoryField, v_i: TrajectoryField) -> float:
    """J_i for a state y and follower control v_i (i in {1, 2})."""
    if i not in (1, 2):
        raise ValueError("follower index must be 1 or 2")
    alpha = game.alphas[i - 1]
    mu = game.mus[i - 1]
    target = game.targets(prob)[i - 1]
    wt = game.time_weight(prob)
    ind_d = prob.indicator("Od")
    ind_i = prob.indicator("O1" if i == 1 else "O2")
    track = integral_q(prob.grid, prob.mesh,
                       (y.values - target.values) ** 2 * ind_d, wt)
    pen = integral_q(prob.grid, prob.mesh, v_i.values ** 2 * ind_i, wt)
    return float(0.5 * alpha * track + 0.5 * mu * pen)


@dataclass
class NashSolution:
    """A quasi-equilibrium (v^i = -control_i p^i), its couplings, and the
    operators `ops` linearized at its state y, as the last sweep
    factored them."""

    y: TrajectoryField
    p1: TrajectoryField
    p2: TrajectoryField
    v1: TrajectoryField
    v2: TrajectoryField
    couplings: Couplings
    ops: LevelOps
    history: list = dc_field(default_factory=list)


def _follower_adjoints(ops: LevelOps, couplings: Couplings,
                       targets: tuple, y: TrajectoryField) -> np.ndarray:
    """Both follower adjoints at the state y, shape (2, M+1, N+1): the
    `follower_adjoints` of the sources tracking_i (y - y_id), marched
    through `ops`, the operators linearized at y."""
    return follower_adjoints(ops, np.stack(
        [couplings.tracking[i] * (y.values - targets[i].values)
         for i in (0, 1)]))


def nash_fixed_point(prob: CylinderProblem, game: GameSpec,
                     h: TrajectoryField | None, y0: np.ndarray) -> NashSolution:
    """Picard iteration on the followers' optimality system, by
    `solvers.fixed_point`: each sweep of p solves the semilinear state
    (StepFailureError if its march fails) with the current follower
    controls, then both adjoints with coefficients frozen at the new
    state.  The solution keeps the last sweep's operators, built there.
    """
    couplings, targets = game.couplings(prob), game.targets(prob)

    def sweep(p, out):
        y = solve_forward_semilinear(prob, y0, h, *couplings.controls(prob, p))
        ops = prob.ops_at_state(y)
        out[:] = _follower_adjoints(ops, couplings, targets, y)
        return y, ops

    p, history, (y, ops) = fixed_point(
        sweep, np.zeros((2, prob.mesh.M + 1, prob.grid.N + 1)),
        "nash optimality system")
    # one more control update so v matches the final adjoints exactly
    v1, v2 = couplings.controls(prob, p)
    p1, p2 = (TrajectoryField(prob.grid, prob.mesh, p_i) for p_i in p)
    return NashSolution(y, p1, p2, v1, v2, couplings, ops, history)


def functional_gradient(prob: CylinderProblem, game: GameSpec,
                        h: TrajectoryField | None, v1: TrajectoryField | None,
                        v2: TrajectoryField | None, y0: np.ndarray) -> tuple:
    """Riesz representatives mu_i wt v^i + p^i of D_{v^i} J_i on O_i.

    Returns the pair (i = 1, 2).  Recomputes the forward state and both
    follower adjoints from scratch, so the result is independent of any
    fixed-point construction.
    """
    y = solve_forward_semilinear(prob, y0, h=h, v1=v1, v2=v2)
    p = _follower_adjoints(prob.ops_at_state(y), game.couplings(prob),
                           game.targets(prob), y)
    wt = game.time_weight(prob)
    grads = []
    for i, v_i in enumerate((v1, v2)):
        ind = prob.indicator(f"O{i + 1}")
        v_vals = v_i.values if v_i is not None else 0.0
        grad = (game.mus[i] * wt[:, None] * v_vals + p[i]) * ind[None, :]
        # the quadrature puts no weight on t=0, so that slice of the control
        # does not enter J_i and its exact discrete gradient vanishes there
        grad[0] = 0.0
        grads.append(TrajectoryField(prob.grid, prob.mesh, grad))
    return tuple(grads)


def _dL_transpose_apply(prob: CylinderProblem, y: np.ndarray,
                        theta: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(dL_n[theta_n])^T p_n for all levels, in the volume inner product.

    y, theta, p: interior arrays (M+1, N-1).  dL_n[theta] = diag(r) +
    diag(q g_n) Dc with r = D11 theta + D12 (g_n Dc theta),
    q = D21 theta + D22 (g_n Dc theta), all derivative coefficients
    evaluated at (y, g_n Dc y).
    """
    w_arg = prob.gradient_argument(y)
    dth = prob.gradient_argument(theta)
    F = prob.F
    r = F.D11(y, w_arg) * theta + F.D12(y, w_arg) * dth
    q = F.D21(y, w_arg) * theta + F.D22(y, w_arg) * dth
    return prob.coefficient_adjoint(r, q * prob.grad_weights, p)


def second_derivative_form(prob: CylinderProblem, game: GameSpec,
                           state: NashSolution, vbar: TrajectoryField,
                           vtilde: TrajectoryField | None = None) -> float:
    """<D_1^2 J_1 (vbar, vtilde)> at the given state.

    Solves the tangent system for theta (direction vbar in O_1) and the
    second adjoint eta backward, both through the state's operators
    `state.ops`, the second adjoint's source combining the tracking term
    and the derivative of the adjoint operator along theta; then returns
    int_{O1} eta vtilde + mu_1 int wt vbar vtilde.  For vtilde=None the
    quadratic form at vbar is returned; otherwise the bilinear form in
    the order (vbar, vtilde).
    """
    other = vbar if vtilde is None else vtilde
    wt = game.time_weight(prob)
    theta = solve_forward_linear(state.ops, np.zeros(prob.grid.N + 1),
                                 _source_array(prob, v1=vbar))
    yi = _interior(state.y.values)
    ti = _interior(theta.values)
    pi = _interior(state.p1.values)
    g_eta = (_interior(state.couplings.tracking[0]) * ti
             - _dL_transpose_apply(prob, yi, ti, pi))
    eta = solve_backward_linear(state.ops, g_eta)
    ind1_full = prob.indicator("O1")
    cross = integral_q(prob.grid, prob.mesh,
                       eta.values * other.values * ind1_full)
    quad = integral_q(prob.grid, prob.mesh,
                      vbar.values * other.values * ind1_full, wt)
    return float(cross + game.mu1 * quad)


def _random_probe(prob: CylinderProblem, rng: np.random.Generator) -> TrajectoryField:
    """Random smooth direction supported in O_1."""
    x = prob.grid.nodes
    t = prob.mesh.times
    ind = prob.indicator("O1")
    c = rng.standard_normal(4)
    vals = (c[0] * np.sin(np.pi * np.outer(t, x))
            + c[1] * np.outer(np.cos(t), x)
            + c[2] * np.outer(t, 1 - x) + c[3])
    return TrajectoryField(prob.grid, prob.mesh, vals * ind[None, :])


# random probe directions per convexity margin
_PROBES = 4
# fit_mu_star's bracket of mu and its number of bisection steps
_MU_BRACKET = (1e-2, 1e6)
_MU_ITERS = 14


def convexity_margin(prob: CylinderProblem, game: GameSpec,
                     state: NashSolution, rng: np.random.Generator) -> dict:
    """Min of the normalized quadratic form over _PROBES random probe
    directions drawn from rng.

    certified=True iff the minimum is positive, which upgrades the
    quasi-equilibrium to a genuine local Nash equilibrium in v^1.
    """
    margins = []
    for _ in range(_PROBES):
        vbar = _random_probe(prob, rng)
        margins.append(second_derivative_form(prob, game, state, vbar)
                       / vbar.l2q_inner(vbar))
    m = float(np.min(margins))
    return {"margin": m, "certified": bool(m > 0.0),
            "margins": [float(v) for v in margins], "probes": _PROBES}


def fit_mu_star(prob: CylinderProblem, game: GameSpec,
                h: TrajectoryField | None, y0: np.ndarray) -> dict:
    """Bisection for the smallest mu (mu1=mu2) in _MU_BRACKET with a
    certified margin, in _MU_ITERS steps.

    Each trial re-solves the Nash fixed point and draws its probes from
    one fixed seed; a fixed point that fails (any SolverError, its
    sweep's or its state march's) counts as not certified.  Bisection
    runs on log(mu).
    """
    bracket = _MU_BRACKET
    lo, hi = np.log(bracket[0]), np.log(bracket[1])

    def certified(mu: float) -> bool:
        g = replace(game, mu1=mu, mu2=mu)
        try:
            st = nash_fixed_point(prob, g, h, y0)
        except SolverError:
            return False
        rep = convexity_margin(prob, g, st, np.random.default_rng(12345))
        return rep["certified"]

    if not certified(np.exp(hi)):
        return {"mu_star": float("inf"), "bracket": bracket, "iters": 0}
    if certified(np.exp(lo)):
        return {"mu_star": float(bracket[0]), "bracket": bracket, "iters": 0}
    for _ in range(_MU_ITERS):
        mid = 0.5 * (lo + hi)
        if certified(np.exp(mid)):
            hi = mid
        else:
            lo = mid
    return {"mu_star": float(np.exp(hi)), "bracket": bracket,
            "iters": _MU_ITERS}
