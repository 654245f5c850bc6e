"""Forward, backward and coupled PDE solvers on the fixed cylinder.

All systems derive from the primal operator

    L_n = b(t_n) W^{-1} A + upwind(-B(t_n) x) + diag(D1F) + diag(D2F g_n) Dc,

with g_n = C(t_n) beta(x) and Dc the central gradient.  Every L_n is
tridiagonal; `LevelOps` keeps the operators of all levels as one band
array of shape (M+1, 3, N-1) (see `operators` for the layout), assembled
vectorized over levels.  On first use the implicit step matrices
I + dt L_n of all levels are factored by one LAPACK dgttrf call on their
block-diagonal stack.  Backward problems use the weighted transpose
W^{-1} L_n^T W of the exact forward operator, solved through the same
factors transposed (dgttrs with trans="T"), so every
forward/backward pair obeys the summation-by-parts identity

    sum_n dt <f^n, p^n>_W + <y^0, p^1>_W = sum_n dt <g^n, y^n>_W

to roundoff.  Gradients of the tracking functionals computed from these
adjoints are therefore exact discrete derivatives, not approximations.

Time stepping is backward Euler.  The semilinear state march solves the
whole backward-Euler trajectory at once by Newton's method: the residual
of every level is one vectorized expression, and each correction is one
forward march through the operators linearized at the current iterate,
whose steps I + dt L_n are exactly the blocks of the Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

from .geometry import ControlGeometry, DegeneracySpec, GradientWeightSpec, MovingDomainSpec
from .grids import SpatialGrid, TimeMesh, TrajectoryField
from .operators import (band_apply, band_transpose, band_weighted_transpose,
                        drift_bands, stiffness_bands)
from .semilinear import SemilinearF

__all__ = [
    "CylinderProblem",
    "LevelOps",
    "SolverError",
    "StepFailureError",
    "SweepFailureError",
    "solve_forward_semilinear",
    "solve_forward_linear",
    "solve_backward_linear",
    "follower_adjoints",
    "fixed_point",
    "solve_linearized_coupled",
    "solve_adjoint_coupled",
    "sweep_adjoint",
    "march_followers",
    "Couplings",
    "LinearizedSolution",
    "AdjointBlock",
    "energy_diagnostics",
    "central_gradient_bands",
]


class SolverError(RuntimeError):
    """A solver failed: the CLI's exit 3."""


class StepFailureError(SolverError):
    """Newton's method on the semilinear state trajectory failed.

    Raised for a starting residual that is not finite, at the first
    level where it is not; when no step lowers the first level's
    residual below the largest one, at level 1; or when the Newton steps
    run out, at the level with the largest residual.  residual is that
    level's max-norm residual.
    """

    def __init__(self, time_index: int, residual: float):
        super().__init__(
            f"semilinear march: residual {residual:.3e} at level {time_index}"
        )
        self.time_index = time_index
        self.residual = residual


class SweepFailureError(SolverError):
    """Trajectory-level Picard sweep failed to converge."""

    def __init__(self, history: Sequence[float], what: str):
        super().__init__(
            f"{what}: sweep residual {history[-1]:.3e} after {len(history)} sweeps"
        )
        self.history = list(history)


def central_gradient_bands(grid: SpatialGrid) -> np.ndarray:
    """Bands (3, N-1) of the central difference u_x at interior nodes.

    Row j (node x_{j+1}) is (u_{j+2} - u_j) / (x_{j+2} - x_j); boundary
    values are zero (Dirichlet closure).  On the smoothly graded mesh this
    is second-order accurate.
    """
    x = grid.nodes
    denom = x[2:] - x[:-2]  # length N-1
    bands = np.zeros((3, grid.N - 1))
    bands[0, 1:] = -1.0 / denom[1:]
    bands[2, :-1] = 1.0 / denom[:-1]
    return bands


def _interior(values: np.ndarray) -> np.ndarray:
    return values[..., 1:-1]


class LevelOps:
    """Per-level operators L_n as bands and LU factors of (I + dt L_n).

    `bands[n]` holds L_n (shape (M+1, 3, N-1)); `bands_t` the bands of its
    weighted transpose.  `march` and `march_adjoint` step forward and
    backward through the same dgttrf factors, one or many columns at a
    time; the first march factors all levels in one dgttrf call.
    `march_adjoint` never forms the weighted transpose: it marches W p,
    with one W scaling per march.  The space-time HUM assembly reads
    `bands` and `bands_t`.  Instances are immutable once built and
    shared by sweeps.
    """

    def __init__(self, prob: "CylinderProblem", bands: np.ndarray):
        self.prob = prob
        self.bands = bands
        self._wv = prob.grid.interior_volumes

    @classmethod
    def build(cls, prob: "CylinderProblem", reaction: np.ndarray,
              grad_coeff: np.ndarray) -> "LevelOps":
        """reaction, grad_coeff: arrays of shape (M+1, N-1)."""
        bands = prob.base_bands.copy()
        bands[:, 1] += reaction
        bands += grad_coeff[:, None, :] * prob.Dc_bands
        return cls(prob, bands)

    @cached_property
    def bands_t(self) -> np.ndarray:
        return band_weighted_transpose(self.bands, self._wv)

    @cached_property
    def _factors(self) -> list:
        # one dgttrf on the stacked levels: the zero band corners decouple
        # them, so no elimination step or row interchange crosses a level,
        # and each level's slice (pivots made level-local) holds the bits
        # of its own call
        dt = self.prob.mesh.dt
        L, _, n = self.bands.shape
        lo, d, up = self.bands.transpose(1, 0, 2)
        dl, d, du, du2, ipiv, info = lapack.dgttrf(
            (dt * lo).ravel()[1:], (1.0 + dt * d).ravel(),
            (dt * up).ravel()[:-1])
        if info > 0:
            raise SolverError(
                f"level {(info - 1) // n}: I + dt L_n is singular")
        ipiv = ipiv.reshape(L, n) - n * np.arange(L, dtype=ipiv.dtype)[:, None]
        return [(dl[s:s + n - 1], d[s:s + n], du[s:s + n - 1],
                 du2[s:s + n - 2], ipiv[m])
                for m, s in enumerate(range(0, L * n, n))]

    def march(self, rows: np.ndarray) -> None:
        """Forward march y^m = (I + dt L_m)^{-1} (y^{m-1} + dt f^m), in place.

        rows: (M+1, N-1) or (M+1, k, N-1), each rows[m] C-contiguous.  On
        entry rows[0] holds y^0 and rows[m] holds dt f^m; on exit rows[m]
        holds y^m.  The k columns are the right-hand sides of one dgttrs
        call per level, which runs the one-column recurrence on each, so
        every column equals its own one-column march bit for bit.
        """
        factors = self._factors
        for m in range(1, len(rows)):
            b = rows[m]
            np.add(rows[m - 1], b, out=b)
            lapack.dgttrs(*factors[m], b.T, overwrite_b=1)

    def march_adjoint(self, rows: np.ndarray, start: int) -> None:
        """Backward march with the weighted transposes, in place.

        p^m = (I + dt W^{-1} L_m^T W)^{-1} (p^{m+1} + dt g^m) for m = start
        down to 0, by the transposed factors; p^{M+1} = 0.  On entry
        rows[m] holds dt g^m for m <= start, and rows[start+1] the
        terminal row when start < M; the terminal row is left as it is.
        Layout as in `march`.

        The march runs on q = W p: the live rows are scaled by W once,
        q^m = (I + dt L_m)^{-T} (q^{m+1} + W dt g^m) needs only an add
        and a dgttrs per level, and the rows are unscaled once at the end.
        The terminal row is added to rows[start] before the scaling.
        """
        factors = self._factors
        if start < len(rows) - 1:
            np.add(rows[start], rows[start + 1], out=rows[start])
        live = rows[:start + 1]
        np.multiply(live, self._wv, out=live)
        for m in range(start, -1, -1):
            b = rows[m]
            if m < start:
                np.add(b, rows[m + 1], out=b)
            lapack.dgttrs(*factors[m], b.T, trans="T", overwrite_b=1)
        np.divide(live, self._wv, out=live)


class CylinderProblem:
    """Bundle of all static data for one discrete cylinder problem.

    Holds the geometry specs, grid/mesh, nonlinearity and the cached
    per-level base operators L0_n = b_n W^{-1}A + upwind(-B_n x).
    """

    def __init__(self, deg: DegeneracySpec, gw: GradientWeightSpec,
                 dom: MovingDomainSpec, windows: ControlGeometry,
                 grid: SpatialGrid, mesh: TimeMesh, F: SemilinearF):
        if abs(dom.T - mesh.T) > 1e-14:
            raise ValueError("moving-domain horizon and time mesh disagree on T")
        self.deg, self.gw, self.dom, self.windows = deg, gw, dom, windows
        self.grid, self.mesh, self.F = grid, mesh, F
        self.xi = grid.interior
        b, B, C = dom.coefficients(deg, gw, mesh.times)
        self.b_t = np.atleast_1d(b)
        self.B_t = np.atleast_1d(B)
        self.C_t = np.atleast_1d(C)
        self.beta_i = gw.beta(self.xi, deg)
        self.Dc_bands = central_gradient_bands(grid)
        self._lin_ops = None
        self._ind = {}

    @classmethod
    def default(cls, N: int, M: int) -> "CylinderProblem":
        """The default config's problem on grid (N, M).

        Stays only for `perfbench/worker.py` until the benchmark no
        longer calls it (ROADMAP direction 12); every other problem is
        built by `harness.build_run`.
        """
        from .harness import build_run
        return build_run({"grid": {"N": N, "M": M}})[0]

    # -- static pieces -------------------------------------------------

    def indicator(self, name: str) -> np.ndarray:
        """Window indicator on all N+1 nodes, cached."""
        if name not in self._ind:
            self._ind[name] = self.windows.indicator(name, self.grid.nodes)
        return self._ind[name]

    def indicator_interior(self, name: str) -> np.ndarray:
        return self.indicator(name)[1:-1]

    @cached_property
    def grad_weights(self) -> np.ndarray:
        """g_n = C(t_n) beta(x) at interior nodes, shape (M+1, N-1)."""
        return self.C_t[:, None] * self.beta_i[None, :]

    @cached_property
    def base_bands(self) -> np.ndarray:
        """Bands of L0_n = b_n W^{-1} A + upwind(-B_n x), all levels."""
        winv_a = (1.0 / self.grid.interior_volumes) * stiffness_bands(
            self.grid, self.deg)
        drift = drift_bands(self.grid, -self.B_t[:, None] * self.xi[None, :])
        return self.b_t[:, None, None] * winv_a[None] + drift

    @cached_property
    def Dc_bands_t(self) -> np.ndarray:
        """Bands of the plain transpose Dc^T of the central gradient."""
        return band_transpose(self.Dc_bands)

    def coefficient_adjoint(self, r: np.ndarray, c: np.ndarray,
                            p: np.ndarray) -> np.ndarray:
        """W^{-1} (diag(r_n) + diag(c_n) Dc)^T W p_n on every level.

        Evaluated as r p + W^{-1} Dc^T (c W p), with no operator formed:
        the weighted transpose of a change of the coefficients of L_n
        (reaction r and gradient coefficient c), applied without
        subtracting two full operators.  r, c: (M+1, N-1); p: (..., M+1,
        N-1).
        """
        wv = self.grid.interior_volumes
        return r * p + band_apply(self.Dc_bands_t, c * wv * p) / wv

    def linearized_ops(self) -> LevelOps:
        """Operators of the system linearized at the zero state."""
        if self._lin_ops is None:
            self._lin_ops = self.ops_at_state(self.new_field())
        return self._lin_ops

    def gradient_argument(self, rows: np.ndarray) -> np.ndarray:
        """w_n = g_n Dc y_n on every level, the gradient argument of F, for
        the interior rows (..., M+1, N-1) of a trajectory."""
        return self.grad_weights * band_apply(self.Dc_bands, rows)

    def ops_at_state(self, y: TrajectoryField) -> LevelOps:
        """Operators of the equation linearized at the trajectory y."""
        yi = _interior(y.values)
        w = self.gradient_argument(yi)
        return LevelOps.build(self, self.F.D1(yi, w),
                              self.F.D2(yi, w) * self.grad_weights)

    def new_field(self) -> TrajectoryField:
        return TrajectoryField(self.grid, self.mesh)


# -- forward / backward kernels -----------------------------------------


def _source_array(prob: CylinderProblem, h=None, v1=None, v2=None, extra=None) -> np.ndarray:
    """Combine controls (masked to their windows) and a free source, the
    interior rows `extra` (M+1, N-1).

    Returns the interior source array of shape (M+1, N-1).
    """
    src = np.zeros((prob.mesh.M + 1, prob.grid.N - 1))
    for f, win in ((h, "O"), (v1, "O1"), (v2, "O2")):
        if f is not None:
            src += _interior(f.values) * prob.indicator_interior(win)[None, :]
    if extra is not None:
        src += extra
    return src


# Newton on the semilinear state trajectory: the relative tolerance of
# its stop, its step budget and its smallest line-search step (about 1e-3)
_TOL = 1e-10
_MAX_STEPS = 100
_MIN_STEP = 2.0 ** -10


def _semilinear_residual(prob: CylinderProblem, rows: np.ndarray,
                         src: np.ndarray) -> np.ndarray:
    """Backward-Euler residuals of the trajectory rows, levels 1..M.

    R_m = Y_m - Y_{m-1} + dt (L0_m Y_m + F(Y_m, g_m Dc Y_m) - f_m) for the
    interior rows (M+1, N-1) and source src (M+1, N-1); shape (M, N-1).
    """
    y = rows[1:]
    r = band_apply(prob.base_bands[1:], y)
    r += prob.F.F(y, prob.gradient_argument(rows)[1:])
    r -= src[1:]
    r *= prob.mesh.dt
    r += y
    r -= rows[:-1]
    return r


def solve_forward_semilinear(prob: CylinderProblem, y0: np.ndarray,
                             h: TrajectoryField | None = None,
                             v1: TrajectoryField | None = None,
                             v2: TrajectoryField | None = None,
                             source: np.ndarray | None = None
                             ) -> TrajectoryField:
    """Backward-Euler march of the semilinear state equation.

    source, if given, holds the interior rows (M+1, N-1) of a free
    source added to the window-masked controls.

    Solves the residual equations R_m = 0 of all levels (see
    `_semilinear_residual`) together by Newton's method, from y0 on every
    level.  The correction of each step is one forward march through
    `prob.ops_at_state` at the iterate.  A step is taken when it lowers
    the largest max-norm level residual r.  Otherwise the levels up to
    the first one whose new residual is not below r (the front) take it,
    and every later level restarts from the front's new state: the
    Jacobian's blocks are lower bidiagonal, so the leading levels have
    converged even when the linearization at the old iterate was poor
    further on.  When the first level is not below r the step is halved,
    down to about 1e-3.  The march stops when the correction is at most
    1e-10 (1 + max|Y|), or when M times the largest level residual is:
    that bounds the level sum of the residual, an estimate of the next
    correction, which this stop does not take; with F = 0 that is one
    march.  Raises StepFailureError for a residual that is not finite
    at the start (a non-finite y0 or source, before any march), for a
    first level that no step lowers below r, or after 100 steps.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (prob.grid.N + 1,):
        raise ValueError("y0 must be a nodal row of length N+1")
    src = _source_array(prob, h, v1, v2, source)
    out = prob.new_field()
    out.values[:] = y0
    out.zero_boundary()
    rows = _interior(out.values)

    def residual(trial):  # and the max-norm of each level's residual
        res = _semilinear_residual(prob, trial, src)
        return res, np.max(np.abs(res), axis=1)

    def bound():
        return _TOL * (1.0 + float(np.max(np.abs(rows))))

    def settled():
        return prob.mesh.M * float(np.max(levels)) <= bound()

    res, levels = residual(rows)
    bad = ~np.isfinite(levels)
    if bad.any():
        m = int(np.argmax(bad))
        raise StepFailureError(m + 1, float(levels[m]))
    if settled():
        return out
    corr = np.zeros_like(rows)
    for _ in range(_MAX_STEPS):
        np.negative(res, out=corr[1:])
        prob.ops_at_state(out).march(corr)
        if float(np.max(np.abs(corr))) <= bound():
            rows += corr
            return out
        r, step = float(np.max(levels)), 1.0
        while True:
            trial = rows + step * corr
            res, levels = residual(trial)
            behind = ~(levels < r)  # not below r, or not finite
            if not behind.any():
                break
            front = int(np.argmax(behind))
            if front > 0:
                trial[front + 1:] = trial[front]
                res, levels = residual(trial)
                break
            if step <= _MIN_STEP:
                raise StepFailureError(1, float(levels[0]))
            step *= 0.5
        rows[:] = trial
        if settled():
            return out
    m = int(np.argmax(levels))
    raise StepFailureError(m + 1, float(levels[m]))


def solve_forward_linear(ops: LevelOps, y0: np.ndarray,
                         source: np.ndarray) -> TrajectoryField:
    """March y^n = (I + dt L_n)^{-1} (y^{n-1} + dt f^n) with f = source."""
    prob = ops.prob
    out = prob.new_field()
    out.values[0] = np.asarray(y0, dtype=float)
    out.zero_boundary()
    rows = _interior(out.values)
    np.multiply(prob.mesh.dt, np.asarray(source, dtype=float)[1:],
                out=rows[1:])
    ops.march(rows)
    return out


def solve_backward_linear(ops: LevelOps, source: np.ndarray) -> TrajectoryField:
    """Reversed-time march with the weighted-transpose operators.

    The final level is free (p^{M+1}=0 convention), which makes this the
    exact adjoint of solve_forward_linear.
    """
    prob = ops.prob
    out = prob.new_field()
    rows = _interior(out.values)
    np.multiply(prob.mesh.dt, np.asarray(source, dtype=float), out=rows)
    ops.march_adjoint(rows, prob.mesh.M)
    return out


def follower_adjoints(ops: LevelOps, sources: np.ndarray) -> np.ndarray:
    """Both follower adjoints -p_i_t + L* p_i = sources[i], p_i^{M+1} = 0.

    sources: (2, M+1, N+1).  Returns (p1, p2) as one array (2, M+1, N+1)
    with zero boundary columns.  The two march backward as the two
    columns of one march, each equal to its own `solve_backward_linear`
    bit for bit.
    """
    prob = ops.prob
    M = prob.mesh.M
    rows = np.multiply(prob.mesh.dt, _interior(sources).transpose(1, 0, 2),
                       out=np.empty((M + 1, 2, prob.grid.N - 1)))
    ops.march_adjoint(rows, M)
    p = np.zeros(np.shape(sources))
    p[..., 1:-1] = rows.transpose(1, 0, 2)
    return p


@dataclass(frozen=True)
class Couplings:
    """The followers' couplings, built once per solve by
    `nash.GameSpec.couplings`: control[i] = 1_Oi / (mu_i wt) and
    tracking[i] = alphas[i] observed, with observed = wt 1_Od; control and
    tracking (2, M+1, N+1), observed (M+1, N+1)."""

    control: np.ndarray
    observed: np.ndarray
    alphas: tuple

    @cached_property
    def tracking(self) -> np.ndarray:
        return np.stack([a * self.observed for a in self.alphas])

    def controls(self, prob: CylinderProblem, p) -> list:
        """[v1, v2] with v^i = -control_i p^i, for p = (p^1, p^2) values."""
        return [TrajectoryField(prob.grid, prob.mesh, -self.control[i] * p[i])
                for i in (0, 1)]


# fixed_point's stop: the largest update at which it stops, its budget
_SWEEP_TOL = 1e-10
_MAX_SWEEPS = 300


def _stalled(updates) -> bool:
    """No net contraction over three steps: update k >= update k-3."""
    return len(updates) >= 4 and updates[-1] >= updates[-4]


def fixed_point(sweep, x: np.ndarray, what: str) -> tuple:
    """Picard iteration x <- G(x) of the sweep `what` from x (overwritten):
    sweep(x, out) fills out with G(x) and returns what else it computed.
    Stops at an update max|G(x) - x| (np.max: a NaN shows) of at most
    _SWEEP_TOL; raises SweepFailureError, naming why: "not finite",
    "stalled" (`_stalled`) or "budget" (_MAX_SWEEPS sweeps).  Returns the
    fixed point, the updates and the last sweep's return."""
    out, history = np.empty_like(x), []
    for _ in range(_MAX_SWEEPS):
        result = sweep(x, out)
        np.subtract(x, out, out=x)
        history.append(float(np.max(np.abs(x, out=x))))
        x, out = out, x
        if history[-1] <= _SWEEP_TOL:
            return x, history, result
        if not np.isfinite(history[-1]):
            raise SweepFailureError(history, f"{what} (not finite)")
        if _stalled(history):
            raise SweepFailureError(history, f"{what} (stalled)")
    raise SweepFailureError(history, f"{what} (budget)")


@dataclass
class LinearizedSolution:
    y: TrajectoryField
    p1: TrajectoryField
    p2: TrajectoryField
    history: list


def solve_linearized_coupled(prob: CylinderProblem, y0: np.ndarray,
                             couplings: Couplings,
                             h: TrajectoryField | None = None,
                             H: TrajectoryField | None = None,
                             H1: TrajectoryField | None = None,
                             H2: TrajectoryField | None = None
                             ) -> LinearizedSolution:
    """Forward-backward system linearized at zero, by trajectory Picard.

    y_t + L y = h 1_O - control_1 p1 - control_2 p2 + H,   y(0)=y0,
    -p_i_t + L* p_i = tracking_i y + H_i,                  p_i(T)=0,

    with the game's `couplings`; p1 and p2 are `follower_adjoints`.
    Sweeps p by `fixed_point`.
    """
    ops = prob.linearized_ops()
    extra = None if H is None else _interior(H.values)
    hsrc = np.stack([np.zeros_like(couplings.observed) if Hi is None
                     else Hi.values for Hi in (H1, H2)])

    def sweep(p, out):
        src = _source_array(prob, h, *couplings.controls(prob, p), extra)
        y = solve_forward_linear(ops, y0, src)
        out[:] = follower_adjoints(ops, couplings.tracking * y.values + hsrc)
        return y

    p, history, y = fixed_point(sweep, np.zeros_like(hsrc),
                                "linearized forward-backward coupling")
    p1, p2 = (TrajectoryField(prob.grid, prob.mesh, p_i) for p_i in p)
    return LinearizedSolution(y, p1, p2, history)


@dataclass
class AdjointBlock:
    """k coupled adjoint solutions, one column each, in march layout.

    phi: (M+1, k, N-1) and psi: (M+1, k, 2, N-1) interior values, psi
    holding the follower columns psi1, psi2.  history holds the largest
    update of rho = alpha1 psi1 + alpha2 psi2 in each sweep.
    """

    phi: np.ndarray
    psi: np.ndarray
    history: list


_ADJOINT = "adjoint forward-backward coupling"


def _span(coupling: np.ndarray) -> slice:
    """The interior nodes, first to last, at which the coupling
    (M+1, N-1) is nonzero on some level; it is zero off them.  A run
    that reaches it reads the coupling's windows, so they hold a node."""
    nodes = np.flatnonzero(np.any(coupling != 0.0, axis=0))
    return slice(nodes[0], nodes[-1] + 1)


def _levels(src, levels: slice):
    """A column source (cols, rows) restricted to the levels; None stays."""
    return None if src is None else (src[0], src[1][levels])


def _coupled_source(out: np.ndarray, src, coupling: np.ndarray,
                    span: slice, x: np.ndarray, dt: float) -> None:
    """out = dt (f + coupling x), with the coupling applied on its span.

    out, x: (L, k, N-1); coupling: its values on the span, (L, 1, width).
    src is None or (cols, f), f (L, len(cols), N-1) the source f of the
    columns cols, a slice; the other columns have none.  Off the span
    out is dt f, the bits of dt (f + 0 x) for finite x.
    """
    if src is None:
        out.fill(0.0)
    else:
        cols, f = src
        out[:, :cols.start] = 0.0
        out[:, cols.stop:] = 0.0
        np.multiply(f, dt, out=out[:, cols])
    on = out[..., span]
    np.multiply(x[..., span], coupling, out=on)
    if src is not None:
        np.add(f[..., span], on[:, cols], out=on[:, cols])
    np.multiply(on, dt, out=on)


def sweep_adjoint(prob: CylinderProblem, phi: np.ndarray,
                  couplings: Couplings, f0=None, f_rho=None) -> list:
    """Sweeps phi and rho = alpha1 psi1 + alpha2 psi2 of the coupled
    adjoint system (see `solve_adjoint_coupled`) by `fixed_point` on rho;
    returns the history of updates.

    phi: (M+1, k, N-1), each phi[m] C-contiguous, holding the terminal
    rows at level M; it is solved in place.  f0 and f_rho, the sources of
    phi and rho, are None or (cols, rows): rows (M+1, len(cols), N-1) in
    march layout, the source of the columns cols (a slice), and the
    other columns have none.  Each sweep marches phi backward from
    f0 + wt 1_Od rho, then rho forward from f_rho - c_rho phi, with
    c_rho = alpha1 control_1 + alpha2 control_2; each coupling is applied
    on the nodes of its windows only.
    """
    ops = prob.linearized_ops()
    M, dt = prob.mesh.M, prob.mesh.dt
    observed = _interior(couplings.observed)
    control = _interior(couplings.control)
    c_rho = couplings.alphas[0] * control[0] + couplings.alphas[1] * control[1]
    obs_span, rho_span = _span(observed), _span(c_rho)
    # levels 0..M-1 of the phi source, 1..M of rho's; rho's coupling is
    # negated, as f + (-c) x is the same bits as f - c x
    obs = observed[:M, None, obs_span]
    neg_c_rho = -c_rho[1:, None, rho_span]
    f0, f_rho = _levels(f0, slice(None, M)), _levels(f_rho, slice(1, None))

    def sweep(rho, out):
        _coupled_source(phi[:M], f0, obs, obs_span, rho[:M], dt)
        ops.march_adjoint(phi, M - 1)
        out[0] = 0.0  # rho(0) = 0
        _coupled_source(out[1:], f_rho, neg_c_rho, rho_span, phi[1:], dt)
        ops.march(out)

    return fixed_point(sweep, np.zeros(phi.shape), _ADJOINT)[1]


def march_followers(prob: CylinderProblem, phi: np.ndarray,
                    couplings: Couplings, history: list, f1=None,
                    f2=None) -> AdjointBlock:
    """The AdjointBlock of the swept phi: psi_i marched from
    F_i - control_i phi, psi1 and psi2 as the two halves of one march.

    phi (M+1, k, N-1) and history are those of `sweep_adjoint`, and
    f1, f2 the followers' sources in its (cols, rows) form.  Raises
    SweepFailureError, with NaN appended to history, if phi^0 or a
    follower is not finite: no rho update sees them.
    """
    M, dt = prob.mesh.M, prob.mesh.dt
    k, n = phi.shape[1:]
    psi = np.zeros((M + 1, 2, k, n))
    control = _interior(couplings.control)
    for i, fi in enumerate((f1, f2)):
        span = _span(control[i])
        _coupled_source(psi[1:, i], _levels(fi, slice(1, None)),
                        -control[i, 1:, None, span], span, phi[1:], dt)
    prob.linearized_ops().march(psi.reshape(M + 1, 2 * k, n))
    psi = psi.transpose(0, 2, 1, 3)
    if not (np.all(np.isfinite(phi[0])) and np.all(np.isfinite(psi))):
        history.append(float("nan"))
        raise SweepFailureError(history, f"{_ADJOINT} (not finite)")
    return AdjointBlock(phi=phi, psi=psi, history=history)


def solve_adjoint_coupled(prob: CylinderProblem, phiT: np.ndarray,
                          couplings: Couplings, Fsrc=None, F1=None, F2=None
                          ) -> AdjointBlock:
    """Coupled adjoint system (phi, psi1, psi2) of the game's `couplings`.

    -phi_t + L* phi = Fsrc + tracking_1 psi1 + tracking_2 psi2, phi(T)=phiT,
    psi_i_t + L psi_i = F_i - control_i phi,                     psi_i(0)=0.

    As tracking_i = alpha_i wt 1_Od, phi sees the followers only through
    rho = alpha1 psi1 + alpha2 psi2, the solution of the same forward
    equation with source alpha1 F1 + alpha2 F2 and coupling c_rho =
    alpha1 control_1 + alpha2 control_2.  `sweep_adjoint` sweeps phi and
    rho, then `march_followers` marches psi1 and psi2 once from the
    converged phi.
    phiT holds k terminal rows (k, N+1), each source is None or an array
    (k, M+1, N+1), and all k columns sweep in one solve per level.
    Raises SweepFailureError as `fixed_point` does, or, with NaN the
    last history entry, if phi^0 or a follower is not finite.
    """
    M, n = prob.mesh.M, prob.grid.N - 1
    terminal = np.asarray(phiT, dtype=float)
    if terminal.ndim != 2 or terminal.shape[1] != n + 2:
        raise ValueError("phiT must be a block of terminal rows (k, N+1)")
    k = len(terminal)

    def source(F):  # (cols, rows) of all k columns in march layout
        if F is None:
            return None
        if np.shape(F) != (k, M + 1, n + 2):
            raise ValueError(f"sources must have shape {(k, M + 1, n + 2)}")
        return slice(0, k), _interior(np.asarray(F, dtype=float)).transpose(
            1, 0, 2)

    f0, f1, f2 = source(Fsrc), source(F1), source(F2)
    terms = [a * f[1] for a, f in zip(couplings.alphas, (f1, f2))
             if f is not None]
    f_rho = (slice(0, k), sum(terms)) if terms else None
    phi = np.zeros((M + 1, k, n))
    phi[M] = _interior(terminal)
    history = sweep_adjoint(prob, phi, couplings, f0, f_rho)
    return march_followers(prob, phi, couplings, history, f1, f2)


# -- energy diagnostics --------------------------------------------------


def energy_diagnostics(prob: CylinderProblem,
                       y: TrajectoryField) -> tuple:
    """(sup_t |y(t)|_L2, int int a |y_x|^2) of the field y."""
    grid = prob.grid
    sup_l2 = float(np.max(grid.norm(y.values)))
    # dt * sum_{n>=1} of the face energy, the right-endpoint rule
    grad_energy = float(prob.mesh.dt * np.sum(
        grid.face_energy(prob.deg.a(grid.faces), y.values[1:])))
    return sup_l2, grad_energy


def dump_trajectory_csv(f: TrajectoryField, path) -> None:
    """One row per time level: t, then the N+1 nodal values."""
    data = np.column_stack([f.mesh.times, f.values])
    header = "t," + ",".join(f"x{j}" for j in range(f.grid.N + 1))
    np.savetxt(path, data, delimiter=",", header=header, comments="")
