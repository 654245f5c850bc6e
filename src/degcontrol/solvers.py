"""Forward, backward and coupled PDE solvers on the fixed cylinder.

All systems derive from the primal operator

    L_n = b(t_n) W^{-1} A + upwind(-B(t_n) x) + diag(D1F) + diag(D2F g_n) Dc,

with g_n = C(t_n) beta(x) and Dc the central gradient.  Every L_n is
tridiagonal; `LevelOps` keeps the operators of all levels as one band
array of shape (M+1, 3, N-1) (see `operators` for the layout), assembled
vectorized over levels.  Each implicit step matrix I + dt L_n is factored
once, on first use, by LAPACK dgttrf.  Backward problems use the weighted
transpose W^{-1} L_n^T W of the exact forward operator, solved through
the same factors transposed (dgttrs with trans="T"), so every
forward/backward pair obeys the summation-by-parts identity

    sum_n dt <f^n, p^n>_W + <y^0, p^1>_W = sum_n dt <g^n, y^n>_W

to roundoff.  Gradients of the tracking functionals computed from these
adjoints are therefore exact discrete derivatives, not approximations.

Time stepping is backward Euler; the semilinear term is resolved by a
per-step Picard loop around the frozen factorization of the base operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

from .geometry import ControlGeometry, DegeneracySpec, GradientWeightSpec, MovingDomainSpec
from .grids import SpatialGrid, TimeMesh, TrajectoryField
from .operators import (band_apply, band_weighted_transpose, drift_bands,
                        stiffness_bands)
from .semilinear import SemilinearF

__all__ = [
    "CylinderProblem",
    "LevelOps",
    "StepFailureError",
    "SweepFailureError",
    "solve_forward_semilinear",
    "solve_forward_linear",
    "solve_backward_linear",
    "solve_linearized_coupled",
    "solve_adjoint_coupled",
    "LinearizedSolution",
    "AdjointBlock",
    "EnergyReport",
    "energy_diagnostics",
    "central_gradient_bands",
]


class StepFailureError(RuntimeError):
    """Inner Picard loop of a time step failed to converge."""

    def __init__(self, time_index: int, residual: float):
        super().__init__(
            f"step {time_index}: inner iteration stalled at residual {residual:.3e}"
        )
        self.time_index = time_index
        self.residual = residual


class SweepFailureError(RuntimeError):
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
    time, and `solve` takes one forward step; each level is factored at
    most once.  The space-time HUM assembly reads the same bands.
    Instances are immutable once built and shared by sweeps.
    """

    def __init__(self, prob: "CylinderProblem", bands: np.ndarray):
        self.prob = prob
        self.bands = bands
        self._wv = prob.grid.interior_volumes
        self._factors = [None] * len(bands)

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

    def _factor(self, m: int) -> list:
        if self._factors[m] is None:
            dt = self.prob.mesh.dt
            lo, d, up = self.bands[m]
            *factors, info = lapack.dgttrf(dt * lo[1:], 1.0 + dt * d,
                                           dt * up[:-1])
            if info > 0:
                raise RuntimeError(f"level {m}: I + dt L_n is singular")
            self._factors[m] = factors
        return self._factors[m]

    def solve(self, m: int, rhs: np.ndarray) -> np.ndarray:
        """(I + dt L_m)^{-1} rhs."""
        return lapack.dgttrs(*self._factor(m), rhs)[0]

    def march(self, rows: np.ndarray) -> None:
        """Forward march y^m = (I + dt L_m)^{-1} (y^{m-1} + dt f^m), in place.

        rows: (M+1, N-1) or (M+1, k, N-1), each rows[m] C-contiguous.  On
        entry rows[0] holds y^0 and rows[m] holds dt f^m; on exit rows[m]
        holds y^m.  The k columns are the right-hand sides of one dgttrs
        call per level, which runs the one-column recurrence on each, so
        every column equals its own one-column march bit for bit.
        """
        for m in range(1, len(rows)):
            b = rows[m]
            np.add(rows[m - 1], b, out=b)
            lapack.dgttrs(*self._factor(m), b.T, overwrite_b=1)

    def march_adjoint(self, rows: np.ndarray, start: int) -> None:
        """Backward march with the weighted transposes, in place.

        p^m = (I + dt W^{-1} L_m^T W)^{-1} (p^{m+1} + dt g^m) for m = start
        down to 0, by the transposed factors; p^{M+1} = 0.  On entry
        rows[m] holds dt g^m for m <= start, and rows[start+1] the
        terminal row when start < M.  Layout as in `march`.
        """
        wv = self._wv
        last = len(rows) - 1
        for m in range(start, -1, -1):
            b = rows[m]
            np.add(b, rows[m + 1] if m < last else 0.0, out=b)
            np.multiply(wv, b, out=b)
            lapack.dgttrs(*self._factor(m), b.T, trans="T", overwrite_b=1)
            np.divide(b, wv, out=b)


class CylinderProblem:
    """Bundle of all static data for one discrete cylinder problem.

    Holds the geometry specs, grid/mesh, nonlinearity and the cached
    per-level base operators L0_n = b_n W^{-1}A + upwind(-B_n x).
    """

    def __init__(self, deg: DegeneracySpec, gw: GradientWeightSpec,
                 dom: MovingDomainSpec, windows: ControlGeometry,
                 grid: SpatialGrid, mesh: TimeMesh, F: SemilinearF):
        if not np.isfinite(gw.M):
            gw = gw.attach(deg)
        if abs(dom.T - mesh.T) > 1e-14:
            raise ValueError("moving-domain horizon and time mesh disagree on T")
        self.deg, self.gw, self.dom, self.windows = deg, gw, dom, windows
        self.grid, self.mesh, self.F = grid, mesh, F
        self.xi = grid.interior
        b, B, C = dom.coefficients(deg, gw, mesh.times)
        self.b_t = np.atleast_1d(b)
        self.B_t = np.atleast_1d(B)
        self.C_t = np.atleast_1d(C)
        self.beta_i = gw.beta(self.xi)
        self.Dc_bands = central_gradient_bands(grid)
        self._lin_ops = None
        self._ind = {}

    @classmethod
    def default(cls, N: int = 64, M: int = 128, alpha: float = 0.5,
                T: float = 1.0, gamma: float = 2.0, b_exp: float = 2.0,
                family: str = "affine", l0: float = 1.0, k: float = 0.25,
                w: float = np.pi, windows: ControlGeometry | None = None,
                F: SemilinearF | None = None) -> "CylinderProblem":
        deg = DegeneracySpec(alpha=alpha)
        gw = GradientWeightSpec(b_exp=b_exp).attach(deg)
        dom = MovingDomainSpec(T=T, family=family, l0=l0, k=k, w=w)
        dom.validate()
        return cls(
            deg=deg, gw=gw, dom=dom,
            windows=windows or ControlGeometry(),
            grid=SpatialGrid(N=N, gamma=gamma),
            mesh=TimeMesh(M=M, T=T),
            F=F if F is not None else SemilinearF.sinusoidal(),
        )

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

    def grad_weight(self, n: int) -> np.ndarray:
        """g_n = C(t_n) beta(x) at interior nodes."""
        return self.grad_weights[n]

    @cached_property
    def base_bands(self) -> np.ndarray:
        """Bands of L0_n = b_n W^{-1} A + upwind(-B_n x), all levels."""
        winv_a = (1.0 / self.grid.interior_volumes) * stiffness_bands(
            self.grid, self.deg)
        drift = drift_bands(self.grid, -self.B_t[:, None] * self.xi[None, :])
        return self.b_t[:, None, None] * winv_a[None] + drift

    @cached_property
    def base_ops(self) -> LevelOps:
        """Factors of (I + dt L0_n) for the semilinear stepper."""
        return LevelOps(self, self.base_bands)

    def linearized_ops(self) -> LevelOps:
        """Operators of the system linearized at the zero state."""
        if self._lin_ops is None:
            shape = (self.mesh.M + 1, self.grid.N - 1)
            zero = np.zeros(1)
            d1 = float(self.F.D1(zero, zero)[0])
            d2 = float(self.F.D2(zero, zero)[0])
            reaction = np.full(shape, d1)
            self._lin_ops = LevelOps.build(self, reaction,
                                           d2 * self.grad_weights)
        return self._lin_ops

    def ops_at_state(self, y: TrajectoryField) -> LevelOps:
        """Operators of the equation linearized at the trajectory y."""
        yi = _interior(y.values)
        g = self.grad_weights
        w = g * band_apply(self.Dc_bands, yi)
        return LevelOps.build(self, self.F.D1(yi, w), self.F.D2(yi, w) * g)

    def new_field(self) -> TrajectoryField:
        return TrajectoryField(self.grid, self.mesh)


# -- forward / backward kernels -----------------------------------------


def _source_array(prob: CylinderProblem, h=None, v1=None, v2=None, extra=None) -> np.ndarray:
    """Combine controls (masked to their windows) and a free source.

    Returns the interior source array of shape (M+1, N-1).
    """
    src = np.zeros((prob.mesh.M + 1, prob.grid.N - 1))
    for f, win in ((h, "O"), (v1, "O1"), (v2, "O2")):
        if f is not None:
            src += _interior(f.values) * prob.indicator_interior(win)[None, :]
    if extra is not None:
        vals = extra.values if hasattr(extra, "values") else np.asarray(extra)
        if vals.shape[1] == prob.grid.N + 1:
            vals = _interior(vals)
        src += vals
    return src


def solve_forward_semilinear(prob: CylinderProblem, y0: np.ndarray,
                             h: TrajectoryField | None = None,
                             v1: TrajectoryField | None = None,
                             v2: TrajectoryField | None = None,
                             source: TrajectoryField | None = None,
                             picard_tol: float = 1e-10,
                             max_inner: int = 25) -> TrajectoryField:
    """Backward-Euler march of the semilinear state equation.

    Each step solves (I + dt L0_n) z = y^{n-1} + dt (f^n - F(z, g_n z_x))
    by Picard around the frozen factorization, to `picard_tol` in the
    weighted L2 norm.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (prob.grid.N + 1,):
        raise ValueError("y0 must be a nodal row of length N+1")
    src = _source_array(prob, h, v1, v2, source)
    base = prob.base_ops
    dt = prob.mesh.dt
    out = prob.new_field()
    out.values[0] = y0
    out.zero_boundary()
    wv = prob.grid.interior_volumes
    y = _interior(out.values[0]).copy()
    for n in range(1, prob.mesh.M + 1):
        g = prob.grad_weight(n)
        z = y.copy()
        converged = False
        d = np.inf
        for _ in range(max_inner):
            w = g * band_apply(prob.Dc_bands, z)
            rhs = y + dt * (src[n] - prob.F.F(z, w))
            z_new = base.solve(n, rhs)
            dz = z_new - z
            d = float(np.sqrt(np.sum(wv * dz * dz)))
            z = z_new
            if d <= picard_tol * (1.0 + float(np.max(np.abs(z)))):
                converged = True
                break
        if not converged:
            raise StepFailureError(n, d)
        if not np.all(np.isfinite(z)):
            raise StepFailureError(n, float("inf"))
        out.values[n, 1:-1] = z
        y = z
    return out


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


def solve_backward_linear(ops: LevelOps, source: np.ndarray,
                          terminal: np.ndarray | None = None) -> TrajectoryField:
    """Reversed-time march with the weighted-transpose operators.

    With terminal=None the final level is free (p^{M+1}=0 convention),
    which is the exact adjoint of solve_forward_linear.  Passing a
    terminal row imposes p^M = terminal instead.
    """
    prob = ops.prob
    M = prob.mesh.M
    out = prob.new_field()
    start = M
    if terminal is not None:
        out.values[M] = np.asarray(terminal, dtype=float)
        out.zero_boundary()
        start = M - 1
    rows = _interior(out.values)
    np.multiply(prob.mesh.dt, np.asarray(source, dtype=float)[:start + 1],
                out=rows[:start + 1])
    ops.march_adjoint(rows, start)
    return out


@dataclass
class LinearizedSolution:
    y: TrajectoryField
    p1: TrajectoryField
    p2: TrajectoryField
    history: list


def _field(prob: CylinderProblem, interior: np.ndarray) -> TrajectoryField:
    """Nodal field with the interior rows (M+1, N-1) and zero boundary."""
    out = prob.new_field()
    out.values[:, 1:-1] = interior
    return out


def solve_linearized_coupled(prob: CylinderProblem, y0: np.ndarray,
                             h: TrajectoryField | None = None,
                             H: TrajectoryField | None = None,
                             H1: TrajectoryField | None = None,
                             H2: TrajectoryField | None = None,
                             mus: tuple = (1.0, 1.0),
                             alphas: tuple = (1.0, 1.0),
                             tol: float = 1e-10,
                             max_sweeps: int = 200) -> LinearizedSolution:
    """Forward-backward system linearized at zero, by trajectory Picard.

    y_t + L y = h 1_O - p1/mu1 1_O1 - p2/mu2 1_O2 + H,   y(0)=y0,
    -p_i_t + L* p_i = alpha_i y 1_Od + H_i,              p_i(T)=0.

    p1 and p2 march backward together, as the two columns of one march.
    Raises SweepFailureError as soon as an update is not finite.
    """
    ops = prob.linearized_ops()
    ind_od = prob.indicator_interior("Od")
    ind = [prob.indicator_interior("O1"), prob.indicator_interior("O2")]
    base_src = _source_array(prob, h=h, extra=H)
    hsrc = [
        _interior(H1.values) if H1 is not None else 0.0,
        _interior(H2.values) if H2 is not None else 0.0,
    ]
    M = prob.mesh.M
    p = np.zeros((M + 1, 2, prob.grid.N - 1))
    history = []
    for _ in range(max_sweeps):
        src = (base_src - p[:, 0] * (ind[0] / mus[0])
               - p[:, 1] * (ind[1] / mus[1]))
        y_field = solve_forward_linear(ops, y0, src)
        yi = _interior(y_field.values)
        rows = np.empty_like(p)
        for i in (0, 1):
            rows[:, i] = alphas[i] * yi * ind_od[None, :] + hsrc[i]
        rows *= prob.mesh.dt
        ops.march_adjoint(rows, M)
        # np.max, unlike Python's max, propagates a NaN update
        delta = float(np.max(np.abs(rows - p)))
        p = rows
        history.append(delta)
        if not np.isfinite(delta):
            raise SweepFailureError(history,
                                    "linearized forward-backward coupling")
        if delta <= tol:
            return LinearizedSolution(y=y_field, p1=_field(prob, p[:, 0]),
                                      p2=_field(prob, p[:, 1]),
                                      history=history)
    raise SweepFailureError(history, "linearized forward-backward coupling")


@dataclass
class AdjointBlock:
    """k coupled adjoint solutions, one column each, in march layout.

    phi: (M+1, k, N-1) interior values; psi: (M+1, k, r, N-1), the
    follower columns psi1, psi2 (r = 2) of the full form or rho (r = 1)
    of the reduced one.  history holds the largest update of rho in each
    sweep.
    """

    phi: np.ndarray
    psi: np.ndarray
    history: list


def solve_adjoint_coupled(prob: CylinderProblem, phiT: np.ndarray,
                          Fsrc=None, F1=None, F2=None,
                          mus: tuple = (1.0, 1.0), alphas: tuple = (1.0, 1.0),
                          tol: float = 1e-10, max_sweeps: int = 200,
                          reduced: bool = False) -> AdjointBlock:
    """Coupled adjoint system, full (phi, psi1, psi2) or reduced (phi, rho).

    -phi_t + L* phi = Fsrc + (alpha1 psi1 + alpha2 psi2) 1_Od, phi(T)=phiT,
    psi_i_t + L psi_i = F_i - phi/mu_i 1_Oi,                   psi_i(0)=0.

    phi sees the followers only through rho = alpha1 psi1 + alpha2 psi2,
    which solves the same forward equation with source alpha1 F1 +
    alpha2 F2 and coupling alpha1/mu1 1_O1 + alpha2/mu2 1_O2 (a follower
    whose alpha is 0 drops out of both).  Both forms sweep (phi, rho):
    each sweep is one backward march for phi and one forward march for
    rho.  The full form then marches psi1 and psi2 once, as the two
    halves of one march, from the converged phi.  phiT holds k terminal
    rows (k, N+1) and each source is None or an array (k, M+1, N+1).  The
    rows are the columns of one solve per level, and all of them sweep
    until the largest update of rho is at most tol.  Raises
    SweepFailureError if that takes more than max_sweeps, as soon as an
    update is not finite, or if phi^0 or a follower of the full form is
    not finite; the last history entry is then NaN.
    """
    ops = prob.linearized_ops()
    M, n, dt = prob.mesh.M, prob.grid.N - 1, prob.mesh.dt
    terminal = np.asarray(phiT, dtype=float)
    if terminal.ndim != 2 or terminal.shape[1] != n + 2:
        raise ValueError("phiT must be a block of terminal rows (k, N+1)")
    k = len(terminal)

    def source(F):  # march layout (M+1, k, N-1); None gives a zero view
        if F is None:
            return np.broadcast_to(0.0, (M + 1, k, n))
        if np.shape(F) != (k, M + 1, n + 2):
            raise ValueError(f"sources must have shape {(k, M + 1, n + 2)}")
        return _interior(np.asarray(F, dtype=float)).transpose(1, 0, 2)

    f0, f1, f2 = source(Fsrc), source(F1), source(F2)
    ind_od, ind1, ind2 = map(prob.indicator_interior, ("Od", "O1", "O2"))
    c_rho = alphas[0] / mus[0] * ind1 + alphas[1] / mus[1] * ind2
    what = "reduced adjoint coupling" if reduced else \
        "adjoint forward-backward coupling"
    phi = np.zeros((M + 1, k, n))
    phi[M] = _interior(terminal)
    # the two halves hold the current rho and the one marched next; the
    # full form then marches psi1 and psi2 in them
    buf = np.zeros((M + 1, 2, k, n))
    cur, nxt = buf[:, 0], buf[:, 1]
    # rho's source alpha1 F1 + alpha2 F2 on levels 1..M, summed through
    # nxt, which is free until the first sweep
    f_rho = np.zeros((M, k, n))
    for a, f, F in zip(alphas, (f1, f2), (F1, F2)):
        if a != 0.0 and F is not None:
            np.multiply(f[1:], a, out=nxt[1:])
            np.add(f_rho, nxt[1:], out=f_rho)
    history = []
    for _ in range(max_sweeps):
        # phi source dt (f0 + rho 1_Od) on levels 0..M-1, built in the phi
        # buffer; phi^M keeps the terminal row
        s = phi[:M]
        np.multiply(cur[:M], ind_od, out=s)
        np.add(f0[:M], s, out=s)
        np.multiply(s, dt, out=s)
        ops.march_adjoint(phi, M - 1)
        # rho source dt (f_rho - c_rho phi) on levels 1..M; level 0 stays 0
        s = nxt[1:]
        np.multiply(phi[1:], c_rho, out=s)
        np.subtract(f_rho, s, out=s)
        np.multiply(s, dt, out=s)
        ops.march(nxt)
        # the update, in the old iterate's buffer; np.max propagates a NaN
        np.subtract(cur, nxt, out=cur)
        history.append(float(np.max(np.abs(cur, out=cur))))
        if not np.isfinite(history[-1]):
            raise SweepFailureError(history, what)
        cur, nxt = nxt, cur
        if history[-1] <= tol:
            break
    else:
        raise SweepFailureError(history, what)
    if reduced:
        psi = cur[:, :, None]
    else:
        # psi_i sources dt (F_i - phi 1_Oi / mu_i) on levels 1..M
        for i, (fi, ci) in enumerate(((f1, ind1 / mus[0]),
                                      (f2, ind2 / mus[1]))):
            s = buf[1:, i]
            np.multiply(phi[1:], ci, out=s)
            np.subtract(fi[1:], s, out=s)
            np.multiply(s, dt, out=s)
        ops.march(buf.reshape(M + 1, 2 * k, n))
        psi = buf.transpose(0, 2, 1, 3)
    # no rho update sees phi^0 or the followers of the full form
    if not (np.all(np.isfinite(phi[0])) and np.all(np.isfinite(psi))):
        history.append(float("nan"))
        raise SweepFailureError(history, what)
    return AdjointBlock(phi=phi, psi=psi, history=history)


# -- energy diagnostics --------------------------------------------------


@dataclass
class EnergyReport:
    """Appendix-style quadratic energy quantities per field."""

    sup_l2: dict
    grad_energy: dict          # int int a |u_x|^2
    time_deriv: dict           # int int |u_t|^2
    flux_divergence: dict      # int int |(a u_x)_x|^2

    def total(self, name: str) -> float:
        return (self.sup_l2[name] ** 2 + self.grad_energy[name]
                + self.time_deriv[name] + self.flux_divergence[name])


def energy_diagnostics(prob: CylinderProblem, fields: dict) -> EnergyReport:
    """Compute the four quadratic energy quantities for each field."""
    grid, mesh = prob.grid, prob.mesh
    a_face = prob.deg.a(grid.faces)
    h = grid.spacings
    wv = grid.cell_volumes
    dt = mesh.dt
    sup_l2, grad_e, dtn, fluxdiv = {}, {}, {}, {}
    for name, f in fields.items():
        vals = f.values
        sup_l2[name] = float(np.max([grid.norm(row) for row in vals]))
        dflux = a_face[None, :] * np.diff(vals, axis=1) / h[None, :]
        # dt * sum_{n>=1} sum_faces a_f |du/h|^2 h, the right-endpoint rule
        grad_e[name] = float(dt * np.sum(
            a_face[None, :] * (np.diff(vals[1:], axis=1) / h[None, :]) ** 2
            * h[None, :]))
        ut = np.diff(vals, axis=0) / dt
        dtn[name] = float(dt * np.sum(wv[None, :] * ut ** 2))
        div = np.diff(dflux, axis=1) / wv[None, 1:-1]
        fluxdiv[name] = float(dt * np.sum(wv[None, 1:-1] * div[1:] ** 2))
    return EnergyReport(sup_l2=sup_l2, grad_energy=grad_e, time_deriv=dtn,
                        flux_divergence=fluxdiv)


def dump_trajectory_csv(f: TrajectoryField, path) -> None:
    """One row per time level: t, then the N+1 nodal values."""
    data = np.column_stack([f.mesh.times, f.values])
    header = "t," + ",".join(f"x{j}" for j in range(f.grid.N + 1))
    np.savetxt(path, data, delimiter=",", header=header, comments="")
