"""Carleman weight functions and empirical observability constants.

The spatial profile Psi is built from the two antiderivative branches of
s/a(s) joined by a quintic Hermite bridge inside the leader window; the
time profiles theta(t) = 1/(t(T-t))^4 and tau(t) = 1/m(t) (with m(0) > 0)
produce the weight families

    eta = e^{lambda(|Psi|_inf + Psi)},   zeta = tau eta,
    A = tau (eta - e^{3 lambda |Psi|_inf}) < 0,

their extrema A*, A_hat, zeta*, zeta_hat, and the derived rho-weights

    rho0 = e^{-sA*} (zeta*)^-2,   rho1 = e^{-sA*} (zeta*)^-4,
    rho2 = e^{-3sA*/2} zeta_hat^-1,   rho_hat = e^{-sA*} (zeta*)^-3,

which blow up as t -> T and force the controlled state to vanish there.
The exponents -sA* reach ~1e10 near t=T, far beyond float64, so every
rho is tabulated in log-space; the solver-facing tables are normalized
to min 1 and capped at a configurable ratio, with the normalization
constants reported (they are absorbed into fitted constants).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DegeneracySpec
from .grids import SpatialGrid, TimeMesh

__all__ = [
    "CarlemanParams",
    "CarlemanWeights",
    "PsiFunction",
    "eval_time_weights",
    "adjoint_basis",
    "weight_roots",
    "log_observation_peak",
    "empirical_observability",
    "empirical_carleman",
]

# the automatic lambda is the least admissible one enlarged by this factor
LAMBDA_MARGIN = 1.1


@dataclass(frozen=True)
class CarlemanParams:
    """Parameters of the weight construction.

    lam=None selects lambda automatically: the least value satisfying
    3A* < 2A_hat is found by bisection, then enlarged by LAMBDA_MARGIN.
    cap_ratio bounds the dynamic range of the normalized rho tables.
    """

    s: float
    lam: float | None
    alpha_p: float
    beta_p: float
    m_floor: float | None
    cap_ratio: float

    def __post_init__(self):
        # every refused field in one error
        faults = []
        if self.s <= 0:
            faults.append("s must be positive")
        if not (0.0 < self.alpha_p < self.beta_p < 1.0):
            faults.append("need 0 < alpha_p < beta_p < 1")
        if self.cap_ratio < 10.0:
            faults.append("cap_ratio must be at least 10")
        if self.m_floor is not None and self.m_floor <= 0:
            faults.append("m_floor must be positive")
        if faults:
            raise ValueError("; ".join(faults))


class PsiFunction:
    """C^2 spatial profile Psi on [0,1].

    Psi(x) = int_0^x s/a(s) ds = x^{2-alpha}/(2-alpha) on [0, alpha'),
    Psi(x) = -int_{beta'}^x s/a(s) ds on [beta', 1], and a quintic
    Hermite bridge on [alpha', beta'] matching value and two derivatives
    at both ends.
    """

    def __init__(self, params: CarlemanParams, deg: DegeneracySpec):
        self.alpha = deg.alpha
        self.x0, self.x1 = params.alpha_p, params.beta_p
        q = 2.0 - deg.alpha
        self.q = q
        # endpoint data: value, first and second derivative
        v0 = self.x0**q / q
        d0 = self.x0 ** (q - 1.0)
        c0 = (q - 1.0) * self.x0 ** (q - 2.0)
        v1 = 0.0
        d1 = -self.x1 ** (q - 1.0)
        c1 = -(q - 1.0) * self.x1 ** (q - 2.0)
        L = self.x1 - self.x0
        # quintic in u = (x-x0)/L with scaled derivative constraints
        rows = []
        rhs = [v0, d0 * L, c0 * L * L, v1, d1 * L, c1 * L * L]
        p = np.arange(6)
        rows.append(np.where(p == 0, 1.0, 0.0))
        rows.append(np.where(p == 1, 1.0, 0.0))
        rows.append(np.where(p == 2, 2.0, 0.0))
        rows.append(np.ones(6))
        rows.append(p.astype(float))
        rows.append((p * (p - 1)).astype(float))
        self.coef = np.linalg.solve(np.array(rows), np.array(rhs))
        self.L = L

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        left = x < self.x0
        right = x >= self.x1
        mid = ~(left | right)
        out[left] = x[left] ** self.q / self.q
        out[right] = -(x[right] ** self.q - self.x1**self.q) / self.q
        u = (x[mid] - self.x0) / self.L
        out[mid] = sum(c * u**k for k, c in enumerate(self.coef))
        return out

    def bridge_derivatives(self, x):
        """First and second derivative inside the bridge (for C^2 checks)."""
        u = (np.asarray(x, dtype=float) - self.x0) / self.L
        d1 = sum(k * c * u ** (k - 1) for k, c in enumerate(self.coef) if k >= 1)
        d2 = sum(k * (k - 1) * c * u ** (k - 2) for k, c in enumerate(self.coef) if k >= 2)
        return d1 / self.L, d2 / self.L**2


def eval_time_weights(params: CarlemanParams, T: float, t):
    """Return (theta, m, tau) at times t.

    theta = 1/(t(T-t))^4 (inf sentinel at t in {0,T});
    m = t^4(T-t)^4 + m_floor (1-2t/T)^4 on [0,T/2], the bare quartic
    branch on [T/2,T], so m is C^3 at the glue point and m(0) > 0;
    tau = 1/m (inf sentinel at t=T).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t < 0) or np.any(t > T):
        raise ValueError("t outside [0,T]")
    m_floor = params.m_floor if params.m_floor is not None else (T / 2.0) ** 8
    core = (t * (T - t)) ** 4
    with np.errstate(divide="ignore"):
        theta = np.where(core > 0, 1.0 / np.where(core > 0, core, 1.0), np.inf)
    bump = np.where(t <= T / 2, m_floor * (1.0 - 2.0 * t / T) ** 4, 0.0)
    m = core + bump
    with np.errstate(divide="ignore"):
        tau = np.where(m > 0, 1.0 / np.where(m > 0, m, 1.0), np.inf)
    return theta, m, tau


def _auto_lambda(psi_inf: float, psi_max: float, psi_min: float,
                 margin: float) -> tuple:
    """Least lambda with 3A* < 2A_hat, by bisection, then a safety margin.

    Dividing by tau > 0 the condition is time-independent:
    3 e^{l(|Psi|+Psi_max)} - 3E^3 < 2 e^{l(|Psi|+Psi_min)} - 2E^3 with
    E = e^{l |Psi|}, i.e. 3 eta_max < 2 eta_min + E^3.
    """

    def ok(lam: float) -> bool:
        e3 = 3.0 * lam * psi_inf
        emax = lam * (psi_inf + psi_max)
        emin = lam * (psi_inf + psi_min)
        # evaluate in a shifted frame to avoid overflow for large lambda
        ref = max(e3, emax, emin)
        return 3 * np.exp(emax - ref) < 2 * np.exp(emin - ref) + np.exp(e3 - ref)

    hi = 1.0
    for _ in range(80):
        if ok(hi):
            break
        hi *= 2.0
    else:
        raise RuntimeError("no admissible lambda found")
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi * margin, hi


def _psi_range(psi_fn: PsiFunction) -> tuple:
    """(|Psi|_inf, max Psi, min Psi), sampled at 4097 points of [0,1]."""
    psif = psi_fn(np.linspace(0.0, 1.0, 4097))
    return (float(np.max(np.abs(psif))), float(np.max(psif)),
            float(np.min(psif)))


def _choose_lambda(params: CarlemanParams, psi_range: tuple) -> tuple:
    """(lambda, lambda_min): params.lam, or the automatic choice when it is
    None, and the least admissible lambda.  Raises ValueError if
    params.lam is below that least value."""
    if params.lam is None:
        return _auto_lambda(*psi_range, LAMBDA_MARGIN)
    lam = float(params.lam)
    _, lambda_min = _auto_lambda(*psi_range, 1.0)
    if lam < lambda_min:
        raise ValueError(
            f"lambda={lam} below admissible minimum {lambda_min:.4g}")
    return lam, lambda_min


class CarlemanWeights:
    """Tabulated weight family on a given grid/mesh.

    All rho tables exist twice: `log_rho*` are the exact (unnormalized)
    logarithms, infinite at t=T; `rho*_n` are normalized to min 1 and
    capped at cap_ratio, safe for float64 linear algebra.  Identities and
    orderings are always checked on the exact logarithms.
    """

    def __init__(self, params: CarlemanParams, deg: DegeneracySpec,
                 grid: SpatialGrid, mesh: TimeMesh):
        self.params = params
        self.deg = deg
        self.grid = grid
        self.mesh = mesh
        self.psi_fn = PsiFunction(params, deg)
        x = grid.nodes
        t = mesh.times
        self.psi = self.psi_fn(x)
        psi_range = _psi_range(self.psi_fn)
        self.psi_inf, self.psi_max, self.psi_min = psi_range
        self.lam, self.lambda_min = _choose_lambda(params, psi_range)
        self.s = params.s
        lam = self.lam
        _, self.m, self.tau = eval_time_weights(params, mesh.T, t)
        fin = np.isfinite(self.tau)
        # A = tau (eta - E^3) < 0 with E^3 = e^{3 lambda |Psi|_inf}; every
        # rho is infinite once s tau E^3 overflows at the least tau
        self.log_e3 = 3.0 * lam * self.psi_inf
        with np.errstate(over="ignore"):
            e3 = np.exp(self.log_e3)
            if not np.isfinite(self.s * np.min(self.tau[fin]) * e3):
                raise ValueError(
                    f"lambda={lam} is too large: s tau e^(3 lambda |Psi|_inf) "
                    f"is not finite at any time (3 lambda |Psi|_inf = "
                    f"{self.log_e3:.4g})")
        self.eta = np.exp(lam * (self.psi_inf + self.psi))
        self.eta_max = np.exp(lam * (self.psi_inf + self.psi_max))
        self.eta_min = np.exp(lam * (self.psi_inf + self.psi_min))
        self.A = self.tau[:, None] * (self.eta[None, :] - e3)
        self.A_star = self.tau * (self.eta_max - e3)
        self.A_hat = self.tau * (self.eta_min - e3)
        self.zeta_star = self.tau * self.eta_max
        self.zeta_hat = self.tau * self.eta_min
        self.zeta0 = self.eta_max / self.eta_min
        # exact logs of the rho weights; the exponential factor dominates
        # the algebraic one, so entries at t=T are +inf, not nan
        lz_star = np.where(fin, np.log(np.where(fin, self.zeta_star, 1.0)), np.inf)
        lz_hat = np.where(fin, np.log(np.where(fin, self.zeta_hat, 1.0)), np.inf)
        sA = np.where(fin, self.s * self.A_star, -np.inf)

        def _log_rho(c_exp: float, lz: np.ndarray, c_alg: float) -> np.ndarray:
            with np.errstate(invalid="ignore"):
                return np.where(fin, -c_exp * sA - c_alg * lz, np.inf)

        self.log_rho0 = _log_rho(1.0, lz_star, 2.0)
        self.log_rho1 = _log_rho(1.0, lz_star, 4.0)
        self.log_rho2 = _log_rho(1.5, lz_hat, 1.0)
        self.log_rho_hat = _log_rho(1.0, lz_star, 3.0)
        self.log_cap = float(np.log(params.cap_ratio))
        self.norm_shifts = {}
        self.rho0_n = self._normalize("rho0", self.log_rho0)
        self.rho1_n = self._normalize("rho1", self.log_rho1)
        self.rho2_n = self._normalize("rho2", self.log_rho2)
        self.rho_hat_n = self._normalize("rho_hat", self.log_rho_hat)

    def _normalize(self, name: str, logs: np.ndarray) -> np.ndarray:
        finite = logs[np.isfinite(logs)]
        shift = float(np.min(finite))
        self.norm_shifts[name] = shift
        capped = np.minimum(logs - shift, self.log_cap)
        return np.exp(capped)

    # -- zeta/A tabulations on the full cylinder ------------------------

    def zeta(self) -> np.ndarray:
        """zeta(x,t) = tau(t) eta(x), shape (M+1, N+1); inf at t=T."""
        return self.tau[:, None] * self.eta[None, :]

    def A_reference(self) -> float:
        return float(np.max(self.A[np.isfinite(self.A)]))

    # -- reports ---------------------------------------------------------

    def identity_report(self) -> dict:
        """rho_hat^2 = rho1 rho0 and the four orderings, in log-space.

        The ordering constants are the smallest admissible C over the
        mesh times with finite weights.
        """
        fin = np.isfinite(self.log_rho0)
        ident = np.max(np.abs(2 * self.log_rho_hat[fin]
                              - self.log_rho1[fin] - self.log_rho0[fin]))
        rel = ident / np.max(np.abs(self.log_rho1[fin] + self.log_rho0[fin]))

        def fitted(la, lb):
            return float(np.exp(np.max(la[fin] - lb[fin])))

        return {
            "identity_log_abs": float(ident),
            "identity_log_rel": float(rel),
            "C_rho1_le_rho_hat": fitted(self.log_rho1, self.log_rho_hat),
            "C_rho_hat_le_rho0": fitted(self.log_rho_hat, self.log_rho0),
            "C_rho0_le_rho2": fitted(self.log_rho0, self.log_rho2),
            "C_rho2_le_rho1_sq": fitted(self.log_rho2, 2 * self.log_rho1),
            "zeta0": float(self.zeta0),
            "zeta_ratio_spread": float(np.max(np.abs(
                self.zeta_star[fin] / self.zeta_hat[fin] - self.zeta0))),
            "comp_pesos_ok": bool(np.all(
                3 * self.A_star[fin] < 2 * self.A_hat[fin])
                and np.all(self.A_hat[fin] < 0)),
            "lambda": float(self.lam),
            "lambda_min": float(self.lambda_min),
            "norm_shifts": dict(self.norm_shifts),
            "cap_ratio": float(self.params.cap_ratio),
        }

    def to_csv(self, path) -> None:
        """Time tabulation of the main weights (normalized rho tables)."""
        data = np.column_stack([
            self.mesh.times, self.m, self.tau, self.A_star, self.A_hat,
            self.zeta_star, self.zeta_hat,
            self.rho0_n, self.rho1_n, self.rho2_n, self.rho_hat_n,
        ])
        header = ("t,m,tau,A_star,A_hat,zeta_star,zeta_hat,"
                  "rho0,rho1,rho2,rho_hat")
        np.savetxt(path, data, delimiter=",", header=header, comments="")


# -- empirical constants --------------------------------------------------
#
# Every sample is drawn from a fixed family: a terminal row combines the
# first SINE_MODES sine modes with `_damped` normal coefficients, and
# each Carleman source combines the three `_source_modes`.  The adjoint
# system is linear, so a sample's solution is the same combination of
# basis solutions, and both sides of each sampled inequality are
# quadratic forms in the sample's coefficients (the Gramian view of HUM
# observability).  `adjoint_basis` solves the full adjoint system once,
# with every basis mode as a column of one block, and every ratio is
# c.G.c / c.R.c with Gram matrices G, R built from those columns.  The
# follower of the reduced system, rho = alpha1 psi1 + alpha2 psi2, is
# the same combination of the full system's followers, so the
# observability ratios read the sine columns of the same block.  The
# columns stop sweeping together, so each basis solution meets the sweep
# tolerance, and a ratio agrees with the one a sample's own solve gives
# to about 1e-9, not bit for bit.

SINE_MODES = 5
SOURCE_SLOTS = ("Fsrc", "F1", "F2")


def _sine_modes(grid: SpatialGrid) -> np.ndarray:
    """Rows sin((k+1) pi x) for k < SINE_MODES, shape (SINE_MODES, N+1)."""
    k = np.arange(1, SINE_MODES + 1)[:, None]
    return np.sin(k * np.pi * grid.nodes[None, :])


def _damped(normals: np.ndarray) -> np.ndarray:
    """Sine-mode coefficients from standard normals: mode k over (k+1)^2."""
    return normals / (1.0 + np.arange(normals.shape[-1])) ** 2


def _random_smooth_row(grid: SpatialGrid,
                       rng: np.random.Generator) -> np.ndarray:
    """Random Dirichlet-compatible combination of low sine modes."""
    return _damped(rng.standard_normal(SINE_MODES)) @ _sine_modes(grid)


def _source_modes(grid: SpatialGrid, mesh: TimeMesh) -> np.ndarray:
    """The Carleman source basis sin(pi x), t sin(2 pi x), x(1-x) cos t,
    shape (3, M+1, N+1)."""
    x, t = grid.nodes[None, :], mesh.times[:, None]
    out = np.empty((3, mesh.M + 1, grid.N + 1))
    out[0] = np.sin(np.pi * x)
    out[1] = np.sin(2 * np.pi * x) * t
    out[2] = x * (1 - x) * np.cos(t)
    return out


def adjoint_basis(prob, couplings):
    """The adjoint system of the game's `couplings` (the `solvers.Couplings`
    of `GameSpec.couplings`) solved for every basis mode in one block.

    Returns the AdjointBlock whose first SINE_MODES columns have the sine
    modes as terminal rows and no sources, followed, for each slot of
    SOURCE_SLOTS in turn, by one column per source mode with a zero
    terminal row and that mode in this slot only.

    rho's source is alpha1 F1 + alpha2 F2, so the (phi, rho) of an F1
    or F2 column is alpha_i / a times that of the same mode fed to rho at
    a, the larger alpha, and every scaled column meets the sweep
    tolerance when the swept one does.  So (phi, rho) sweeps only
    the sine, Fsrc and rho-source columns, with each source held only on
    its own columns; phi is scaled into the F1 and F2 slots, and psi1 and
    psi2 march once over every column.
    """
    from .solvers import march_followers, sweep_adjoint

    grid, mesh = prob.grid, prob.mesh
    # the source modes' interior rows in march layout (M+1, q, N-1)
    modes = np.ascontiguousarray(
        _source_modes(grid, mesh)[:, :, 1:-1].transpose(1, 0, 2))
    q = modes.shape[1]
    # the first columns of the Fsrc, F1 and F2 slots
    s0, s1, s2 = (SINE_MODES + i * q for i in range(len(SOURCE_SLOTS)))
    phi = np.zeros((mesh.M + 1, s2 + q, grid.N - 1))
    phi[-1, :s0] = _sine_modes(grid)[:, 1:-1]
    a = max(couplings.alphas)
    history = sweep_adjoint(prob, phi[:, :s2], couplings,
                            f0=(slice(s0, s1), modes),
                            f_rho=(slice(s1, s2), a * modes))
    a1, a2 = couplings.alphas
    np.multiply(phi[:, s1:s2], a2 / a, out=phi[:, s2:])
    phi[:, s1:s2] *= a1 / a
    return march_followers(prob, phi, couplings, history,
                           f1=(slice(s1, s2), modes),
                           f2=(slice(s2, s2 + q), modes))


def _log_weight(weights: CarlemanWeights) -> tuple:
    """(2s(A-Aref), log(s lam zeta)) on levels 1..M, shape (M, N+1): the
    log of the forms' weight of power p is the first plus p times the
    second, -inf at t = T (where A = -inf)."""
    A = weights.A[1:]
    log2sA = 2 * weights.s * (A - weights.A_reference())
    lsz = (np.log(weights.s * weights.lam)
           + np.log(np.where(np.isfinite(A), weights.zeta()[1:], 1.0)))
    return log2sA, lsz


def weight_roots(prob, weights: CarlemanWeights) -> tuple:
    """Square roots of the forms' weights on levels 1..M, with the
    quadrature folded in.

    The weight of power p is w_p = e^{2s(A-Aref)} (s lam zeta)^p, and
    each root is e^{log(w)/2}, with log(w) capped at 700 (0 at t = T,
    where A = -inf).  Returns (r0, rf, r_src, r_obs): w_2 times
    dt w_j b^2 at the interior nodes (M, N-1); at the faces (M, N), the
    geometric mean of w_1 at the face's two nodes times dt b^2 a / h_f;
    w_4 (the source weight) and w_8 masked to O (the observation
    weight), both times dt w_j at the interior nodes.  A form is then
    the Gram matrix of weighted columns.
    """
    grid, dt = prob.grid, prob.mesh.dt
    log2sA, lsz = _log_weight(weights)
    lw1 = log2sA + lsz

    def root(logw):
        return np.exp(0.5 * np.minimum(logw, 700.0))

    node = np.sqrt(dt * grid.interior_volumes)
    b = prob.b_t[1:, None]
    face = np.sqrt(dt * prob.deg.a(grid.faces) / grid.spacings)
    return (node * b * root(log2sA + 2 * lsz)[:, 1:-1],
            face * b * root(0.5 * (lw1[:, :-1] + lw1[:, 1:])),
            node * root(log2sA + 4 * lsz)[:, 1:-1],
            node * root(log2sA + 8 * lsz)[:, 1:-1]
            * prob.indicator_interior("O"))


def _weighted(v: np.ndarray, root: np.ndarray) -> np.ndarray:
    """The columns v (L, k, m) of L time levels, in march layout, times
    root (L, m), laid out (k, L, m)."""
    v = v.transpose(1, 0, 2)
    return np.multiply(v, root, out=np.empty(v.shape))


def _gamma_columns(v: np.ndarray, r0: np.ndarray,
                   rf: np.ndarray) -> np.ndarray:
    """The Gamma columns [v r0, (D v) rf] of a field's values v
    (L, k, N-1) on L time levels, laid out (k, L, 2N-1); D v are the face
    differences of the interior values, whose boundary values are zero."""
    v = v.transpose(1, 0, 2)
    n = v.shape[-1]
    cols = np.empty(v.shape[:2] + (2 * n + 1,))
    np.multiply(v, r0, out=cols[..., :n])
    du = cols[..., n:]
    du[..., 0] = v[..., 0]
    np.subtract(v[..., 1:], v[..., :-1], out=du[..., 1:-1])
    np.negative(v[..., -1], out=du[..., -1])
    du *= rf
    return cols


def _gram(cols: np.ndarray) -> np.ndarray:
    """Gram matrix X X^T of the k columns laid out (k, L, m): one
    symmetric product (BLAS syrk), exactly symmetric."""
    x = cols.reshape(len(cols), -1)
    return x @ x.T


# a Gram form's columns are built in blocks of whole time levels that
# hold about this many bytes
BLOCK_BYTES = 1 << 18


def _level_gram(columns, v: np.ndarray, *roots: np.ndarray) -> np.ndarray:
    """Gram matrix sum_b X_b X_b^T of the columns that `columns` lays out
    from a block of levels of v (L, k, ...) and of each root (L, m_i),
    summed over blocks of whole levels of about BLOCK_BYTES of columns
    (each level holds k * sum m_i numbers).  Each block's product is one
    `_gram`, so the sum is exactly symmetric."""
    k = v.shape[1]
    step = max(1, BLOCK_BYTES // (k * sum(r.shape[-1] for r in roots)
                                  * v.itemsize))
    out = np.zeros((k, k))
    for i in range(0, len(v), step):
        out += _gram(columns(v[i:i + step],
                             *(r[i:i + step] for r in roots)))
    return out


def _forms(coef: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """c.gram.c for each coefficient row c of `coef`."""
    return np.einsum("si,ij,sj->s", coef, gram, coef)


def _max(values: np.ndarray) -> float:
    return float(np.max(values)) if values.size else float("nan")


def _ratio_report(coef: np.ndarray, lhs: np.ndarray, rhs: np.ndarray,
                  weights: CarlemanWeights, source=None) -> dict:
    """Ratios c.lhs.c / c.rhs.c for the coefficient rows c of `coef`, one
    per sample; a sample whose right-hand side is at most 1e-300 is
    skipped, its ratio NaN, and "max_ratio" is over the samples kept.
    Given the part `source` of rhs, "source_share" is the largest
    c.source.c / c.rhs.c over the samples kept."""
    den = _forms(coef, rhs)
    keep = ~(den <= 1e-300)  # a NaN form is kept, so that it shows
    ratios = np.full(len(den), np.nan)
    ratios[keep] = _forms(coef, lhs)[keep] / den[keep]
    report = {
        "max_ratio": _max(ratios[keep]),
        "ratios": ratios.tolist(),
        "skipped": int(np.count_nonzero(~keep)),
        "A_reference": weights.A_reference(),
        "s": weights.s,
        "lambda": weights.lam,
    }
    if source is not None:
        report["source_share"] = _max(_forms(coef, source)[keep] / den[keep])
    return report


def _observability_forms(prob, phi: np.ndarray, rho: np.ndarray,
                         roots: tuple) -> tuple:
    """(lhs, rhs) Gram matrices of the observability ratio, for reduced
    adjoint solutions with columns phi and rho, both (M+1, k, N-1), and
    the `weight_roots(prob, weights)` in roots."""
    r_obs = roots[3]
    # The weight is sharply peaked in (x, t); its raw integral scales with
    # the cell measure at the peak and is not mesh-stable.  Normalizing
    # the observation term by the weight's own mass turns it into a
    # weighted average of |phi|^2 over O, which converges under
    # refinement; the mass is absorbed into the fitted constant.
    wmass = _gram(r_obs[None])[0, 0]
    # |phi(0)|^2 + |rho(T)|^2 as two "levels" of one column each
    ends = np.stack([phi[0], rho[-1]], axis=1)
    ends *= np.sqrt(prob.grid.interior_volumes)
    return _gram(ends), _level_gram(_weighted, phi[1:], r_obs) / wmass


def empirical_observability(prob, weights: CarlemanWeights, couplings,
                            basis, roots: tuple, samples: int,
                            rng: np.random.Generator) -> dict:
    """Sampled observability ratio of the reduced adjoint system.

    For random terminal data and zero sources, returns max over samples of
    (|phi(0)|^2 + |rho(T)|^2) / int_O e^{2s(A-Aref)} (s lam zeta)^8 |phi|^2.
    The normalization exponent 2 s Aref is reported; ratios are only
    meaningful relative to it.  Each ratio is a quotient of two Gram
    forms in the sample's mode coefficients, read from the sine columns
    of `basis`, the `adjoint_basis(prob, couplings)`, with the
    `weight_roots(prob, weights)` in roots; rho = alpha1 psi1 +
    alpha2 psi2 takes the couplings' alphas.  The `samples` coefficient
    vectors are drawn from rng.
    """
    alphas = couplings.alphas
    psi = basis.psi[:, :SINE_MODES]
    rho = alphas[0] * psi[:, :, 0]
    rho += alphas[1] * psi[:, :, 1]
    lhs, rhs = _observability_forms(prob, basis.phi[:, :SINE_MODES], rho,
                                    roots)
    coef = _damped(rng.standard_normal((samples, SINE_MODES)))
    return _ratio_report(coef, lhs, rhs, weights)


def log_observation_peak(prob, weights: CarlemanWeights) -> float:
    """log of the largest term dt w_j w_8 of the observation weight's
    mass (see `_observability_forms`): over O on levels 1..M, from the
    `_log_weight` that `weight_roots` reads, with no exponential; -inf
    when O holds no finite term.  Below log(tiny) that mass is 0 or
    subnormal."""
    on = prob.indicator("O") > 0
    log2sA, lsz = _log_weight(weights)
    terms = (np.minimum(log2sA[:, on] + 8 * lsz[:, on], 700.0)
             + np.log(prob.mesh.dt * prob.grid.cell_volumes[on]))
    return float(np.max(terms)) if terms.size else -np.inf


def _carleman_forms(prob, phi: np.ndarray, psi: np.ndarray,
                    roots: tuple) -> tuple:
    """(lhs, rhs, source) Gram matrices of the Carleman ratio, for full
    adjoint solutions in the column layout of `adjoint_basis`: phi
    (M+1, k, N-1) and psi (M+1, k, 2, N-1), with the
    `weight_roots(prob, weights)` in roots.  source is the part of rhs
    that the source slots contribute.

    Gamma(u) = sum_m dt b^2 [sum_j w_j w_2 |u_j|^2 + sum_f h_f a w_1 |u_x|^2]
    (w_1 at a face the geometric mean of its nodes', u_x = (D u) / h_f)
    is the Gram form of u's columns [u r0, (D u) rf].  Every form is
    summed over blocks of whole levels 1..M (`_level_gram`): one field's
    columns on one block are all that is held at a time, about
    BLOCK_BYTES whatever the grid."""
    r0, rf, r_src, r_obs = roots
    lhs = sum(_level_gram(_gamma_columns, u[1:], r0, rf)
              for u in (phi, psi[:, :, 0], psi[:, :, 1]))
    rhs = _level_gram(_weighted, phi[1:], r_obs)
    # each slot's source term: the Gram matrix of the source modes
    modes = _source_modes(prob.grid, prob.mesh)
    q = len(modes)
    src = _level_gram(_weighted, modes[:, 1:, 1:-1].transpose(1, 0, 2),
                      r_src)
    source = np.zeros_like(rhs)
    for i in range(SINE_MODES, len(rhs), q):
        source[i:i + q, i:i + q] = src
    return lhs, rhs + source, source


def empirical_carleman(prob, weights: CarlemanWeights, basis,
                       roots: tuple, samples: int,
                       rng: np.random.Generator) -> dict:
    """Sampled ratio of the Carleman inequality for the adjoint system.

    Gamma(phi,psi1,psi2) vs the source + observation right-hand side,
    both evaluated with the common normalization e^{-2 s Aref}.  Each
    ratio is a quotient of two Gram forms in the sample's coefficients,
    read from every column of `basis`, the game's `adjoint_basis`, with
    the `weight_roots(prob, weights)` in roots.  The
    report's "source_share" is the largest share of the source term in
    a sample's right-hand side; the observation term dominates it
    unless O is small.  The `samples` coefficient vectors are drawn
    from rng.
    """
    lhs, rhs, source = _carleman_forms(prob, basis.phi, basis.psi, roots)
    # per sample: the terminal normals, then three per source slot
    coef = rng.standard_normal((samples, len(rhs)))
    coef[:, :SINE_MODES] = _damped(coef[:, :SINE_MODES])
    return _ratio_report(coef, lhs, rhs, weights, source)
