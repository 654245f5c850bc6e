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

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import DegeneracySpec
from .grids import SpatialGrid, TimeMesh

__all__ = [
    "CarlemanParams",
    "CarlemanWeights",
    "build_psi",
    "eval_time_weights",
    "empirical_observability",
    "empirical_carleman",
]


@dataclass(frozen=True)
class CarlemanParams:
    """Parameters of the weight construction.

    lam=None selects lambda automatically: the least value satisfying
    3A* < 2A_hat is found by bisection, then enlarged by lambda_margin.
    cap_ratio bounds the dynamic range of the normalized rho tables.
    """

    s: float = 2.0
    lam: float | None = None
    alpha_p: float = 0.35
    beta_p: float = 0.45
    m_floor: float | None = None
    lambda_margin: float = 1.1
    cap_ratio: float = 1e3

    def __post_init__(self):
        if not (0.0 < self.alpha_p < self.beta_p < 1.0):
            raise ValueError("need 0 < alpha' < beta' < 1")
        if self.s <= 0:
            raise ValueError("s must be positive")
        if self.cap_ratio < 10.0:
            raise ValueError("cap_ratio too small to be useful")

    def check_inside(self, window: tuple) -> None:
        lo, hi = window
        if not (lo < self.alpha_p and self.beta_p < hi):
            raise ValueError(
                f"[alpha', beta']=[{self.alpha_p},{self.beta_p}] not inside O={window}")


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


def build_psi(params: CarlemanParams, deg: DegeneracySpec) -> PsiFunction:
    """Construct the C^2 profile Psi; see PsiFunction."""
    if deg.alpha >= 2.0:
        raise ValueError("s/a(s) not integrable near 0")
    return PsiFunction(params, deg)


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
    if m_floor <= 0:
        raise ValueError("m_floor must be positive")
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
        self.psi_fn = build_psi(params, deg)
        x = grid.nodes
        t = mesh.times
        self.psi = self.psi_fn(x)
        xf = np.linspace(0.0, 1.0, 4097)
        psif = self.psi_fn(xf)
        self.psi_max = float(np.max(psif))
        self.psi_min = float(np.min(psif))
        self.psi_inf = float(np.max(np.abs(psif)))
        if params.lam is None:
            self.lam, self.lambda_min = _auto_lambda(
                self.psi_inf, self.psi_max, self.psi_min, params.lambda_margin)
        else:
            self.lam = float(params.lam)
            _, self.lambda_min = _auto_lambda(
                self.psi_inf, self.psi_max, self.psi_min, 1.0)
            if self.lam < self.lambda_min:
                raise ValueError(
                    f"lambda={self.lam} below admissible minimum {self.lambda_min:.4g}")
        self.s = params.s
        lam = self.lam
        self.eta = np.exp(lam * (self.psi_inf + self.psi))
        self.log_e3 = 3.0 * lam * self.psi_inf
        self.eta_max = np.exp(lam * (self.psi_inf + self.psi_max))
        self.eta_min = np.exp(lam * (self.psi_inf + self.psi_min))
        self.theta, self.m, self.tau = eval_time_weights(params, mesh.T, t)
        # A = tau (eta - E^3) < 0; E^3 may overflow only for huge lambda,
        # in which case the construction is unusable anyway
        e3 = np.exp(self.log_e3)
        self.A = self.tau[:, None] * (self.eta[None, :] - e3)
        self.A_star = self.tau * (self.eta_max - e3)
        self.A_hat = self.tau * (self.eta_min - e3)
        self.zeta_star = self.tau * self.eta_max
        self.zeta_hat = self.tau * self.eta_min
        self.zeta0 = self.eta_max / self.eta_min
        # exact logs of the rho weights; the exponential factor dominates
        # the algebraic one, so entries at t=T are +inf, not nan
        fin = np.isfinite(self.tau)
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

    def log_observation_weight(self, A_ref: float | None = None) -> np.ndarray:
        """log of e^{2s(A - A_ref)} (s lam zeta)^8, the observability weight.

        A_ref defaults to the maximum finite A, so the weight peaks at 1
        in order of magnitude; the t=T row is -inf (weight zero).
        """
        if A_ref is None:
            A_ref = self.A_reference()
        z = self.zeta()
        with np.errstate(divide="ignore", invalid="ignore"):
            logz = np.where(np.isfinite(z), np.log(np.where(z > 0, z, 1.0)), np.inf)
            out = np.where(
                np.isfinite(self.A),
                2 * self.s * (self.A - A_ref) + 8 * (np.log(self.s * self.lam) + logz),
                -np.inf,
            )
        return out

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

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.identity_report(), fh, indent=2)

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


def _random_smooth_row(grid: SpatialGrid, rng: np.random.Generator,
                       modes: int = 5) -> np.ndarray:
    """Random Dirichlet-compatible combination of low sine modes."""
    x = grid.nodes
    coef = rng.standard_normal(modes) / (1.0 + np.arange(modes)) ** 2
    return sum(c * np.sin((k + 1) * np.pi * x) for k, c in enumerate(coef))


# Memory budget of one sampling block.  The adjoint problems of a block
# are solved together, each sample one column of the same level solves,
# so a block holds every trajectory its samples need at once; sizing it in
# bytes rather than samples gives finer grids narrower blocks.
BLOCK_BYTES = 1_200_000


def block_size(prob, trajectories: int) -> int:
    """Samples per block: the most whose `trajectories` nodal trajectories
    each fit in BLOCK_BYTES together.  A sample larger than the budget is
    solved alone."""
    traj_bytes = (prob.mesh.M + 1) * (prob.grid.N + 1) * 8
    return max(1, BLOCK_BYTES // (trajectories * traj_bytes))


def _blocks(samples: int, k: int):
    """Sizes of consecutive blocks of at most k samples."""
    return [min(k, samples - i) for i in range(0, samples, k)]


def _nodal_scratch(prob):
    """nodal(rows): interior rows (M+1, N-1) written into one reused nodal
    array, whose boundary stays 0, and returned.  Each call overwrites the
    previous result."""
    u = np.zeros((prob.mesh.M + 1, prob.grid.N + 1))

    def nodal(rows: np.ndarray) -> np.ndarray:
        u[:, 1:-1] = rows
        return u

    return nodal


def _exp_weight(logw: np.ndarray) -> np.ndarray:
    """e^{logw}, capped at e^700, with the non-finite (t=T) entries 0."""
    return np.where(np.isfinite(logw), np.exp(np.minimum(logw, 700.0)), 0.0)


def _weighted_q_integral(weight: np.ndarray, fields_sq: np.ndarray,
                         grid: SpatialGrid, mesh: TimeMesh) -> float:
    """sum_n dt sum_j w_j weight fields_sq over levels 1..M."""
    vals = weight * fields_sq
    return float(mesh.dt * np.einsum("j,nj->", grid.cell_volumes, vals[1:]))


def empirical_observability(prob, weights: CarlemanWeights,
                            samples: int = 20,
                            rng: np.random.Generator | None = None,
                            mus: tuple = (1.0, 1.0),
                            alphas: tuple = (1.0, 1.0)) -> dict:
    """Sampled observability ratio of the reduced adjoint system.

    For random terminal data, solves (phi, rho) with zero sources and
    returns max over samples of
    (|phi(0)|^2 + |rho(T)|^2) / int_O e^{2s(A-Aref)} (s lam zeta)^8 |phi|^2.
    The normalization exponent 2 s Aref is reported; ratios are only
    meaningful relative to it.  Samples are solved in blocks (see
    `block_size`); each ratio is the one a solo solve gives.
    """
    from .solvers import solve_adjoint_coupled

    rng = rng or np.random.default_rng(0)
    grid, mesh = prob.grid, prob.mesh
    w_obs = _exp_weight(weights.log_observation_weight()) \
        * prob.indicator("O")[None, :]
    # The weight is sharply peaked in (x, t); its raw integral scales with
    # the cell measure at the peak and is not mesh-stable.  Normalizing
    # the observation term by the weight's own mass turns it into a
    # weighted average of |phi|^2 over O, which converges under
    # refinement; the mass is absorbed into the fitted constant.
    wmass = _weighted_q_integral(w_obs, np.ones((mesh.M + 1, grid.N + 1)),
                                 grid, mesh)
    nodal = _nodal_scratch(prob)
    ratios, skipped = [], 0
    # per sample: phi, rho and the next rho iterate
    for k in _blocks(samples, block_size(prob, 3)):
        phiT = np.array([_random_smooth_row(grid, rng) for _ in range(k)])
        block = solve_adjoint_coupled(prob, phiT, mus=mus, alphas=alphas,
                                      reduced=True)
        for j in range(k):
            rho_T = grid.norm(nodal(block.rho[:, j])[-1])
            phi = nodal(block.phi[:, j])
            lhs = grid.norm(phi[0]) ** 2 + rho_T ** 2
            rhs = _weighted_q_integral(w_obs, phi**2, grid, mesh) / wmass
            if rhs <= 1e-300:
                skipped += 1
                continue
            ratios.append(lhs / rhs)
    return {
        "max_ratio": float(np.max(ratios)) if ratios else float("nan"),
        "ratios": [float(r) for r in ratios],
        "skipped": skipped,
        "A_reference": weights.A_reference(),
        "s": weights.s,
        "lambda": weights.lam,
    }


def _carleman_weights(prob, weights: CarlemanWeights) -> tuple:
    """The Carleman weights of `empirical_carleman`, exponentiated once.

    Returns (w0, wf, w_src, w_obs): the zero-order weight
    e^{2s(A-Aref)} (s lam zeta)^2; the gradient weight at faces, with
    b^2 a folded in; the source weight (power 4); and the observation
    weight (power 8) masked to O.
    """
    grid = prob.grid
    A_ref = weights.A_reference()
    z = weights.zeta()
    fin = np.isfinite(weights.A)
    with np.errstate(divide="ignore", invalid="ignore"):
        logz = np.where(np.isfinite(z), np.log(np.where(z > 0, z, 1.0)), np.inf)
        log2sA = np.where(fin, 2 * weights.s * (weights.A - A_ref), -np.inf)
        slam = weights.s * weights.lam
        log_src = np.where(fin, log2sA + 4 * (np.log(slam) + logz), -np.inf)
        log_obs = np.where(fin, log2sA + 8 * (np.log(slam) + logz), -np.inf)
        lw0 = np.where(fin, log2sA + 2 * (np.log(slam) + logz), -np.inf)
        lwf = np.where(
            fin[:, :-1] & fin[:, 1:],
            0.5 * (lw0[:, :-1] + lw0[:, 1:])
            - (np.log(slam) + 0.5 * (logz[:, :-1] + logz[:, 1:])),
            -np.inf,
        )
        wf = np.where(np.isfinite(lwf),
                      np.exp(np.minimum(lwf, 700.0)) * prob.b_t[:, None]**2
                      * prob.deg.a(grid.faces)[None, :], 0.0)
    return (_exp_weight(lw0), wf, _exp_weight(log_src),
            _exp_weight(log_obs) * prob.indicator("O")[None, :])


def empirical_carleman(prob, weights: CarlemanWeights,
                       samples: int = 10,
                       rng: np.random.Generator | None = None,
                       mus: tuple = (1.0, 1.0),
                       alphas: tuple = (1.0, 1.0)) -> dict:
    """Sampled ratio of the Carleman inequality for the adjoint system.

    Gamma(phi,psi1,psi2) vs the source + observation right-hand side,
    both evaluated with the common normalization e^{-2 s Aref}.  Samples
    are solved in blocks (see `block_size`); each ratio is the one a
    solo solve gives.
    """
    from .solvers import solve_adjoint_coupled

    rng = rng or np.random.default_rng(0)
    grid, mesh = prob.grid, prob.mesh
    w0, wf, w_src, w_obs = _carleman_weights(prob, weights)
    b_sq = prob.b_t**2
    h = grid.spacings
    nodal = _nodal_scratch(prob)

    def gamma(u_vals: np.ndarray) -> float:
        # zero-order part: (s lam)^2 zeta^2 b^2 |u|^2
        g0 = _weighted_q_integral(w0, b_sq[:, None] * u_vals**2, grid, mesh)
        # gradient part at faces: (s lam) zeta b^2 a |u_x|^2
        ux = np.diff(u_vals, axis=1) / h[None, :]
        vals = wf * ux**2
        g1 = float(mesh.dt * np.einsum("f,nf->", h, vals[1:]))
        return g0 + g1

    # source modes on the (time, space) mesh, combined per draw below
    x, t = grid.nodes[None, :], mesh.times[:, None]
    sin1, sin2, cos_t = np.sin(np.pi * x), np.sin(2 * np.pi * x), np.cos(t)
    ratios, skipped = [], 0
    # per sample: three sources, phi, psi1, psi2 and the next psi iterates
    for k in _blocks(samples, block_size(prob, 8)):
        phiT = np.empty((k, grid.N + 1))
        srcs = np.empty((3, k, mesh.M + 1, grid.N + 1))
        src_terms = []
        for j in range(k):
            phiT[j] = _random_smooth_row(grid, rng)
            for i in range(3):
                c = rng.standard_normal(3)
                srcs[i, j] = (c[0] * sin1 + c[1] * sin2 * t
                              + c[2] * x * (1 - x) * cos_t)
            src_sq = sum(f**2 for f in srcs[:, j])
            src_terms.append(_weighted_q_integral(w_src, src_sq, grid, mesh))
        block = solve_adjoint_coupled(prob, phiT, Fsrc=srcs[0], F1=srcs[1],
                                      F2=srcs[2], mus=mus, alphas=alphas)
        del srcs
        for j in range(k):
            phi = nodal(block.phi[:, j])
            rhs = src_terms[j] + _weighted_q_integral(w_obs, phi**2, grid,
                                                      mesh)
            lhs = gamma(phi)
            lhs += gamma(nodal(block.psi[:, j, 0]))
            lhs += gamma(nodal(block.psi[:, j, 1]))
            if rhs <= 1e-300:
                skipped += 1
                continue
            ratios.append(lhs / rhs)
    return {
        "max_ratio": float(np.max(ratios)) if ratios else float("nan"),
        "ratios": [float(r) for r in ratios],
        "skipped": skipped,
        "A_reference": weights.A_reference(),
        "s": weights.s,
        "lambda": weights.lam,
    }
