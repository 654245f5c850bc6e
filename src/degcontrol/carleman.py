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
from .operators import band_apply

__all__ = [
    "CarlemanParams",
    "CarlemanWeights",
    "PsiFunction",
    "eval_time_weights",
    "adjoint_basis",
    "weight_tables",
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

    s: float = 2.0
    lam: float | None = None
    alpha_p: float = 0.35
    beta_p: float = 0.45
    m_floor: float | None = None
    cap_ratio: float = 1e3

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
        self.theta, self.m, self.tau = eval_time_weights(params, mesh.T, t)
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
    a, the alpha of largest magnitude, and every scaled column meets the
    sweep tolerance when the swept one does.  So (phi, rho) sweeps only
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
    # with both alphas 0 rho has no source, and the swept columns scale to 0
    a = max(couplings.alphas, key=abs) or 1.0
    history = sweep_adjoint(prob, phi[:, :s2], couplings,
                            f0=(slice(s0, s1), modes),
                            f_rho=(slice(s1, s2), a * modes))
    a1, a2 = couplings.alphas
    np.multiply(phi[:, s1:s2], a2 / a, out=phi[:, s2:])
    phi[:, s1:s2] *= a1 / a
    return march_followers(prob, phi, couplings, history,
                           f1=(slice(s1, s2), modes),
                           f2=(slice(s2, s2 + q), modes))


def _exp_weight(logw: np.ndarray) -> np.ndarray:
    """e^{logw}, capped at e^700, with the non-finite (t=T) entries 0."""
    return np.where(np.isfinite(logw), np.exp(np.minimum(logw, 700.0)), 0.0)


def _weighted_q_integral(weight: np.ndarray, fields_sq: np.ndarray,
                         grid: SpatialGrid, mesh: TimeMesh) -> float:
    """sum_n dt sum_j w_j weight fields_sq over levels 1..M."""
    vals = weight * fields_sq
    return float(mesh.dt * np.einsum("j,nj->", grid.cell_volumes, vals[1:]))


def _gram(u: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Gram matrix sum_{m=1..M} <u_a^m, T_m u_b^m> of the columns of u.

    u: (M+1, k, N-1) interior rows in march layout.  weight: T_m for
    m = 1..M, as bands (M, 3, N-1) or as a diagonal (M, N-1).
    """
    if weight.ndim == 3:
        tu = band_apply(weight[:, None], u[1:])
    else:
        tu = weight[:, None] * u[1:]
    # one small product per level: tensordot would copy u and tu whole
    return np.matmul(u[1:], tu.transpose(0, 2, 1)).sum(axis=0)


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


def _observability_forms(prob, weights: CarlemanWeights, phi: np.ndarray,
                         rho: np.ndarray, tables=None) -> tuple:
    """(lhs, rhs) Gram matrices of the observability ratio, for reduced
    adjoint solutions with columns phi and rho, both (M+1, k, N-1);
    tables are the `weight_tables(prob, weights)`, made here when not
    given."""
    grid, mesh = prob.grid, prob.mesh
    if tables is None:
        tables = weight_tables(prob, weights)
    w_obs = tables[3]
    # The weight is sharply peaked in (x, t); its raw integral scales with
    # the cell measure at the peak and is not mesh-stable.  Normalizing
    # the observation term by the weight's own mass turns it into a
    # weighted average of |phi|^2 over O, which converges under
    # refinement; the mass is absorbed into the fitted constant.
    wmass = _weighted_q_integral(w_obs, np.ones((mesh.M + 1, grid.N + 1)),
                                 grid, mesh)
    vol = grid.interior_volumes
    lhs = sum((u * vol) @ u.T for u in (phi[0], rho[-1]))
    rhs = _gram(phi, mesh.dt * vol * w_obs[1:, 1:-1]) / wmass
    return lhs, rhs


def empirical_observability(prob, weights: CarlemanWeights, couplings,
                            samples: int = 20,
                            rng: np.random.Generator | None = None,
                            basis=None, tables=None) -> dict:
    """Sampled observability ratio of the reduced adjoint system.

    For random terminal data and zero sources, returns max over samples of
    (|phi(0)|^2 + |rho(T)|^2) / int_O e^{2s(A-Aref)} (s lam zeta)^8 |phi|^2.
    The normalization exponent 2 s Aref is reported; ratios are only
    meaningful relative to it.  Each ratio is a quotient of two Gram
    forms in the sample's mode coefficients, read from the sine columns
    of `basis`, the `adjoint_basis(prob, couplings)` that is solved here
    when it is not given; rho = alpha1 psi1 + alpha2 psi2 takes the
    couplings' alphas.  tables are the `weight_tables(prob, weights)`,
    made here when not given.
    """
    rng = rng or np.random.default_rng(0)
    if basis is None:
        basis = adjoint_basis(prob, couplings)
    alphas = couplings.alphas
    psi = basis.psi[:, :SINE_MODES]
    rho = alphas[0] * psi[:, :, 0] + alphas[1] * psi[:, :, 1]
    lhs, rhs = _observability_forms(prob, weights,
                                    basis.phi[:, :SINE_MODES], rho, tables)
    coef = _damped(rng.standard_normal((samples, SINE_MODES)))
    return _ratio_report(coef, lhs, rhs, weights)


def weight_tables(prob, weights: CarlemanWeights) -> tuple:
    """The weights of both samplers' forms, exponentiated once.

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


def log_observation_peak(prob, weights: CarlemanWeights) -> float:
    """log of the largest term dt w_j w_obs of the observation weight's
    mass (see `_observability_forms`): over O on levels 1..M, from the
    log tables with no exponential; -inf when O holds no finite term.
    Below log(tiny) that mass is 0 or subnormal."""
    on = prob.indicator("O") > 0
    fin = np.isfinite(weights.tau[1:])
    log_z = (np.log(weights.tau[1:][fin])[:, None]
             + weights.lam * (weights.psi_inf + weights.psi[on]))
    log_w = (2 * weights.s * (weights.A[1:][fin][:, on]
                              - weights.A_reference())
             + 8 * (np.log(weights.s * weights.lam) + log_z))
    terms = (np.minimum(log_w, 700.0)
             + np.log(prob.mesh.dt * prob.grid.cell_volumes[on]))
    return float(np.max(terms)) if terms.size else -np.inf


def _gamma_bands(prob, w0: np.ndarray, wf: np.ndarray) -> np.ndarray:
    """Bands (M, 3, N-1) of the Gamma form on levels 1..M.

    Gamma(u) = sum_m dt [sum_j w_j w0 b^2 |u_j|^2 + sum_f h_f wf |u_x|^2]
    is sum_m <u^m, T_m u^m> with the tridiagonal
    T_m = diag(dt w w0 b^2) + D^T diag(dt wf / h) D, D the face differences
    of the interior values (the boundary values are zero).
    """
    grid, dt = prob.grid, prob.mesh.dt
    g = dt * wf[1:] / grid.spacings
    bands = np.zeros((prob.mesh.M, 3, grid.N - 1))
    bands[:, 0, 1:] = -g[:, 1:-1]
    bands[:, 1] = (g[:, :-1] + g[:, 1:] + dt * grid.interior_volumes
                   * w0[1:, 1:-1] * prob.b_t[1:, None]**2)
    bands[:, 2, :-1] = -g[:, 1:-1]
    return bands


def _carleman_forms(prob, weights: CarlemanWeights, phi: np.ndarray,
                     psi: np.ndarray, tables=None) -> tuple:
    """(lhs, rhs, source) Gram matrices of the Carleman ratio, for full
    adjoint solutions in the column layout of `adjoint_basis`: phi
    (M+1, k, N-1) and psi (M+1, k, 2, N-1).  source is the part of rhs
    that the source slots contribute.  tables are the
    `weight_tables(prob, weights)`, made here when not given."""
    grid, mesh = prob.grid, prob.mesh
    if tables is None:
        tables = weight_tables(prob, weights)
    w0, wf, w_src, w_obs = tables
    gamma = _gamma_bands(prob, w0, wf)
    lhs = sum(_gram(u, gamma) for u in (phi, psi[:, :, 0], psi[:, :, 1]))
    dtw = mesh.dt * grid.interior_volumes
    rhs = _gram(phi, dtw * w_obs[1:, 1:-1])
    # each slot's source term: the Gram matrix of the source modes
    modes = _source_modes(grid, mesh)
    q = len(modes)
    src = _gram(modes[:, :, 1:-1].transpose(1, 0, 2), dtw * w_src[1:, 1:-1])
    source = np.zeros_like(rhs)
    for i in range(SINE_MODES, len(rhs), q):
        source[i:i + q, i:i + q] = src
    return lhs, rhs + source, source


def empirical_carleman(prob, weights: CarlemanWeights, couplings,
                       samples: int = 10,
                       rng: np.random.Generator | None = None,
                       basis=None, tables=None) -> dict:
    """Sampled ratio of the Carleman inequality for the adjoint system.

    Gamma(phi,psi1,psi2) vs the source + observation right-hand side,
    both evaluated with the common normalization e^{-2 s Aref}.  Each
    ratio is a quotient of two Gram forms in the sample's coefficients,
    read from every column of `basis`, the `adjoint_basis(prob,
    couplings)` that is solved here when it is not given, with the
    `weight_tables(prob, weights)` in tables, likewise.  The report's
    "source_share" is the largest share of the source term in a
    sample's right-hand side; the observation term dominates it unless
    O is small.
    """
    rng = rng or np.random.default_rng(0)
    if basis is None:
        basis = adjoint_basis(prob, couplings)
    lhs, rhs, source = _carleman_forms(prob, weights, basis.phi, basis.psi,
                                       tables)
    # per sample: the terminal normals, then three per source slot
    coef = rng.standard_normal((samples, len(rhs)))
    coef[:, :SINE_MODES] = _damped(coef[:, :SINE_MODES])
    return _ratio_report(coef, lhs, rhs, weights, source)
