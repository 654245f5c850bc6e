"""Degeneracy law, gradient weight, moving domain and control geometry.

The state equation lives on a moving interval (0, l(t)).  Rescaling
x = x'/l(t) maps it onto the fixed cylinder (0,1) x (0,T), where the
equation keeps a power-law diffusion a(x) = x**alpha (weakly degenerate,
alpha < 1) and picks up three time coefficients

    b(t) = a(l(t)) / l(t)**2,   B(t) = l'(t) / l(t),   C(t) = beta(l(t)) / l(t).

All objects here are immutable value types; solver modules share them freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegeneracySpec",
    "GradientWeightSpec",
    "MovingDomainSpec",
    "ControlGeometry",
    "beta_condition_report",
]


@dataclass(frozen=True)
class DegeneracySpec:
    """Power-law diffusion a(x) = x**alpha with 0 < alpha < 1.

    The multiplicative property a(x*y) = a(x) a(y) forces the power-law
    form, which we use to evaluate a(l(t)) also for l(t) > 1.  The
    structural constant K in x a'(x) <= K a(x) equals alpha.
    """

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")

    @property
    def K(self) -> float:
        return self.alpha

    def a(self, x):
        """Evaluate a(x) = x**alpha; x may be scalar or array, x >= 0."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("a(x) requires x >= 0")
        return x**self.alpha

    def a_prime(self, x):
        """a'(x) = alpha x**(alpha-1) on (0, inf)."""
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise ValueError("a'(x) requires x > 0")
        return self.alpha * x ** (self.alpha - 1.0)


@dataclass(frozen=True)
class GradientWeightSpec:
    """Gradient weight beta(x) = c * x**b_exp with b_exp > 1.

    Three pointwise conditions are required on the grid:

        beta**2 <= a,   (beta**2)' <= 2 a',   beta' <= M (finite).

    For a = x**alpha with alpha < 1 the raw beta = x**b violates the
    derivative condition away from the origin, so beta is scaled by the
    largest constant c <= 1 making all conditions hold nodewise (clipping);
    c depends on the degeneracy a, so beta is evaluated with it.
    """

    b_exp: float

    def __post_init__(self):
        if self.b_exp <= 1.0:
            raise ValueError(f"b_exp must exceed 1, got {self.b_exp}")

    def clip_factor(self, deg: DegeneracySpec) -> float:
        """The largest admissible c for beta = c x**b, in closed form.

        beta**2 <= a needs c**2 x**(2b) <= x**alpha on (0,1], worst at x=1,
        so c <= 1; (beta**2)' <= 2a' needs 2 b c**2 x**(2b-1) <= 2 alpha
        x**(alpha-1), worst at x=1, so c**2 <= alpha/b.
        `beta_condition_report` checks both at the nodes.
        """
        return min(1.0, np.sqrt(deg.alpha / self.b_exp))

    def beta(self, x, deg: DegeneracySpec):
        """Evaluate beta(x) = clip_factor(deg) * x**b_exp, x >= 0."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("beta(x) requires x >= 0")
        return self.clip_factor(deg) * x**self.b_exp


def beta_condition_report(gw: GradientWeightSpec, deg: DegeneracySpec, n: int = 512) -> dict:
    """Nodewise check of the three gradient-weight conditions.

    Returns a dict with boolean verdicts, the clip factor, the derivative
    bound M = max beta' over the nodes, and the largest violation margin
    of the raw (unclipped) beta for reference.
    """
    x = np.linspace(0.0, 1.0, n)[1:]
    c = gw.clip_factor(deg)
    b = gw.beta(x, deg)
    raw = x**gw.b_exp
    m_bound = float(np.max(gw.b_exp * c * x ** (gw.b_exp - 1.0)))
    report = {
        "beta_sq_le_a": bool(np.all(b**2 <= deg.a(x) * (1 + 1e-12))),
        "beta_sq_prime_le_2a_prime": bool(
            np.all(
                2 * gw.b_exp * c**2 * x ** (2 * gw.b_exp - 1)
                <= 2 * deg.a_prime(x) * (1 + 1e-12)
            )
        ),
        "beta_prime_bounded": np.isfinite(m_bound),
        "M": m_bound,
        "clip_factor": float(c),
        "raw_violation_margin": float(
            np.max(2 * gw.b_exp * raw**2 / x - 2 * deg.a_prime(x) * x**0)
        ),
    }
    report["all_ok"] = (
        report["beta_sq_le_a"]
        and report["beta_sq_prime_le_2a_prime"]
        and report["beta_prime_bounded"]
    )
    return report


_ELL_FAMILIES = ("constant", "affine", "exponential", "sinusoidal")


@dataclass(frozen=True)
class MovingDomainSpec:
    """Moving-interval length l(t) from a small parametric family.

    family:
      constant     l(t) = l0
      affine       l(t) = l0 * (1 + k t)
      exponential  l(t) = l0 * exp(k t)
      sinusoidal   l(t) = l0 * (1 + k sin(w t)),  |k| < 1

    Each family has an analytic derivative, so no numerical
    differentiation of user input is ever needed.  l(t) > 0 on [0,T] is
    checked at t = 0 and t = T: the constant, affine and exponential
    families are monotone, and the sinusoid stays positive by |k| < 1.
    """

    T: float
    family: str
    l0: float
    k: float
    w: float

    def __post_init__(self):
        # every refused field in one error
        faults = [f"{name} must be positive" for name in ("T", "l0")
                  if getattr(self, name) <= 0]
        if self.family not in _ELL_FAMILIES:
            faults.append(f"unknown ell family {self.family!r}; options: {_ELL_FAMILIES}")
        if self.family == "sinusoidal" and abs(self.k) >= 1:
            faults.append("sinusoidal family needs |k| < 1 to keep l > 0")
        if faults:
            raise ValueError("; ".join(faults))
        if np.any(self.ell([0.0, self.T]) <= 0):
            raise ValueError("l(t) must stay positive on [0,T]")

    def ell(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "constant":
            return self.l0 * np.ones_like(t)
        if self.family == "affine":
            return self.l0 * (1.0 + self.k * t)
        if self.family == "exponential":
            return self.l0 * np.exp(self.k * t)
        return self.l0 * (1.0 + self.k * np.sin(self.w * t))

    def ell_prime(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "constant":
            return np.zeros_like(t)
        if self.family == "affine":
            return self.l0 * self.k * np.ones_like(t)
        if self.family == "exponential":
            return self.l0 * self.k * np.exp(self.k * t)
        return self.l0 * self.k * self.w * np.cos(self.w * t)

    def coefficients(self, deg: DegeneracySpec, gw: GradientWeightSpec, t):
        """Cylinder coefficients (b(t), B(t), C(t)) at time t."""
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-14) or np.any(t > self.T + 1e-14):
            raise ValueError("t outside [0,T]")
        l = self.ell(t)
        b_t = deg.a(l) / l**2
        big_b = self.ell_prime(t) / l
        c_t = gw.beta(l, deg) / l
        return b_t, big_b, c_t


@dataclass(frozen=True)
class ControlGeometry:
    """Control and observation windows, in cylinder coordinates.

    O is the leader window, O1/O2 the follower windows and Od the single
    shared observation window; each is an open interval (a, b) with
    0 < a < b < 1.  The source paper's ties of the windows to O (O1 and
    O2 apart from it, Od meeting it) are checked by the harness, in the
    runs that read both windows of a tie.
    """

    O: tuple
    O1: tuple
    O2: tuple
    Od: tuple

    def __post_init__(self):
        # every refused window in one error
        faults = []
        for name in ("O", "O1", "O2", "Od"):
            a, b = window = getattr(self, name)
            if not 0.0 < a < b < 1.0:
                faults.append(f"window {name}={window} must satisfy "
                              f"0 < a < b < 1")
        if faults:
            raise ValueError("; ".join(faults))

    def indicator(self, window: str, x: np.ndarray) -> np.ndarray:
        a, b = getattr(self, window)
        return ((x > a) & (x < b)).astype(float)
