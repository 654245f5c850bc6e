"""Semilinear term F(u, w) and its derivatives up to second order.

The state equation carries F(y, C(t) beta(x) y_x), so F takes the state
value and a weighted gradient as arguments.  All solvers only assume that
F is C^2 with bounded derivatives; the evaluators below are vectorized
callables and the second derivatives feed the eta/theta system behind the
convexity certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["SemilinearF", "fd_consistency_report"]

Evaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SemilinearF:
    """Nonlinearity F(u, w) with first and second partial derivatives.

    Evaluators must accept numpy arrays of equal shape and broadcast.
    """

    F: Evaluator
    D1: Evaluator
    D2: Evaluator
    D11: Evaluator
    D12: Evaluator
    D21: Evaluator
    D22: Evaluator

    @classmethod
    def sinusoidal(cls, kappa1: float, kappa2: float) -> "SemilinearF":
        """F(u,w) = kappa1 sin(u) + kappa2 sin(w), the config's label
        `sinusoidal`; kappa1 = kappa2 = 0 is the linear case F = 0.

        C^2 with globally bounded derivatives and F(0,0)=0, and it
        exercises both arguments of F.
        """
        return cls(
            F=lambda u, w: kappa1 * np.sin(u) + kappa2 * np.sin(w),
            D1=lambda u, w: kappa1 * np.cos(u) + 0.0 * w,
            D2=lambda u, w: kappa2 * np.cos(w) + 0.0 * u,
            D11=lambda u, w: -kappa1 * np.sin(u) + 0.0 * w,
            D12=lambda u, w: np.zeros_like(np.asarray(u, dtype=float)),
            D21=lambda u, w: np.zeros_like(np.asarray(u, dtype=float)),
            D22=lambda u, w: -kappa2 * np.sin(w) + 0.0 * u,
        )

    def derivative_bound_report(self, box: float = 4.0, n: int = 2001) -> dict:
        """Sampled sup of |F| and all derivatives on [-box, box]^2."""
        u = np.linspace(-box, box, n)
        w = u[::-1].copy()
        names = ("F", "D1", "D2", "D11", "D12", "D21", "D22")
        sups = {}
        for name in names:
            vals = getattr(self, name)(u, w)
            if not np.all(np.isfinite(vals)):
                raise FloatingPointError(f"{name} not finite on sample box")
            sups[name] = float(np.max(np.abs(vals)))
        sups["all_bounded"] = True
        return sups


def fd_consistency_report(f: SemilinearF, rng: np.random.Generator,
                          samples: int = 64, eps: float = 1e-6) -> dict:
    """Central finite differences of F vs supplied first derivatives.

    Returns max relative mismatch for each partial; the contract asks for
    agreement to 1e-6 relative on random samples.
    """
    u = rng.uniform(-2.0, 2.0, samples)
    w = rng.uniform(-2.0, 2.0, samples)
    scale = 1.0 + np.abs(f.D1(u, w)) + np.abs(f.D2(u, w))
    fd1 = (f.F(u + eps, w) - f.F(u - eps, w)) / (2 * eps)
    fd2 = (f.F(u, w + eps) - f.F(u, w - eps)) / (2 * eps)
    err1 = np.max(np.abs(fd1 - f.D1(u, w)) / scale)
    err2 = np.max(np.abs(fd2 - f.D2(u, w)) / scale)
    # second derivatives, from first-derivative central differences
    fd11 = (f.D1(u + eps, w) - f.D1(u - eps, w)) / (2 * eps)
    fd12 = (f.D1(u, w + eps) - f.D1(u, w - eps)) / (2 * eps)
    fd21 = (f.D2(u + eps, w) - f.D2(u - eps, w)) / (2 * eps)
    fd22 = (f.D2(u, w + eps) - f.D2(u, w - eps)) / (2 * eps)
    errs = {
        "D1": float(err1),
        "D2": float(err2),
        "D11": float(np.max(np.abs(fd11 - f.D11(u, w)) / scale)),
        "D12": float(np.max(np.abs(fd12 - f.D12(u, w)) / scale)),
        "D21": float(np.max(np.abs(fd21 - f.D21(u, w)) / scale)),
        "D22": float(np.max(np.abs(fd22 - f.D22(u, w)) / scale)),
    }
    errs["max"] = max(errs.values())
    return errs
