"""Shared fixtures; expensive objects are session-scoped."""

import numpy as np
import pytest

from degcontrol.carleman import (CarlemanParams, CarlemanWeights,
                                 adjoint_basis, weight_roots)
from degcontrol.harness import default_config
from degcontrol.nash import GameSpec, make_default_targets
from degcontrol.semilinear import SemilinearF
from degcontrol.solvers import CylinderProblem


# the Newton settings of a run with the default solver section:
# (tol_z, tol_terminal, max_newton) of solve_nonlinear_null_control
_SOLVER = default_config()["solver"]
NEWTON = (_SOLVER["newton_tol"], _SOLVER["tol_terminal"],
          _SOLVER["newton_max"])


@pytest.fixture(scope="session")
def prob():
    """Default desk-scale semilinear problem."""
    return CylinderProblem.default(N=64, M=128)


@pytest.fixture(scope="session")
def prob_linear():
    """Same scale with F == 0."""
    return CylinderProblem.default(N=64, M=128, F=SemilinearF.zero())


@pytest.fixture(scope="session")
def prob_small():
    """Cheap problem for iteration-heavy tests."""
    return CylinderProblem.default(N=32, M=48)


@pytest.fixture(scope="session")
def weights(prob):
    return CarlemanWeights(CarlemanParams(), prob.deg, prob.grid, prob.mesh)


@pytest.fixture(scope="session")
def game(prob, weights):
    g = GameSpec(mu1=5.0, mu2=5.0)
    g.target1, g.target2 = make_default_targets(prob, weights, 1.0)
    return g


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def sampler_inputs(prob, weights, couplings):
    """(basis, roots): the `adjoint_basis` of the couplings and the
    `weight_roots` of the weights, which the samplers and the form
    builders read."""
    return adjoint_basis(prob, couplings), weight_roots(prob, weights)


def default_targets(prob):
    """The targets of amplitude 1 under prob's default Carleman weights,
    as a run with the default carleman and game sections builds them."""
    weights = CarlemanWeights(CarlemanParams(), prob.deg, prob.grid,
                              prob.mesh)
    return make_default_targets(prob, weights, 1.0)


def sine_data(prob, amplitude):
    x = prob.grid.nodes
    y0 = amplitude * np.sin(np.pi * x)
    y0[0] = y0[-1] = 0.0
    return y0


def cubic_F():
    """F = u^3 + 2 sin(w): a nonlinearity that grows, unlike the default."""
    zero = SemilinearF.zero().D12
    return SemilinearF(
        F=lambda u, w: u**3 + 2.0 * np.sin(w),
        D1=lambda u, w: 3.0 * u**2 + 0.0 * w,
        D2=lambda u, w: 2.0 * np.cos(w) + 0.0 * u,
        D11=lambda u, w: 6.0 * u + 0.0 * w, D12=zero, D21=zero,
        D22=lambda u, w: -2.0 * np.sin(w) + 0.0 * u, label="cubic")


def rel_gap(a, b):
    """Largest entry of a - b relative to the largest entry of b."""
    return np.max(np.abs(a - b)) / np.max(np.abs(b))
