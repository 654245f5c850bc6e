"""Shared fixtures; expensive objects are session-scoped."""

import numpy as np
import pytest

from degcontrol.carleman import adjoint_basis, weight_roots
from degcontrol.harness import build_run, default_config
from degcontrol.nash import GameSpec
from degcontrol.semilinear import SemilinearF
from degcontrol.solvers import CylinderProblem


# the Newton settings of a run with the default solver section:
# (tol_z, tol_terminal, max_newton) of solve_nonlinear_null_control
_SOLVER = default_config()["solver"]
NEWTON = (_SOLVER["newton_tol"], _SOLVER["tol_terminal"],
          _SOLVER["newton_max"])

# the config section of the F = 0 problem
LINEAR = {"nonlinearity": {"kappa1": 0.0, "kappa2": 0.0}}
# the game section of a game without targets
NO_TARGETS = {"target_amplitude": 0.0}
# a game with unit weights and penalties, the Jacobian factor and no
# targets; a copy by `dataclasses.replace` sets other fields
UNIT_GAME = GameSpec(alpha1=1.0, alpha2=1.0, mu1=1.0, mu2=1.0,
                     jacobian_weighting=True)


def build(N, M, **sections):
    """(prob, weights, game) of the default config on grid (N, M), with
    the fields of `sections` set, as `build_run` builds them."""
    return build_run({"grid": {"N": N, "M": M}, **sections})


def with_F(prob, F):
    """prob with the nonlinearity F, which no config names."""
    return CylinderProblem(prob.deg, prob.gw, prob.dom, prob.windows,
                           prob.grid, prob.mesh, F)


@pytest.fixture(scope="session")
def desk():
    """(prob, weights, game) of the default config: the desk-scale
    semilinear run, N=64 and M=128, with targets of amplitude 1."""
    return build_run({})


@pytest.fixture(scope="session")
def prob(desk):
    return desk[0]


@pytest.fixture(scope="session")
def weights(desk):
    return desk[1]


@pytest.fixture(scope="session")
def game(desk):
    return desk[2]


@pytest.fixture(scope="session")
def linear():
    """(prob, weights, game) of the desk-scale run with F == 0."""
    return build_run(LINEAR)


@pytest.fixture(scope="session")
def prob_linear(linear):
    return linear[0]


@pytest.fixture(scope="session")
def prob_small():
    """Cheap problem for iteration-heavy tests."""
    return build(32, 48)[0]


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def sampler_inputs(prob, weights, couplings):
    """(basis, roots): the `adjoint_basis` of the couplings and the
    `weight_roots` of the weights, which the samplers and the form
    builders read."""
    return adjoint_basis(prob, couplings), weight_roots(prob, weights)


def sine_data(prob, amplitude):
    x = prob.grid.nodes
    y0 = amplitude * np.sin(np.pi * x)
    y0[0] = y0[-1] = 0.0
    return y0


def cubic_F():
    """F = u^3 + 2 sin(w): a nonlinearity that grows, unlike the default."""
    zero = SemilinearF.sinusoidal(0.0, 0.0).D12
    return SemilinearF(
        F=lambda u, w: u**3 + 2.0 * np.sin(w),
        D1=lambda u, w: 3.0 * u**2 + 0.0 * w,
        D2=lambda u, w: 2.0 * np.cos(w) + 0.0 * u,
        D11=lambda u, w: 6.0 * u + 0.0 * w, D12=zero, D21=zero,
        D22=lambda u, w: -2.0 * np.sin(w) + 0.0 * u)


def rel_gap(a, b):
    """Largest entry of a - b relative to the largest entry of b."""
    return np.max(np.abs(a - b)) / np.max(np.abs(b))
