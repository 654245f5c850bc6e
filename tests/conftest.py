"""Shared fixtures; expensive objects are session-scoped."""

import numpy as np
import pytest

from degcontrol.carleman import CarlemanParams, CarlemanWeights
from degcontrol.nash import GameSpec, make_default_targets
from degcontrol.semilinear import SemilinearF
from degcontrol.solvers import CylinderProblem


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
    g.target1, g.target2 = make_default_targets(prob, weights=weights)
    return g


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def sine_data(prob, amplitude):
    x = prob.grid.nodes
    y0 = amplitude * np.sin(np.pi * x)
    y0[0] = y0[-1] = 0.0
    return y0


def rel_gap(a, b):
    """Largest entry of a - b relative to the largest entry of b."""
    return np.max(np.abs(a - b)) / np.max(np.abs(b))
