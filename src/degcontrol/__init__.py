"""Hierarchical (Stackelberg-Nash) control of a weakly degenerate
semilinear parabolic equation on a moving 1-D domain.

The moving-interval problem is pulled back to the fixed cylinder
(0,1) x (0,T); the followers play a Nash game over tracking functionals
while the leader steers the state to zero at t=T via a Carleman-weighted
variational (HUM-type) control, extended to the semilinear equation by a
Newton-Kantorovich loop.
"""

from .geometry import (
    ControlGeometry,
    DegeneracySpec,
    GradientWeightSpec,
    MovingDomainSpec,
    beta_condition_report,
)
from .grids import SpatialGrid, TimeMesh, TrajectoryField
from .semilinear import SemilinearF
from .solvers import (
    CylinderProblem,
    EnergyReport,
    energy_diagnostics,
    solve_adjoint_coupled,
    solve_forward_semilinear,
    solve_linearized_coupled,
)
from .carleman import CarlemanParams, CarlemanWeights
from .nash import GameSpec, NashSolution, nash_fixed_point
from .nullcontrol import (
    ControlledTriple,
    LinearControlProblem,
    solve_linear_null_control,
    solve_nonlinear_null_control,
)
from .harness import ScenarioConfig, preset, run_scenario, validate_config

__version__ = "0.1.0"

__all__ = [
    "ControlGeometry",
    "DegeneracySpec",
    "GradientWeightSpec",
    "MovingDomainSpec",
    "beta_condition_report",
    "SpatialGrid",
    "TimeMesh",
    "TrajectoryField",
    "SemilinearF",
    "CylinderProblem",
    "EnergyReport",
    "energy_diagnostics",
    "solve_forward_semilinear",
    "solve_linearized_coupled",
    "solve_adjoint_coupled",
    "CarlemanParams",
    "CarlemanWeights",
    "GameSpec",
    "NashSolution",
    "nash_fixed_point",
    "LinearControlProblem",
    "ControlledTriple",
    "solve_linear_null_control",
    "solve_nonlinear_null_control",
    "ScenarioConfig",
    "preset",
    "run_scenario",
    "validate_config",
    "__version__",
]
