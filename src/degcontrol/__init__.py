"""Hierarchical (Stackelberg-Nash) control of a weakly degenerate
semilinear parabolic equation on a moving 1-D domain.

The moving-interval problem is pulled back to the fixed cylinder
(0,1) x (0,T); the followers play a Nash game over tracking functionals
while the leader steers the state to zero at t=T via a Carleman-weighted
variational (HUM-type) control, extended to the semilinear equation by a
Newton-Kantorovich loop.

The names below are imported from their modules on first access, so
importing the package (or `degcontrol.cli`) loads neither numpy nor
scipy: the CLI can still cap the BLAS thread pools before they start.
"""

from importlib import import_module

__version__ = "0.1.0"

_SOURCES = {
    "geometry": ("ControlGeometry", "DegeneracySpec", "GradientWeightSpec",
                 "MovingDomainSpec", "beta_condition_report"),
    "grids": ("SpatialGrid", "TimeMesh", "TrajectoryField"),
    "semilinear": ("SemilinearF",),
    "solvers": ("CylinderProblem", "energy_diagnostics",
                "solve_forward_semilinear", "solve_linearized_coupled",
                "solve_adjoint_coupled"),
    "carleman": ("CarlemanParams", "CarlemanWeights"),
    "nash": ("GameSpec", "NashSolution", "nash_fixed_point"),
    "nullcontrol": ("HUMSolver", "ControlledTriple",
                    "solve_nonlinear_null_control"),
    "harness": ("ScenarioConfig", "build_run", "preset", "run_scenario",
                "validate_config"),
}
_MODULE_OF = {name: mod for mod, names in _SOURCES.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
