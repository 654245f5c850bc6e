"""In-memory span and counter recorder, installed around degcontrol's layers.

Every span is timed from outside the package: the recorder replaces a
public function or method with a wrapper that opens a span, calls the
original and closes the span.  Some modules bind imported names into
their own namespace (``harness`` holds ``nash_fixed_point``, ``solvers``
holds ``weighted_transpose``), so a function is replaced under every
module attribute that refers to it, which is where its callers look it
up.  The wrappers only observe arguments and results, so every number
the program computes is the same with tracing on and off.

``geometry``, ``grids`` and ``semilinear`` are elementwise numpy called
once per time step inside ``solvers``; wrapping them would cost more than
they do, so their time shows as ``solvers`` self time.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# span name -> name of the metric counting its calls (None: not reported)
SPANS = {
    "harness.run": None,
    "carleman.weights": None,
    "carleman.observability": None,
    "carleman.carleman": None,
    "solvers.ops_at_state": None,
    "solvers.level_build": "solvers.level_builds",
    "operators.weighted_transpose": "operators.weighted_transpose_calls",
    "solvers.linear_march": "solvers.linear_marches",
    "solvers.semilinear_march": "solvers.semilinear_marches",
    "solvers.coupled_sweep": None,
    "solvers.csv_write": None,
    "nullcontrol.hum_build": None,
    "nullcontrol.hum_solve": "nullcontrol.hum_solves",
    "nullcontrol.newton": None,
    "nullcontrol.estimates": None,
    "nash.fixed_point": "nash.fixed_point_calls",
    "nash.gradient": "nash.gradient_calls",
    "nash.second_form": "nash.second_form_calls",
}

# counters filled by the hooks below, reported as counts
COUNTERS = (
    "solvers.lu_factorizations",
    "solvers.coupled_sweeps",
    "nullcontrol.hum_unknowns",
    "nullcontrol.hum_matrix_nnz",
    "nullcontrol.hum_lu_nnz",
    "nullcontrol.cg_iterations",
    "nullcontrol.newton_steps",
    "nullcontrol.newton_failures",
    "nash.sweeps",
)
MAXIMA = ("nullcontrol.hum_rel_residual",)


class Tracer:
    """Spans as [name, start, end, parent index] plus named counters."""

    def __init__(self):
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.maxima = dict.fromkeys(MAXIMA, 0.0)
        self._open: list = []

    def wrap(self, fn, name, after=None, failed=None):
        """Returns fn wrapped in a span; after/failed see its outcome."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, perf_counter(), None, parent])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if failed is not None:
                    failed(exc)
                raise
            finally:
                self._open.pop()
                self.spans[idx][2] = perf_counter()
            if after is not None:
                after(args, result)
            return result

        return traced

    def innermost(self):
        return self.spans[self._open[-1]][0] if self._open else None

    def summary(self) -> dict:
        """Per span name: total time, self time and number of calls."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {name: {"total": 0.0, "self": 0.0, "calls": 0} for name in SPANS}
        for (name, start, end, _), covered in zip(self.spans, child):
            agg = out[name]
            agg["total"] += end - start
            agg["self"] += end - start - covered
            agg["calls"] += 1
        return out

    def metrics(self) -> dict:
        """Flat per-layer metrics: times, self times, calls and counters."""
        out = {}
        for name, agg in self.summary().items():
            out[f"{name}_s"] = agg["total"]
            out[f"{name}_self_s"] = agg["self"]
            if SPANS[name] is not None:
                out[SPANS[name]] = agg["calls"]
        out.update(self.counts)
        out.update(self.maxima)
        out["trace.spans"] = len(self.spans)
        return out


def install(tracer: Tracer) -> None:
    """Installs the wrappers for the rest of the process's life."""
    import scipy.sparse.linalg as spla

    from degcontrol import (carleman, harness, nash, nullcontrol, operators,
                            solvers)

    modules = [mod for name, mod in list(sys.modules.items())
               if name == "degcontrol" or name.startswith("degcontrol.")]
    counts, maxima = tracer.counts, tracer.maxima

    def function(fn, name, after=None, failed=None):
        wrapped = tracer.wrap(fn, name, after, failed)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)

    def method(cls, attr, name, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, name,
                                                       after)))
        else:
            setattr(cls, attr, tracer.wrap(raw, name, after))

    def add(key, value):
        counts[key] += int(value)

    def count_history(key, error_type):
        def failed(exc):
            if isinstance(exc, error_type):
                add(key, len(exc.history))
        return (lambda args, result: add(key, len(result.history))), failed

    def hum_built(args, result):
        hum = args[0]
        counts["nullcontrol.hum_unknowns"] = max(
            counts["nullcontrol.hum_unknowns"], hum.Bs.shape[0])
        counts["nullcontrol.hum_matrix_nnz"] = max(
            counts["nullcontrol.hum_matrix_nnz"], hum.Bs.nnz)
        counts["nullcontrol.hum_lu_nnz"] = max(
            counts["nullcontrol.hum_lu_nnz"], hum.lu.L.nnz + hum.lu.U.nnz)

    def hum_solved(args, triple):
        add("nullcontrol.cg_iterations", triple.cg_info["iterations"])
        key = "nullcontrol.hum_rel_residual"
        maxima[key] = max(maxima[key], triple.cg_info["relative_residual"])

    def newton_done(args, result):
        add("nullcontrol.newton_steps", len(result[1]))

    def newton_failed(exc):
        add("nullcontrol.newton_failures", 1)
        if isinstance(exc, nullcontrol.NewtonFailureError):
            add("nullcontrol.newton_steps", len(exc.history))

    splu = spla.splu

    def counted_splu(*args, **kwargs):
        # the HUM factorization is reported by its size, not counted here
        if tracer.innermost() != "nullcontrol.hum_build":
            add("solvers.lu_factorizations", 1)
        return splu(*args, **kwargs)

    spla.splu = counted_splu
    function(harness.run_scenario, "harness.run")
    method(carleman.CarlemanWeights, "__init__", "carleman.weights")
    function(carleman.empirical_observability, "carleman.observability")
    function(carleman.empirical_carleman, "carleman.carleman")
    method(solvers.CylinderProblem, "ops_at_state", "solvers.ops_at_state")
    method(solvers.LevelOps, "build", "solvers.level_build")
    function(operators.weighted_transpose, "operators.weighted_transpose")
    function(solvers.solve_forward_linear, "solvers.linear_march")
    function(solvers.solve_backward_linear, "solvers.linear_march")
    function(solvers.solve_forward_semilinear, "solvers.semilinear_march")
    sweeps = count_history("solvers.coupled_sweeps", solvers.SweepFailureError)
    function(solvers.solve_adjoint_coupled, "solvers.coupled_sweep", *sweeps)
    function(solvers.solve_linearized_coupled, "solvers.coupled_sweep",
             *sweeps)
    function(solvers.dump_trajectory_csv, "solvers.csv_write")
    method(nullcontrol.HUMSolver, "__init__", "nullcontrol.hum_build",
           hum_built)
    method(nullcontrol.HUMSolver, "solve", "nullcontrol.hum_solve",
           hum_solved)
    function(nullcontrol.solve_nonlinear_null_control, "nullcontrol.newton",
             newton_done, newton_failed)
    function(nullcontrol.verify_additional_estimates, "nullcontrol.estimates")
    function(nash.nash_fixed_point, "nash.fixed_point",
             *count_history("nash.sweeps", solvers.SweepFailureError))
    function(nash.functional_gradient, "nash.gradient")
    function(nash.second_derivative_form, "nash.second_form")


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call, from wrapping a no-op function.

    Times in a throwaway tracer, so the spans of the measured run are
    left as they were.
    """

    def noop():
        return None

    wrapped = Tracer().wrap(noop, "harness.run")
    start = perf_counter()
    for _ in range(calls):
        noop()
    plain = perf_counter() - start
    start = perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (perf_counter() - start - plain) / calls)
