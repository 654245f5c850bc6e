"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of one core swings by up to 2x within
seconds to minutes, as other tenants load the machine, so a scenario's
wall time in seconds says as much about the neighbours as about the
program.  Each worker times this kernel just before and just after its
scenario, in the same process, and the benchmark reports the scenario's
time in multiples of the kernel's mean time over the whole run: the
host's drift from one run to the next cancels out, and the program's
speed does not, because the kernel never calls into ``degcontrol``.

The kernel has the shape of the package's hot paths on a small grid:
scipy.sparse assembly with its Python overhead, a sparse LU, then a
time-marching loop of small solves, banded products and elementwise
numpy, with plain-Python bookkeeping on each step.  It is frozen: edit
it and every earlier figure stops being comparable.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SIDE = 48
STEPS = 120
BOOKKEEPING = 200
MIN_LOOPS = 2


def kernel() -> float:
    """One pass of the kernel; returns a number so that nothing is elided."""
    n = SIDE
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    eye = sp.identity(n, format="csr")
    A = (sp.kron(eye, T) + sp.kron(T, eye) + sp.identity(n * n)).tocsc()
    lu = spla.splu(A)
    y = np.linspace(0.0, 1.0, n * n)
    tally: dict = {}
    for _ in range(STEPS):
        B = sp.diags([0.1 * y[:-1], 1.0 + y, 0.1 * y[:-1]], [-1, 0, 1],
                     format="csc")
        y = 0.5 * np.tanh(lu.solve(y) + B @ y) + 0.5 * y
        for j in range(BOOKKEEPING):
            tally[j % 31] = tally.get(j % 31, 0.0) + j
    return float(y.sum()) + tally[0]


def loop_times(seconds: float) -> list:
    """Times passes of the kernel for about seconds, at least MIN_LOOPS.

    Call kernel() once, untimed, before the first of these in a process,
    so that first-call costs stay out of the times.
    """
    times = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(times) < MIN_LOOPS:
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return times

