"""scipy.sparse reference forms of the band operators.

The package keeps every level operator as bands (`degcontrol.operators`);
these CSR assemblies are the independent reference the band forms are
tested against, and no code path of the package calls them.
"""

import numpy as np
import scipy.sparse as sp

from degcontrol.operators import stiffness_bands
from degcontrol.solvers import central_gradient_bands


def tridiag_csr(bands: np.ndarray) -> sp.csr_matrix:
    """CSR matrix of one row-aligned band triple (3, n); zeros are dropped."""
    lo, d, up = bands
    n = d.size
    return sp.diags([lo[1:], d, up[:-1]], [-1, 0, 1], shape=(n, n),
                    format="csr")


def assemble_stiffness(grid, deg) -> sp.csr_matrix:
    """Symmetric form matrix A (interior x interior) with u^T A u ~ int a |u_x|^2.

    The operator approximating -(a u_x)_x is W^{-1} A with W the cell
    volumes; A itself is exactly symmetric by construction.
    """
    return tridiag_csr(stiffness_bands(grid, deg))


def assemble_drift(grid, coeff: np.ndarray) -> sp.csr_matrix:
    """First-order upwind discretization of c(x) u_x on interior nodes.

    `coeff` holds c at the N-1 interior nodes.  Rows with c_j > 0 use the
    backward difference, c_j < 0 the forward one, so the operator is an
    M-matrix contribution and vanishes on constant fields in the interior.
    This row loop is the reference that `drift_bands` is tested against.
    """
    n = grid.N - 1
    coeff = np.asarray(coeff, dtype=float)
    if coeff.shape != (n,):
        raise ValueError(f"coeff must have shape ({n},)")
    h = grid.spacings  # h[j] = x_{j+1} - x_j
    lower = np.zeros(n - 1)
    diag = np.zeros(n)
    upper = np.zeros(n - 1)
    for j in range(n):
        c = coeff[j]
        if c >= 0:
            # (u_j - u_{j-1}) / h_{j-1/2}; interior node j sits at x_{j+1}
            diag[j] += c / h[j]
            if j > 0:
                lower[j - 1] -= c / h[j]
        else:
            diag[j] -= c / h[j + 1]
            if j < n - 1:
                upper[j] += c / h[j + 1]
    return sp.diags([lower, diag, upper], [-1, 0, 1], shape=(n, n), format="csr")


def central_gradient_matrix(grid) -> sp.csr_matrix:
    """CSR form of `solvers.central_gradient_bands`."""
    return tridiag_csr(central_gradient_bands(grid))
