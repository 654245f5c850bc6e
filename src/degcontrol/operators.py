"""Discrete spatial operators for the cylinder equation, stored as bands.

The second-order term b(t) (a(x) u_x)_x is discretized in conservative flux
form with a evaluated at face midpoints.  Transport terms c(x) u_x use
first-order upwinding keyed to the sign of c.  All operators act on interior
nodal vectors (homogeneous Dirichlet rows eliminated) and are tridiagonal,
so they are stored as row-aligned bands: an array of shape (..., 3, n)
whose rows hold, for each grid row j, the entries (L[j, j-1], L[j, j],
L[j, j+1]); the unused corners (sub[0], super[n-1]) are zero.  A leading
axis stacks the operators of all time levels, which lets every level be
assembled by one vectorized expression.

Adjoints are exact transposes with respect to the cell-volume inner
product, W^{-1} L^T W, which is what makes the discrete forward/backward
duality identities hold to roundoff.  A backward step with that adjoint
needs no factorization of its own: (I + dt W^{-1} L^T W) p = r is solved as
W p = (I + dt L)^{-T} W r through the factors of the forward step.  A
backward march therefore runs on q = W p: its rows are scaled by W once
and unscaled once, and no level forms the weighted transpose.

`weighted_transpose` is the scipy.sparse form of the weighted adjoint,
a reference for the band form that no code path of the package calls;
the sparse reference assemblies of the other band forms live with the
tests.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .geometry import DegeneracySpec
from .grids import SpatialGrid

__all__ = [
    "band_apply",
    "band_transpose",
    "band_weighted_transpose",
    "drift_bands",
    "stiffness_bands",
    "weighted_transpose",
]


def band_apply(bands: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Product of bands (..., 3, n) with vectors x (..., n), levelwise.

    Terms are summed in the order of a CSR row (sub, diagonal, super), so
    the result equals the CSR product of the tridiagonal matrix with x bit
    for bit.
    """
    out = bands[..., 1, :] * x
    out[..., 1:] += bands[..., 0, 1:] * x[..., :-1]
    out[..., :-1] += bands[..., 2, :-1] * x[..., 1:]
    return out


def band_transpose(bands: np.ndarray) -> np.ndarray:
    """Bands of the plain transpose L^T.

    `band_apply` with these bands sums each row in the order of a CSC
    product with L^T, so it equals that sparse product bit for bit.
    """
    out = np.zeros_like(bands)
    out[..., 0, 1:] = bands[..., 2, :-1]
    out[..., 1, :] = bands[..., 1, :]
    out[..., 2, :-1] = bands[..., 0, 1:]
    return out


def band_weighted_transpose(bands: np.ndarray,
                            volumes: np.ndarray) -> np.ndarray:
    """Bands of W^{-1} L^T W, the adjoint in the cell-volume inner product.

    Entry (i, j) is ((1/w_i) L[j, i]) w_j, multiplied in the order of the
    sparse product in `weighted_transpose`, so both agree bit for bit.
    """
    out = (1.0 / volumes) * band_transpose(bands)
    out[..., 0, 1:] *= volumes[:-1]
    out[..., 1, :] *= volumes
    out[..., 2, :-1] *= volumes[1:]
    return out


def stiffness_bands(grid: SpatialGrid, deg: DegeneracySpec) -> np.ndarray:
    """Bands (3, n) of the symmetric form matrix A, u^T A u ~ int a |u_x|^2.

    The operator approximating -(a u_x)_x is W^{-1} A with W the cell
    volumes; A itself is exactly symmetric by construction.
    """
    g = deg.a(grid.faces) / grid.spacings  # face conductances, length N
    bands = np.zeros((3, grid.N - 1))
    bands[0, 1:] = -g[1:-1]
    bands[1] = g[:-1] + g[1:]
    bands[2, :-1] = -g[1:-1]
    return bands


def drift_bands(grid: SpatialGrid, coeff: np.ndarray) -> np.ndarray:
    """Bands (..., 3, n) of the upwind c(x) u_x for coeff of shape (..., n).

    Vectorized over any leading (time level) axes.  Rows with c_j >= 0
    use the backward difference, c_j < 0 the forward one, so the operator
    is an M-matrix contribution and vanishes on constant fields in the
    interior.
    """
    coeff = np.asarray(coeff, dtype=float)
    n = grid.N - 1
    if coeff.shape[-1:] != (n,):
        raise ValueError(f"coeff must have trailing length {n}")
    h = grid.spacings
    back = coeff / h[:-1]  # c >= 0: (u_j - u_{j-1}) / h_{j-1/2}
    fwd = coeff / h[1:]    # c < 0:  (u_{j+1} - u_j) / h_{j+1/2}
    up = coeff >= 0
    bands = np.zeros(coeff.shape[:-1] + (3, n))
    bands[..., 0, :] = np.where(up, -back, 0.0)
    bands[..., 1, :] = np.where(up, back, -fwd)
    bands[..., 2, :] = np.where(up, 0.0, fwd)
    bands[..., 0, 0] = 0.0
    bands[..., 2, -1] = 0.0
    return bands


def weighted_transpose(L: sp.spmatrix, volumes: np.ndarray) -> sp.csr_matrix:
    """Adjoint of L with respect to the cell-volume inner product."""
    w = sp.diags(volumes)
    winv = sp.diags(1.0 / volumes)
    return (winv @ L.T @ w).tocsr()
