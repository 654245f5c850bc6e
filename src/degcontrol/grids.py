"""Spatial grid, time mesh and space-time trajectory fields.

The grid is graded toward the degeneracy point x = 0 via x_j = (j/N)**gamma.
Discrete L2 inner products use the cell volumes w_j = (x_{j+1} - x_{j-1})/2
(trapezoid weights), so that operator adjoints taken with respect to the
weighted inner product reproduce the continuous integration by parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SpatialGrid", "TimeMesh", "TrajectoryField", "integral_q"]


@dataclass(frozen=True)
class SpatialGrid:
    """Graded grid on [0,1] with N+1 nodes, x_0 = 0 and x_N = 1."""

    N: int
    gamma: float
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    cell_volumes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.N < 4:
            raise ValueError("need N >= 4")
        if self.gamma <= 0:
            raise ValueError("grading exponent must be positive")
        x = (np.arange(self.N + 1) / self.N) ** self.gamma
        x[0], x[-1] = 0.0, 1.0
        if np.any(np.diff(x) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", x)
        # trapezoid weights for all N+1 nodes; read on every inner product
        h = np.diff(x)
        w = np.empty(self.N + 1)
        w[0] = h[0] / 2
        w[-1] = h[-1] / 2
        w[1:-1] = (h[:-1] + h[1:]) / 2
        w.flags.writeable = False
        object.__setattr__(self, "cell_volumes", w)

    @property
    def interior(self) -> np.ndarray:
        return self.nodes[1:-1]

    @property
    def faces(self) -> np.ndarray:
        """Midpoints x_{j+1/2}, length N."""
        return 0.5 * (self.nodes[1:] + self.nodes[:-1])

    @property
    def spacings(self) -> np.ndarray:
        """h_{j+1/2} = x_{j+1} - x_j, length N."""
        return np.diff(self.nodes)

    @property
    def interior_volumes(self) -> np.ndarray:
        return self.cell_volumes[1:-1]

    def inner(self, u: np.ndarray, v: np.ndarray):
        """Discrete L2(0,1) inner product of nodal fields (length N+1) over
        the last axis: one number per row."""
        return np.sum(self.cell_volumes * u * v, axis=-1)

    def norm(self, u: np.ndarray):
        return np.sqrt(np.maximum(self.inner(u, u), 0.0))

    def face_energy(self, a: np.ndarray, u: np.ndarray):
        """The H^1_a face energy sum_j a_{j+1/2} (u_{j+1} - u_j)^2 /
        h_{j+1/2}, the discrete |sqrt(a) u_x|^2, of nodal fields u over
        the last axis; a holds the diffusion at the N faces."""
        h = self.spacings
        return np.sum(a * (np.diff(u, axis=-1) / h) ** 2 * h, axis=-1)


@dataclass(frozen=True)
class TimeMesh:
    """Uniform time mesh on [0,T] with M steps."""

    M: int
    T: float

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("need M >= 2")
        if self.T <= 0:
            raise ValueError("T must be positive")

    @property
    def dt(self) -> float:
        return self.T / self.M

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.M + 1)


class TrajectoryField:
    """Scalar space-time field on the discrete cylinder, shape (M+1, N+1).

    Row n holds the spatial profile at time t_n.  Homogeneous Dirichlet
    data is assumed for all solver fields; `values` is owned, mutable.
    """

    def __init__(self, grid: SpatialGrid, mesh: TimeMesh, values: np.ndarray | None = None):
        self.grid = grid
        self.mesh = mesh
        shape = (mesh.M + 1, grid.N + 1)
        if values is None:
            self.values = np.zeros(shape)
        else:
            values = np.asarray(values, dtype=float)
            if values.shape != shape:
                raise ValueError(f"expected shape {shape}, got {values.shape}")
            self.values = values.copy()

    @classmethod
    def from_function(cls, grid, mesh, f) -> "TrajectoryField":
        """Sample f(x, t) on the mesh (f must broadcast over x)."""
        out = cls(grid, mesh)
        for n, t in enumerate(mesh.times):
            out.values[n] = f(grid.nodes, t)
        return out

    def copy(self) -> "TrajectoryField":
        return TrajectoryField(self.grid, self.mesh, self.values)

    def zero_boundary(self) -> "TrajectoryField":
        self.values[:, 0] = 0.0
        self.values[:, -1] = 0.0
        return self

    def l2q_norm(self) -> float:
        """Discrete L2(Q) norm."""
        return float(np.sqrt(max(self.l2q_inner(self), 0.0)))

    def l2q_inner(self, other: "TrajectoryField") -> float:
        """Discrete L2(Q) inner product, by `integral_q`."""
        return integral_q(self.grid, self.mesh, self.values * other.values)

    def __add__(self, other):
        return TrajectoryField(self.grid, self.mesh, self.values + other.values)

    def __sub__(self, other):
        return TrajectoryField(self.grid, self.mesh, self.values - other.values)

    def __mul__(self, c: float):
        return TrajectoryField(self.grid, self.mesh, self.values * c)

    __rmul__ = __mul__


def integral_q(grid: SpatialGrid, mesh: TimeMesh, values: np.ndarray,
               time_weight: np.ndarray | None = None) -> float:
    """Discrete int_Q time_weight(t) u dx dt of nodal values u (M+1, N+1),
    time_weight (M+1) 1 when None.

    The time rule is the right endpoint (weight dt on levels 1..M, none on
    level 0), the backward-Euler pairing of the duality identities, which
    makes the gradients of the functionals built on it exact; space uses
    the cell volumes.
    """
    if time_weight is None:
        time_weight = np.ones(mesh.M + 1)
    return float(mesh.dt * np.einsum("n,j,nj->", time_weight[1:],
                                     grid.cell_volumes, values[1:]))
