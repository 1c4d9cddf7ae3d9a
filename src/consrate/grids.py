"""Scalar functions sampled on uniform grids, with linear interpolation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class GridFunction:
    """A function of the short rate sampled on a uniform grid over [r_min, r_max].

    Evaluation between nodes is linear. Outside the grid the nearest edge
    value is returned; callers that need a growth envelope beyond the window
    (the quadrature and Monte Carlo resolvents) apply their own extension.
    """

    r_min: float
    r_max: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 3:
            raise ValueError("a grid function needs at least 3 nodes")
        if not self.r_min < self.r_max:
            raise ValueError("r_min must be strictly below r_max")
        if not np.isfinite(self.values).all():
            raise ValueError("grid values must be finite")

    @property
    def n_nodes(self) -> int:
        return self.values.size

    @property
    def step(self) -> float:
        return (self.r_max - self.r_min) / (self.n_nodes - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.n_nodes)

    @classmethod
    def zeros(cls, r_min: float, r_max: float, n_nodes: int) -> "GridFunction":
        return cls(r_min, r_max, np.zeros(n_nodes))

    def __call__(self, x):
        return np.interp(x, self.nodes, self.values)

    def with_values(self, values) -> "GridFunction":
        """Same grid, new values."""
        return GridFunction(self.r_min, self.r_max, np.asarray(values, dtype=float))
