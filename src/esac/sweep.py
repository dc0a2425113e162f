"""Stability-guarantee boundary curves over the coarse-law contraction.

For each grid value of ``rho1`` the fine-law contraction is
``rho2 = epsilon * rho1`` and the boundary open-loop bound is computed by
both methods of :func:`esac.stability.critical_alpha`, so closed-form and
spectral-radius values (and their discrepancy) travel together.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelModel
from .schemes import require_buffered
from .stability import critical_alpha

#: Default rho1 grid: 0.05, 0.10, ..., 0.95.
DEFAULT_RHO1_GRID = tuple(np.round(np.arange(0.05, 1.0, 0.05), 10))


class BoundaryPoint(NamedTuple):
    rho1: float
    alpha_star_closed: float
    alpha_star_spectral: float

    @property
    def discrepancy(self) -> float:
        return abs(self.alpha_star_closed - self.alpha_star_spectral)


@dataclass(frozen=True)
class SweepSpec:
    """One boundary curve: scheme, fine-law cost, contraction ratio, grid."""

    scheme: str  # A1 or A2
    eta: int
    epsilon: float
    channel: ChannelModel
    n_max: int
    rho1_grid: tuple = DEFAULT_RHO1_GRID

    def __post_init__(self):
        require_buffered(self.scheme)
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        grid = tuple(float(r) for r in self.rho1_grid)
        if not grid or any(not (0.0 < r < 1.0) for r in grid):
            raise ValueError("rho1 grid must lie strictly inside (0, 1)")
        if list(grid) != sorted(grid):
            raise ValueError("rho1 grid must be ascending")
        object.__setattr__(self, "rho1_grid", grid)


def boundary_curve(spec: SweepSpec) -> list[BoundaryPoint]:
    """Evaluate the boundary open-loop bound at every grid point."""
    points = []
    for rho1 in spec.rho1_grid:
        rho2 = spec.epsilon * rho1
        result = critical_alpha(
            spec.scheme, spec.eta, rho1, rho2, spec.channel.l, spec.n_max
        )
        points.append(BoundaryPoint(rho1, result.closed, result.bisection))
    return points
