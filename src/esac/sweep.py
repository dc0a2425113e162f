"""Stability-guarantee boundary curves over the coarse-law contraction.

For each grid value of ``rho1`` the fine-law contraction is
``rho2 = epsilon * rho1`` and :func:`esac.stability.critical_alpha` gives
the closed-form boundary open-loop bound inside its witnessed bracket.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelModel
from .schemes import scheme_kind
from .stability import critical_alpha

#: Default rho1 grid: 0.05, 0.10, ..., 0.95.
DEFAULT_RHO1_GRID = tuple(np.round(np.arange(0.05, 1.0, 0.05), 10))


class BoundaryPoint(NamedTuple):
    rho1: float
    alpha_star_closed: float
    alpha_star_lower: float
    alpha_star_upper: float

    @property
    def discrepancy(self) -> float:  # proven bound on |alpha_star_closed - alpha*|
        return max(self.alpha_star_closed - self.alpha_star_lower,
                   self.alpha_star_upper - self.alpha_star_closed)


@dataclass(frozen=True)
class SweepSpec:
    """One boundary curve: scheme, fine-law cost, contraction ratio, grid."""

    scheme: str  # a key of esac.schemes.SCHEMES
    eta: int
    epsilon: float
    channel: ChannelModel
    n_max: int
    rho1_grid: tuple = DEFAULT_RHO1_GRID

    def __post_init__(self):
        scheme_kind(self.scheme)
        if self.n_max != len(self.channel.l) - 1:
            raise ValueError(f"n_max={self.n_max} does not match the channel: "
                             f"l has {len(self.channel.l)} entries")
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
        points.append(BoundaryPoint(rho1, result.closed, result.lower, result.upper))
    return points
