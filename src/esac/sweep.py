"""Stability-guarantee boundary curves over the coarse-law contraction.

For each grid value of ``rho1`` the fine-law contraction is ``rho2 = epsilon * rho1``.
One :func:`esac.stability.critical_alpha` call per curve gives the closed-form boundary
open-loop bound of every grid point inside its witnessed bracket.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelModel
from .schemes import SCHEMES, _as_real, resolve
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


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """One boundary curve: scheme, fine-law cost, contraction ratio, grid (compared by identity)."""

    scheme: str  # a key of esac.schemes.SCHEMES
    eta: int
    epsilon: float
    channel: ChannelModel
    n_max: int
    rho1_grid: tuple = DEFAULT_RHO1_GRID

    def __post_init__(self):
        if self.n_max != len(self.channel.l) - 1:
            raise ValueError(f"n_max={self.n_max} does not match the channel: "
                             f"l has {len(self.channel.l)} entries")
        resolve(self.scheme, self.eta, None, self.n_max)
        if (epsilon := _as_real(self.epsilon, "epsilon")) != 1 and not SCHEMES[self.scheme].two_law:
            raise ValueError(f"scheme {self.scheme} runs the coarse law only: "
                             f"epsilon={self.epsilon} must be 1")
        grid = tuple(float(_as_real(r, "rho1 grid")) for r in self.rho1_grid)
        if not grid:
            raise ValueError("rho1 grid must have at least one entry")
        if list(grid) != sorted(grid):
            raise ValueError("rho1 grid must be ascending")
        vars(self).update(epsilon=epsilon, rho1_grid=grid)  # stored as the rules return them


def boundary_curve(spec: SweepSpec) -> list[BoundaryPoint]:
    """Every grid point's boundary bound, from one :func:`~esac.stability.critical_alpha` call."""
    rho1 = np.array(spec.rho1_grid)
    alpha = critical_alpha(spec.scheme, spec.eta, rho1, spec.epsilon * rho1, spec.channel.l,
                           spec.n_max)
    return [BoundaryPoint(*pt) for pt in zip(spec.rho1_grid, *(a.tolist() for a in alpha[:3]))]
