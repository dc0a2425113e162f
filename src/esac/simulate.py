"""Closed-loop stochastic simulation and Monte Carlo averaging.

Each step: check the trigger ``|x| > d``, sample the environment outcome
``(gamma, N)``, advance the scheme (buffer and input), then advance the
plant with an additive normal disturbance.

Randomness comes from one ``numpy.random.Generator`` (PCG64) per
trajectory with a fixed draw order: the whole disturbance stream is drawn
up front, then per step one uniform for the channel outcome (triggered
steps only) and one uniform for the unit grant (successful transmissions
only).  Monte Carlo run ``r`` is seeded with ``base_seed ^ r``, so runs are
independent of execution order; the reduction accumulates in run-index
order.  Identical configuration and seed give bit-identical trajectories.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .schemes import Buffer, ControlLaw, a1_step, a2_step, b_step

#: States beyond this magnitude mark a run as divergent.
DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class PlantModel:
    """Discrete-time plant ``x' = step(x, u, w)`` with disturbance scale.

    ``lyapunov`` maps a state to its nonnegative Lyapunov value.
    """

    step: Callable
    noise_std: float
    x0: float
    lyapunov: Callable


@dataclass(frozen=True)
class SchemeConfig:
    """Which algorithm runs the loop and with what parameters."""

    scheme: str  # one of B1, B2, A1, A2
    kappa1: ControlLaw
    kappa2: ControlLaw | None
    eta: int
    buffer_size: int
    d: float
    q: float
    p: tuple

    def __post_init__(self):
        if self.scheme not in ("B1", "B2", "A1", "A2"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme in ("B2", "A2") and self.kappa2 is None:
            raise ValueError(f"scheme {self.scheme} requires a fine law")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-step record of one closed-loop realization.

    ``x`` and ``v`` have one more entry than the input arrays (they include
    the terminal state).  A divergent run is truncated at the last finite
    state and flagged.
    """

    x: np.ndarray
    u: np.ndarray
    gamma: np.ndarray
    n: np.ndarray
    fine: np.ndarray
    coarse: np.ndarray
    v: np.ndarray
    divergent: bool

    @property
    def steps(self) -> int:
        return self.u.size


@dataclass(frozen=True, eq=False)
class MonteCarloResult:
    """Mean Lyapunov path and trigger statistics over many realizations.

    ``trigger_rate[k]`` is the fraction of runs whose state exceeded the
    trigger threshold at step ``k`` (length ``horizon + 1``);
    ``overall_trigger_rate`` aggregates it into the scalar channel-use
    diagnostic.  Divergent runs carry their last finite Lyapunov value
    forward (and count as triggered) and are tallied in ``divergent_runs``.
    """

    horizon: int
    runs: int
    mean_v: np.ndarray
    trigger_rate: np.ndarray
    divergent_runs: int

    @property
    def overall_trigger_rate(self) -> float:
        return float(self.trigger_rate.mean())


def _sample_env_cum(rng, trigger: bool, q: float, cum: list) -> tuple[int, int]:
    # cum is the running sum of p; inverse-transform draw on the grant pmf.
    if not trigger:
        return 2, 0
    if rng.random() >= q:
        return 0, 0
    n = bisect.bisect_right(cum, rng.random() * cum[-1])
    return 1, min(n, len(cum) - 1)


def sample_env(rng: np.random.Generator, trigger: bool, q: float, p) -> tuple[int, int]:
    """Sample the channel and processor outcome for one step.

    Untriggered steps give ``(2, 0)``.  Triggered steps transmit
    successfully with probability ``q``; on success the unit grant is drawn
    from ``p`` by inverse transform, otherwise ``(0, 0)``.
    """
    return _sample_env_cum(rng, trigger, q, list(itertools.accumulate(p)))


def _scheme_stepper(config: SchemeConfig):
    scheme = config.scheme
    k1, k2, eta = config.kappa1, config.kappa2, config.eta
    if scheme == "A1":
        return lambda b, x, g, n, f: a1_step(b, x, g, n, k1, f)
    if scheme == "A2":
        return lambda b, x, g, n, f: a2_step(b, x, g, n, k1, k2, eta, f)

    def buffer_free(b, x, g, n, f):
        return b_step(scheme, x, g, n, k1, k2, eta), b

    return buffer_free


def simulate_trajectory(
    plant: PlantModel,
    config: SchemeConfig,
    horizon: int,
    seed: int,
    forced_env=None,
) -> Trajectory:
    """Run one closed-loop realization for ``horizon`` steps.

    ``forced_env`` replaces environment sampling with a fixed list of
    ``(gamma, n)`` outcomes (and implies a noise-free plant is usually
    wanted); it is the hook for replaying scripted scenarios.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    rng = np.random.default_rng(seed)
    stepper = _scheme_stepper(config)
    f = lambda x, u: plant.step(x, u, 0.0)  # noqa: E731  (prediction model)

    # Pre-drawing the disturbance stream keeps the step loop lean while the
    # channel draws stay event-dependent.
    noise = rng.standard_normal(horizon) * plant.noise_std

    xs = np.empty(horizon + 1)
    vs = np.empty(horizon + 1)
    us = np.empty(horizon)
    gammas = np.empty(horizon, dtype=np.int64)
    ns = np.empty(horizon, dtype=np.int64)
    fines = np.empty(horizon, dtype=np.int64)
    coarses = np.empty(horizon, dtype=np.int64)

    x = plant.x0
    buf = Buffer.empty(config.buffer_size)
    xs[0] = x
    vs[0] = plant.lyapunov(x)
    cum_p = list(itertools.accumulate(config.p))
    divergent = False
    k = 0
    for k in range(horizon):
        if forced_env is not None:
            gamma, n = forced_env[k]
        else:
            trigger = abs(x) > config.d
            gamma, n = _sample_env_cum(rng, trigger, config.q, cum_p)
        u, buf = stepper(buf, x, gamma, n, f)
        x = plant.step(x, u, noise[k])
        gammas[k] = gamma
        ns[k] = n
        us[k] = u
        fines[k] = buf.fine_count
        coarses[k] = buf.coarse_count
        if not math.isfinite(x) or abs(x) > DIVERGENCE_LIMIT:
            divergent = True
            break
        xs[k + 1] = x
        vs[k + 1] = plant.lyapunov(x)
    end = k + 1 if not divergent else k
    return Trajectory(
        x=xs[: end + 1],
        u=us[: k + 1],
        gamma=gammas[: k + 1],
        n=ns[: k + 1],
        fine=fines[: k + 1],
        coarse=coarses[: k + 1],
        v=vs[: end + 1],
        divergent=divergent,
    )


def monte_carlo(
    plant: PlantModel,
    config: SchemeConfig,
    horizon: int,
    runs: int,
    base_seed: int,
) -> MonteCarloResult:
    """Average the Lyapunov path over ``runs`` independent realizations.

    Run ``r`` uses seed ``base_seed ^ r``; the reduction happens in
    run-index order.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")

    sum_v = np.zeros(horizon + 1)
    sum_trigger = np.zeros(horizon + 1)
    divergent_runs = 0
    for r in range(runs):
        traj = simulate_trajectory(plant, config, horizon, base_seed ^ r)
        v = traj.v
        trig = np.abs(traj.x) > config.d
        if v.size < horizon + 1:  # divergent: carry last finite value forward
            v = np.concatenate([v, np.full(horizon + 1 - v.size, v[-1])])
            trig = np.concatenate([trig, np.ones(horizon + 1 - trig.size, dtype=bool)])
        sum_v += v
        sum_trigger += trig
        divergent_runs += traj.divergent
    return MonteCarloResult(
        horizon=horizon,
        runs=runs,
        mean_v=sum_v / runs,
        trigger_rate=sum_trigger / runs,
        divergent_runs=divergent_runs,
    )


def example_system(rho1: float = 0.9):
    """The benchmark scalar plant and its two control laws.

    ``x' = -1.34 x + 0.01 sin(x) + u + w`` with ``x0 = 20`` and unit-variance
    disturbance; both laws cancel the plant dynamics and leave a contraction
    on ``|x|``: the coarse law leaves ``rho1 |x|``, the fine-law factory
    takes the contraction ``c2`` it should achieve.  ``V(x) = |x|``.
    """
    plant = PlantModel(
        step=lambda x, u, w: -1.34 * x + 0.01 * math.sin(x) + u + w,
        noise_std=1.0,
        x0=20.0,
        lyapunov=abs,
    )

    def law(c):
        return lambda x: 1.34 * x - 0.01 * math.sin(x) + c * abs(x)

    kappa1 = ControlLaw(evaluate=law(rho1), cost_units=1, contraction=rho1)

    def kappa2_factory(c2: float, cost_units: int = 1) -> ControlLaw:
        return ControlLaw(evaluate=law(c2), cost_units=cost_units, contraction=c2)

    return plant, kappa1, kappa2_factory
