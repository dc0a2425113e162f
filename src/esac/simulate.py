"""Closed-loop stochastic simulation and Monte Carlo averaging.

Each step: check the trigger ``|x| > d``, sample the environment outcome
``(gamma, N)``, advance the scheme (buffer and input), then advance the
plant with an additive normal disturbance.  Both engines below run every
scheme through the parameters of :meth:`SchemeConfig.stepper_args`: A1 is
A2 with ``eta = 1`` and the coarse law in place of the fine law, B2 is A2
with one slot, and B1 is both.

Randomness comes from one ``numpy.random.Generator`` (PCG64) per
trajectory with a fixed draw order: the whole disturbance stream
``standard_normal(horizon)`` is drawn up front, then ``2 * horizon``
uniforms, consumed in order: per step one for the channel outcome
(triggered steps only) and one for the unit grant (successful
transmissions only).  Drawing the uniforms as one array gives the same
numbers as drawing them one at a time.  Monte Carlo run ``r`` is seeded
with ``base_seed ^ r``, so runs are independent of execution order; the
reduction accumulates in run-index order.  Identical configuration and seed
give bit-identical trajectories.

:func:`monte_carlo` has two engines with bit-identical results.  A call of
at least ``_BATCH_MIN_RUNS`` (26) runs advances its runs together: the state
is an array with one entry per run, the buffers an array with one row per
slot, and each step does the trigger test, the draws, the shift, the clear,
a refill loop over the slots and the plant step on whole arrays.  Each step
adds the runs' Lyapunov values one run at a time in run order, as the
per-run loop does.  Narrower calls run :func:`simulate_trajectory` once per
run, which steps one scalar :class:`~esac.schemes.Buffer` in place and is
faster there because numpy's cost per call outweighs a width of a couple of
dozen runs.

Plant and law callables must therefore work elementwise on float arrays as
well as on scalars (``np.sin``, not ``math.sin``), giving each element the
value the scalar call gives.
"""
from __future__ import annotations

import bisect
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .schemes import Buffer, ControlLaw

#: States beyond this magnitude mark a run as divergent.
DIVERGENCE_LIMIT = 1e12

#: Narrowest ``monte_carlo`` call that takes the batched engine: the measured
#: crossover, where both engines run the benchmark loops equally fast.
_BATCH_MIN_RUNS = 26

#: Pre-drawn numbers (one disturbance and two uniforms per run and step)
#: held by one batch at most, which bounds a batch's memory to 8 MiB.
_BATCH_MAX_DRAWS = 1 << 21


@dataclass(frozen=True)
class PlantModel:
    """Discrete-time plant ``x' = step(x, u, w)`` with disturbance scale.

    ``lyapunov`` maps a state to its nonnegative Lyapunov value.  Both
    callables must also work elementwise on float arrays (see the module
    docstring).
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
        if self.eta < 1:
            raise ValueError(f"eta must be >= 1, got {self.eta}")
        if self.buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {self.buffer_size}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")
        if not all(v >= 0.0 for v in self.p) or not 0.0 < sum(self.p) < math.inf:
            raise ValueError(f"p must be nonnegative with a positive finite sum, got {self.p}")

    def stepper_args(self) -> tuple:
        """``(buffer size, coarse law, fine law, eta)`` that run this scheme.

        A1 is A2 with ``eta = 1`` and the coarse law as the fine law, B2 is
        A2 with one slot, and B1 is both (see :meth:`Buffer.step`).
        """
        buffered = self.scheme in ("A1", "A2")
        two_law = self.scheme in ("A2", "B2")
        return (self.buffer_size if buffered else 1, self.kappa1,
                self.kappa2 if two_law else self.kappa1, self.eta if two_law else 1)


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


def _sample_env_cum(draw, trigger: bool, q: float, cum: list) -> tuple[int, int]:
    # draw() returns the next uniform; cum is the running sum of p;
    # inverse-transform draw on the grant pmf.
    if not trigger:
        return 2, 0
    if draw() >= q:
        return 0, 0
    n = bisect.bisect_right(cum, draw() * cum[-1])
    return 1, min(n, len(cum) - 1)


def sample_env(rng: np.random.Generator, trigger: bool, q: float, p) -> tuple[int, int]:
    """Sample the channel and processor outcome for one step.

    Untriggered steps give ``(2, 0)``.  Triggered steps transmit
    successfully with probability ``q``; on success the unit grant is drawn
    from ``p`` by inverse transform, otherwise ``(0, 0)``.
    """
    return _sample_env_cum(rng.random, trigger, q, list(itertools.accumulate(p)))


def _check_script(forced_env, horizon: int):
    # A scripted environment comes from outside the loop, so it is checked
    # once here; the stepper itself validates nothing.
    script = forced_env[:horizon]
    if len(script) < horizon:
        raise ValueError(f"forced_env has {len(script)} outcomes, fewer than horizon={horizon}")
    for k, (gamma, n) in enumerate(script):
        if gamma not in (0, 1, 2):
            raise ValueError(f"forced_env[{k}]: gamma must be 0, 1 or 2, got {gamma}")
        if not isinstance(n, numbers.Integral) or n < 0:
            raise ValueError(f"forced_env[{k}]: N must be a nonnegative integer, got {n!r}")
        if gamma != 1 and n != 0:
            raise ValueError(
                f"forced_env[{k}]: no processing units can be granted when gamma={gamma}, got N={n}")
    return script


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
    wanted); it is the hook for replaying scripted scenarios.  It must
    hold at least ``horizon`` outcomes with ``gamma`` in {0, 1, 2} and ``n``
    a nonnegative integer that is 0 unless ``gamma == 1``; otherwise
    ``ValueError`` is raised before the first step.  Buffer-free schemes
    record ``fine = coarse = 0``.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    script = None if forced_env is None else _check_script(forced_env, horizon)
    rng = np.random.default_rng(seed)
    size, kappa1, kappa2, eta = config.stepper_args()
    f = lambda x, u: plant.step(x, u, 0.0)  # noqa: E731  (prediction model)

    # Pre-drawing both streams keeps the step loop lean; the channel draws
    # stay event-dependent by consuming the uniforms only as needed.  The
    # memoryviews hand out Python floats, which are cheaper than numpy
    # scalars in the scalar arithmetic below.
    noise = memoryview(rng.standard_normal(horizon) * plant.noise_std)
    draw = iter(memoryview(rng.random(2 * horizon))).__next__

    xs = np.empty(horizon + 1)
    vs = np.empty(horizon + 1)
    us = np.empty(horizon)
    gammas = np.empty(horizon, dtype=np.int64)
    ns = np.empty(horizon, dtype=np.int64)
    fines = np.empty(horizon, dtype=np.int64)
    coarses = np.empty(horizon, dtype=np.int64)

    x = plant.x0
    buf = Buffer(size)
    buf_step = buf.step
    step, lyapunov, d, q = plant.step, plant.lyapunov, config.d, config.q
    xs[0] = x
    vs[0] = lyapunov(x)
    cum_p = list(itertools.accumulate(config.p))
    divergent = False
    k = 0
    for k in range(horizon):
        if script is not None:
            gamma, n = script[k]
        else:
            gamma, n = _sample_env_cum(draw, abs(x) > d, q, cum_p)
        u = buf_step(x, gamma, n, kappa1, kappa2, eta, f)
        x = step(x, u, noise[k])
        gammas[k] = gamma
        ns[k] = n
        us[k] = u
        fines[k] = buf.fine_count
        coarses[k] = buf.coarse_count
        if not abs(x) <= DIVERGENCE_LIMIT:  # also catches inf and nan
            divergent = True
            break
        xs[k + 1] = x
        vs[k + 1] = lyapunov(x)
    end = k + 1 if not divergent else k
    if config.scheme in ("B1", "B2"):  # buffer-free: its one slot holds no prediction
        fines.fill(0)
        coarses.fill(0)
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
    run-index order.  Wide calls take the batched engine, narrow ones the
    per-run loop (see the module docstring); both give the same bits.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")

    sum_v = np.zeros(horizon + 1)
    sum_trigger = np.zeros(horizon + 1)
    divergent_runs = 0
    if runs >= _BATCH_MIN_RUNS:
        width = max(_BATCH_MIN_RUNS, _BATCH_MAX_DRAWS // (3 * horizon))
        for first in range(0, runs, width):
            seeds = [base_seed ^ r for r in range(first, min(runs, first + width))]
            divergent_runs += _run_batch(plant, config, horizon, seeds, sum_v, sum_trigger)
    else:
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


def _run_batch(plant: PlantModel, config: SchemeConfig, horizon: int, seeds: list,
               sum_v: np.ndarray, sum_trigger: np.ndarray) -> int:
    """Advance the runs seeded ``seeds`` together and add them into the sums.

    Consumes each run's streams exactly as :func:`simulate_trajectory` does
    and returns the number of runs that diverged.  A diverged run keeps its
    last finite Lyapunov value and counts as triggered; its state is parked
    at zero so that it stays finite.
    """
    width = len(seeds)
    # Each uniform is stored as the two outcomes it can decide: a transmit
    # flag (``u < q``) when read as the channel draw, and a grant when read
    # as the grant draw; min(bisect_right(cum, v), len(cum) - 1) equals
    # bisect_right(cum[:-1], v).  That takes 2 bytes per draw, not 8.
    cum = list(itertools.accumulate(config.p))
    inner, total = np.array(cum[:-1]), cum[-1]
    noise = np.empty((horizon, width))
    transmits = np.empty((width, 2 * horizon), dtype=bool)
    grants = np.empty((width, 2 * horizon), dtype=np.min_scalar_type(len(cum) - 1))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        noise[:, i] = rng.standard_normal(horizon)
        uniforms = rng.random(2 * horizon)
        transmits[i] = uniforms < config.q
        grants[i] = np.searchsorted(inner, uniforms * total, side="right")
    noise *= plant.noise_std
    transmits, grants = transmits.ravel(), grants.ravel()
    cursor = np.arange(width) * (2 * horizon)  # flat index of each run's next draw

    slots, kappa1, kappa2, eta = config.stepper_args()
    buf = np.zeros((slots, width))  # slot-major

    x = np.full(width, plant.x0, dtype=float)
    v = plant.lyapunov(x)
    dead = np.zeros(width, dtype=bool)
    trig = np.abs(x) > config.d
    ordered = np.empty(width + 1)

    def add(k):
        # Sequential sum in run order (cumsum, not a pairwise sum), continuing
        # the running total, as the per-run loop adds its runs.
        ordered[0] = sum_v[k]
        ordered[1:] = v
        sum_v[k] = np.cumsum(ordered, out=ordered)[-1]
        sum_trigger[k] += np.count_nonzero(trig)

    add(0)
    for k in range(horizon):
        sent = trig & transmits[cursor]
        cursor += trig
        n = grants[cursor]
        cursor += sent
        buf[:-1] = buf[1:]
        buf[-1] = 0.0
        buf[:, ~trig] = 0.0
        grant = np.flatnonzero(sent & (n > 0))
        if grant.size:
            _refill_rows(buf, x[grant], grant, n[grant].astype(np.intp), eta, kappa1, kappa2,
                         plant.step)
        x = plant.step(x, buf[0], noise[k])
        size = np.abs(x)
        finite = size <= DIVERGENCE_LIMIT  # false for inf and nan too
        if np.count_nonzero(finite) < width:
            dead |= ~finite
            x[dead] = 0.0
            buf[:, dead] = 0.0
        v = np.where(dead, v, plant.lyapunov(x))
        trig = (size > config.d) | dead
        add(k + 1)
    return int(np.count_nonzero(dead))


def _refill_rows(buf, chi, rows, n, eta, kappa1, kappa2, step):
    """Overwrite the buffers ``rows`` with predictions from the states ``chi``.

    A grant of ``n`` units gives ``n // eta`` fine-law entries, then
    ``n % eta`` coarse-law ones, truncated at the buffer size; each entry
    is the law applied to the state predicted by the noise-free plant.
    """
    fine = n // eta
    count = np.minimum(fine + n % eta, buf.shape[0])
    buf[:, rows] = 0.0
    for j in range(buf.shape[0]):
        use_fine = fine > j
        fine_rows = np.count_nonzero(use_fine)
        if fine_rows == rows.size:
            u = kappa2(chi)
        elif fine_rows == 0:
            u = kappa1(chi)
        else:
            u = np.where(use_fine, kappa2(chi), kappa1(chi))
        buf[j, rows] = u
        # Predict the next state only for the rows that have another entry.
        live = count > j + 1
        more = np.count_nonzero(live)
        if more == 0:
            break
        if more < rows.size:
            rows, chi, u, fine, count = rows[live], chi[live], u[live], fine[live], count[live]
        chi = step(chi, u, 0.0)


def example_system(rho1: float = 0.9):
    """The benchmark scalar plant and its two control laws.

    ``x' = -1.34 x + 0.01 sin(x) + u + w`` with ``x0 = 20`` and unit-variance
    disturbance; both laws cancel the plant dynamics and leave a contraction
    on ``|x|``: the coarse law leaves ``rho1 |x|``, the fine-law factory
    takes the contraction ``c2`` it should achieve.  ``V(x) = |x|``.
    """
    plant = PlantModel(
        step=lambda x, u, w: -1.34 * x + 0.01 * np.sin(x) + u + w,
        noise_std=1.0,
        x0=20.0,
        lyapunov=abs,
    )

    def law(c):
        return lambda x: 1.34 * x - 0.01 * np.sin(x) + c * abs(x)

    kappa1 = ControlLaw(evaluate=law(rho1), cost_units=1, contraction=rho1)

    def kappa2_factory(c2: float, cost_units: int = 1) -> ControlLaw:
        return ControlLaw(evaluate=law(c2), cost_units=cost_units, contraction=c2)

    return plant, kappa1, kappa2_factory
