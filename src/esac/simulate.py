"""Closed-loop stochastic simulation and Monte Carlo averaging.

Each step: check the trigger ``|x| > d``, sample the environment outcome
``(gamma, N)``, advance the scheme (buffer and input), then advance the
plant with an additive normal disturbance.  Both engines below run every
scheme through the parameters of :meth:`SchemeConfig.stepper_args`, read
from the scheme table :data:`esac.schemes.SCHEMES`.

Randomness comes from one ``numpy.random.Generator`` (PCG64) per
trajectory, and one function, :func:`_decode_streams`, lays the stream out
for both engines: the whole disturbance stream ``standard_normal(horizon)``
up front, then ``2 * horizon`` uniforms, each decoded into a transmit flag
(``u < q``) and a unit grant (inverse transform on ``p``).  The engines
read the decoded uniforms in order through a cursor: per step one for the
channel outcome (triggered steps only) and one for the unit grant
(successful transmissions only).  Monte Carlo run ``r`` is seeded with
``base_seed ^ r``, so runs are independent of execution order; the
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

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .schemes import Buffer, ControlLaw, scheme_kind

#: States beyond this magnitude mark a run as divergent.
DIVERGENCE_LIMIT = 1e12

#: Narrowest ``monte_carlo`` call that takes the batched engine: the measured
#: crossover, where both engines run the benchmark loops equally fast.
_BATCH_MIN_RUNS = 26

#: Pre-drawn numbers (one disturbance and two uniforms per run and step)
#: that size a batch: it is as wide as this allows but never narrower than
#: ``_BATCH_MIN_RUNS``.  Stored at 4 bytes per draw on average (8 per
#: disturbance, 2 per uniform while ``p`` has at most 256 entries), a batch
#: holds at most 8 MiB up to a horizon of 26,886 steps and ``312 * horizon``
#: bytes beyond, where the width floor takes over.
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

    scheme: str  # a key of esac.schemes.SCHEMES
    kappa1: ControlLaw
    kappa2: ControlLaw | None
    eta: int
    buffer_size: int
    d: float
    q: float
    p: tuple

    def __post_init__(self):
        if scheme_kind(self.scheme).two_law and self.kappa2 is None:
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

        A one-law scheme runs the coarse law as the fine law with ``eta = 1``,
        and an unbuffered scheme has one slot (see :meth:`Buffer.step`).
        """
        buffered, two_law = scheme_kind(self.scheme)
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


def _decode_streams(plant: PlantModel, config: SchemeConfig, horizon: int, seeds):
    """The random streams of the runs seeded ``seeds``, decoded.

    Run ``i``'s ``default_rng(seeds[i])`` gives ``horizon`` normals, scaled
    into the disturbances ``noise[:, i]``, then ``2 * horizon`` uniforms.
    Each uniform ``u`` is stored as the two outcomes it can decide: the
    transmit flag ``u < q`` in ``transmits[i]`` when read as a channel draw,
    and a grant (inverse transform on ``p``) in ``grants[i]`` when read as a
    grant draw.  That takes 2 bytes per uniform, not 8.
    """
    cum = list(itertools.accumulate(config.p))
    inner, total = np.array(cum[:-1]), cum[-1]
    noise = np.empty((horizon, len(seeds)))
    transmits = np.empty((len(seeds), 2 * horizon), dtype=bool)
    grants = np.empty((len(seeds), 2 * horizon), dtype=np.min_scalar_type(len(cum) - 1))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        noise[:, i] = rng.standard_normal(horizon)
        uniforms = rng.random(2 * horizon)
        transmits[i] = uniforms < config.q
        grants[i] = np.searchsorted(inner, uniforms * total, side="right")
    noise *= plant.noise_std
    return noise, transmits, grants


def simulate_trajectory(
    plant: PlantModel,
    config: SchemeConfig,
    horizon: int,
    seed: int,
) -> Trajectory:
    """Run one closed-loop realization for ``horizon`` steps from ``seed``.

    The environment outcomes are drawn from the seeded stream (see the
    module docstring); :func:`esac.acceptance.run_example1` replays a
    scripted scenario through :meth:`Buffer.step` directly.  Unbuffered
    schemes record ``fine = coarse = 0``.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    size, kappa1, kappa2, eta = config.stepper_args()
    f = lambda x, u: plant.step(x, u, 0.0)  # noqa: E731  (prediction model)
    # The memoryviews hand out Python floats, ints and bools, which are
    # cheaper than numpy scalars in the scalar step loop below.
    streams = _decode_streams(plant, config, horizon, [seed])
    noise, transmits, grants = (memoryview(a.ravel()) for a in streams)

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
    step, lyapunov, d = plant.step, plant.lyapunov, config.d
    xs[0] = x
    vs[0] = lyapunov(x)
    cursor = 0  # index of the next unread uniform
    divergent = False
    k = 0
    for k in range(horizon):
        if not abs(x) > d:
            gamma, n = 2, 0
        elif transmits[cursor]:
            gamma, n = 1, grants[cursor + 1]
            cursor += 2
        else:
            gamma, n = 0, 0
            cursor += 1
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
    if not scheme_kind(config.scheme).buffered:  # its one slot holds no prediction
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

    Reads each run's decoded stream as :func:`simulate_trajectory` does and
    returns the number of runs that diverged.  A diverged run keeps its last
    finite Lyapunov value and counts as triggered; its state is parked at
    zero so that it stays finite.
    """
    width = len(seeds)
    noise, transmits, grants = _decode_streams(plant, config, horizon, seeds)
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

    kappa1 = ControlLaw(evaluate=law(rho1), contraction=rho1)

    def kappa2_factory(c2: float) -> ControlLaw:
        return ControlLaw(evaluate=law(c2), contraction=c2)

    return plant, kappa1, kappa2_factory
