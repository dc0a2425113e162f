"""Closed-loop stochastic simulation and Monte Carlo averaging.

Each step: check the trigger ``|x| > d``, sample the environment outcome
``(gamma, N)``, advance the scheme (buffer and input), then advance the
plant with an additive normal disturbance.  Both engines below run every
scheme as one buffer, through the chain that :class:`SchemeConfig` builds once
from what :func:`esac.schemes.resolve` derives.

Randomness comes from one ``numpy.random.Generator`` (PCG64), and one
function, :func:`_decode_streams`, lays it out for both engines.  Each run
draws its whole disturbance stream ``standard_normal(horizon)`` up front,
then ``2 * horizon`` uniforms, each decoded into a transmit flag
(``u < q``) and a unit grant (inverse transform on ``p``).  The engines
read the decoded uniforms in order through a cursor: per step one for the
channel outcome (triggered steps only) and one for the unit grant
(successful transmissions only).  A run consumes all of its draws, even if
it diverges.  A Monte Carlo call makes one ``default_rng(base_seed)`` and
its runs draw from it one after another in run order, so run 0 is the
trajectory of ``simulate_trajectory(..., seed=base_seed)``, and different
base seeds give independent runs
(https://numpy.org/doc/stable/reference/random/parallel.html).  Identical
configuration and seed give bit-identical trajectories.

:func:`monte_carlo` has two engines with bit-identical results, and both
step a run's buffer as its chain state with its head entry: each triggered
step moves the state by one lookup in the config's :func:`~esac.chain.jump_table`, and
an entry is computed by its state's :func:`~esac.chain.law_of` law only when it
becomes the head.  A call of at least ``_BATCH_MIN_RUNS`` (24) runs
advances its runs together on arrays with one entry per run (see
:func:`_run_batch`), each step doing its lookups at one flat index per run;
it keeps the runs' Lyapunov values, and after the last step adds them and
their squares one run at a time, in run order, as the per-run loop does.
Narrower calls run :func:`simulate_trajectory`, its scalar twin, once per
run without its per-step records, which is faster there because numpy's
cost per call outweighs a width of about two dozen runs.
:meth:`esac.schemes.Buffer.step`, which stores every entry of a grant, is
the scripted and reference stepper.

Plant and law callables must therefore work elementwise on float arrays as
well as on scalars (``np.sin``, not ``math.sin``), giving each element the
value the scalar call gives.  Both engines hold the state, the prediction
and the input as float64, whatever dtype a callable returns: the per-run
loop applies ``float`` to ``x0`` and to every plant-step and law result, so
it computes in Python floats rather than numpy scalars, and the batched
engine casts each plant step to a float64 array and stores each law's values
and each prediction into float64 arrays.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chain import jump_table, law_of
from .channel import effective_availability
from .schemes import SCHEMES, ControlLaw, _as_count, _as_real, resolve

#: States beyond this magnitude mark a run as divergent.
DIVERGENCE_LIMIT = 1e12

#: Narrowest ``monte_carlo`` call that takes the batched engine.  At 24 runs the per-run
#: loop takes 0.86-1.05 of the batched time on Q1 and Q2 at horizon 200 (1.10-1.22 on Q3;
#: 1.04-1.18 at 32 runs) and 0.70-0.82 at horizon 2,000, where the engines run equally fast
#: at about 32 runs (0.96-1.10).  Every Q3 run diverges within 2,000 steps, where the per-run
#: loop stops and the batched engine steps on, so the loop stays faster there up to 48 runs
#: (0.50-0.64 at 24, 0.99-1.01 at 48).  Best of 5 calls per engine and width, two passes,
#: 2 vCPUs.  No benchmark workload runs at these widths.
_BATCH_MIN_RUNS = 24

#: Pre-drawn numbers (one disturbance and two uniforms per run and step)
#: that size a batch: it is as wide as this allows but never narrower than
#: ``_BATCH_MIN_RUNS``.  Stored at 4 bytes per draw on average (8 per
#: disturbance, 2 per uniform while ``p`` has at most 256 entries), a batch
#: holds at most 8 MiB up to a horizon of 29,127 steps and ``288 * horizon``
#: bytes beyond, where the width floor takes over.  Decoding adds a float64
#: slab of at most ``_DECODE_SLAB_DRAWS`` uniforms, or of one run's
#: ``2 * horizon`` if that is more.  Each step writes the runs' Lyapunov
#: values over the disturbances it has used, and the run-order sums read them
#: one run at a time, adding only one run's squares.
_BATCH_MAX_DRAWS = 1 << 21

#: Uniforms that :func:`_decode_streams` holds as float64 before it decodes
#: them (32 KiB): it sizes the decode slab only.  A larger slab decodes a
#: little faster but adds its size to a batch's peak memory: on 2 vCPUs, the
#: streams of a Q1 call of 512 runs x 200 steps took 5.2 ms to decode at
#: 32 KiB and 4.3 ms at 128 KiB.
_DECODE_SLAB_DRAWS = 1 << 12


@dataclass(frozen=True)
class PlantModel:
    """Discrete-time plant ``x' = step(x, u, w)`` with disturbance scale.

    ``lyapunov`` maps a state to its nonnegative Lyapunov value.  Both
    callables must also work elementwise on float arrays (see the module
    docstring).  ``noise_std`` must be finite and nonnegative, ``x0`` finite.
    """

    step: Callable
    noise_std: float
    x0: float
    lyapunov: Callable

    def __post_init__(self):
        for name in ("noise_std", "x0"):  # stored as the rule returns them
            object.__setattr__(self, name, _as_real(getattr(self, name), name))


@dataclass(frozen=True)
class SchemeConfig:
    """Which algorithm runs the loop and with what parameters.

    A step triggers when ``|x| > d``, so ``d`` must be nonnegative (an infinite ``d`` never
    triggers).  ``q`` and ``p`` must pass the one channel rule of :mod:`esac.channel` that the
    certificate checks: ``q`` in [0, 1] and ``p`` a pmf of at least two entries in [0, 1] summing to
    one, never renormalised, and ``p`` is kept as the tuple of floats it checked.  ``scheme``,
    ``eta`` and ``buffer_size`` must pass the one scheme rule, :func:`esac.schemes.resolve`, whose
    result (``n_max = len(p) - 1``) builds the chain both engines step: ``_chain = (jump table, each
    state's law index, (None, coarse law, fine law), eta, buffered)``.  Each law the scheme runs
    must be a :class:`~esac.schemes.ControlLaw`, whose ``evaluate`` both engines call.
    """

    scheme: str  # a key of esac.schemes.SCHEMES
    kappa1: ControlLaw
    kappa2: ControlLaw | None
    eta: int
    buffer_size: int
    d: float
    q: float
    p: tuple

    def __post_init__(self):
        object.__setattr__(self, "q", _as_real(self.q, "q"))
        effective_availability(self.q, self.p)  # the channel rule, before resolve reads p
        object.__setattr__(self, "p", tuple(np.asarray(self.p, dtype=float).tolist()))
        states = len(self.p)  # resolve checks scheme, eta and buffer_size
        eta, slots, fine = resolve(self.scheme, self.eta, self.buffer_size, states - 1,
                                   self.kappa1, self.kappa2)
        for law, name in ((self.kappa1, "coarse"), (fine, "fine")):  # A1 and B1 run kappa1 as both
            if not isinstance(law, ControlLaw):
                got = "" if law is None else f" (a ControlLaw), got {law!r}"
                raise ValueError(f"scheme {self.scheme} requires a {name} law{got}")
        object.__setattr__(self, "d", _as_real(self.d, "d"))
        object.__setattr__(self, "_chain", (jump_table(states, eta, slots), law_of(states, eta),
                           (None, self.kappa1, fine), eta, SCHEMES[self.scheme].buffered))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-step record of one closed-loop realization.

    ``x`` and ``v`` have one more entry than the input arrays (they include
    the terminal state).  A divergent run is truncated at the last finite
    state and flagged.  Without records the input arrays are ``None``.
    """

    x: np.ndarray
    u: np.ndarray | None
    gamma: np.ndarray | None
    n: np.ndarray | None
    fine: np.ndarray | None
    coarse: np.ndarray | None
    v: np.ndarray
    divergent: bool

    @property
    def steps(self) -> int:
        return self.x.size - 1 + self.divergent


@dataclass(frozen=True, eq=False)
class MonteCarloResult:
    """Mean Lyapunov path and trigger statistics over many realizations.

    ``se_v[k]`` is the standard error of ``mean_v[k]``: the sample standard
    deviation (``ddof=1``) of the runs' Lyapunov values at step ``k``
    divided by ``sqrt(runs)``, from run-order sums of the values and their
    squares; it is NaN when ``runs == 1``.  ``trigger_rate[k]`` is the
    fraction of runs whose state exceeded the trigger threshold at step
    ``k`` (length ``horizon + 1``);
    ``overall_trigger_rate`` aggregates it into the scalar channel-use
    diagnostic.  Divergent runs carry their last finite Lyapunov value
    forward (and count as triggered) and are tallied in ``divergent_runs``.
    """

    horizon: int
    runs: int
    mean_v: np.ndarray
    se_v: np.ndarray
    trigger_rate: np.ndarray
    divergent_runs: int

    @property
    def overall_trigger_rate(self) -> float:
        return float(self.trigger_rate.mean())


def _decode_streams(plant: PlantModel, config: SchemeConfig, horizon: int,
                    rng: np.random.Generator, count: int):
    """The next ``count`` runs of the stream ``rng``, decoded.

    Run ``i`` draws ``horizon`` normals straight into ``noise[i]``, later
    scaled into the disturbances, then ``2 * horizon`` uniforms.  Each
    uniform ``u`` is stored as the two outcomes it can decide: the transmit
    flag ``u < q`` in ``transmits[i]`` when read as a channel draw, and a
    grant (inverse transform on ``p``) in ``grants[i]`` when read as a grant
    draw.  That takes 2 bytes per uniform, not 8.  The uniforms are drawn
    one run per row into a float64 slab of at most ``_DECODE_SLAB_DRAWS``
    numbers (or one run's), and each filled slab is decoded at once.
    """
    cum = list(itertools.accumulate(config.p))
    inner, total = np.array(cum[:-1]), cum[-1]
    noise = np.empty((count, horizon))
    transmits = np.empty((count, 2 * horizon), dtype=bool)
    grants = np.empty((count, 2 * horizon), dtype=np.min_scalar_type(len(cum) - 1))
    slab = np.empty((min(count, max(1, _DECODE_SLAB_DRAWS // (2 * horizon))), 2 * horizon))
    for first in range(0, count, len(slab)):
        uniforms = slab[: count - first]
        last = first + len(uniforms)
        for normals, row in zip(noise[first:last], uniforms):
            rng.standard_normal(out=normals)
            rng.random(out=row)
        np.less(uniforms, config.q, out=transmits[first:last])
        uniforms *= total
        block = grants[first:last]
        block.fill(0)
        for edge in inner:  # the count of inner edges <= u, as searchsorted(side="right")
            block += uniforms >= edge
    noise *= plant.noise_std
    return noise, transmits, grants


def simulate_trajectory(
    plant: PlantModel,
    config: SchemeConfig,
    horizon: int,
    seed: int | np.random.Generator,
    *, records: bool = True,
) -> Trajectory:
    """Run one closed-loop realization for ``horizon`` steps from ``seed``.

    ``horizon`` is a count and ``seed`` an integer >= 0 (:func:`esac.schemes._as_count`),
    which seeds a new ``default_rng``, or a ``Generator``, which this run advances by its draws
    (see the module docstring); :func:`monte_carlo` passes one ``Generator`` to its runs
    in turn.  It steps the chain state as :func:`_run_batch` does and records
    ``(fine, coarse) = divmod(state, eta)``, or ``(0, 0)`` for an unbuffered scheme;
    ``records=False`` (for :func:`monte_carlo`) stores only ``x``.  The Lyapunov values
    come from one call on the recorded states.  The state, the prediction and the input
    are Python floats (float64), whatever dtype ``plant.step`` or a law returns, as in
    :func:`_run_batch`.  The decoded streams are read, and the states stored, through
    memoryviews, which hand out and take Python floats, ints and bools.
    """
    horizon = _as_count(horizon, "horizon")
    table, heads, laws, eta, buffered = config._chain
    law = [laws[j] and laws[j].evaluate for j in heads]
    rng = seed if isinstance(seed, np.random.Generator) else _as_count(seed, "seed", least=0)
    streams = _decode_streams(plant, config, horizon, np.random.default_rng(rng), 1)
    noise, transmits, grants = (memoryview(a.ravel()) for a in streams)

    xs = np.empty(horizon + 1)
    store_x = memoryview(xs)  # takes a Python float without numpy's scalar dispatch
    us = gammas = ns = fines = coarses = None
    if records:
        us, (gammas, ns, states) = np.empty(horizon), np.empty((3, horizon), dtype=np.int64)

    x = float(plant.x0)
    state, u, chi = 0, 0.0, 0.0  # chain state, head input, state u was computed at
    step, d = plant.step, config.d
    xs[0] = x
    cursor = 0  # index of the next unread uniform
    divergent = False
    k = 0
    for k in range(horizon):
        if not abs(x) > d:  # a silent step clears
            gamma, n, state, u = 2, 0, 0, 0.0
        else:
            gamma = 1 if transmits[cursor] else 0
            n = grants[cursor + 1] if gamma else 0
            cursor += 1 + gamma
            state = table[state][n]
            if n:  # a grant computes its head at the current state
                chi = x
                u = float(law[state](chi))
            elif state:  # shifted onto a stored entry
                chi = float(step(chi, u, 0.0))
                u = float(law[state](chi))
            else:  # an empty buffer applies zero
                u = 0.0
        x = float(step(x, u, noise[k]))
        if records:
            gammas[k] = gamma
            ns[k] = n
            us[k] = u
            states[k] = state
        if not abs(x) <= DIVERGENCE_LIMIT:  # also catches inf and nan
            divergent = True
            break
        store_x[k + 1] = x
    end = k + 1 if not divergent else k
    if records:
        us, gammas, ns = us[: k + 1], gammas[: k + 1], ns[: k + 1]
        # An unbuffered scheme records (0, 0): its one slot holds no prediction.
        fines, coarses = np.divmod(states[: k + 1] * buffered, eta)
    return Trajectory(x=xs[: end + 1], u=us, gamma=gammas, n=ns, fine=fines, coarse=coarses,
                      v=plant.lyapunov(xs[: end + 1]), divergent=divergent)


def monte_carlo(
    plant: PlantModel,
    config: SchemeConfig,
    horizon: int,
    runs: int,
    base_seed: int,
) -> MonteCarloResult:
    """Average the Lyapunov path over ``runs`` independent realizations.

    ``runs`` and ``horizon`` are counts and ``base_seed`` an integer >= 0 (:func:`_as_count`).
    The result also carries the per-step standard error ``se_v`` (see :class:`MonteCarloResult`).
    The runs draw from one ``default_rng(base_seed)`` in run order, so run 0 is
    ``simulate_trajectory(plant, config, horizon, base_seed)``; the reductions happen in run
    order.  Wide calls take the batched engine, narrow ones the per-run loop (see the module
    docstring); both give the same bits.
    """
    runs, horizon = _as_count(runs, "runs"), _as_count(horizon, "horizon")

    rng = np.random.default_rng(_as_count(base_seed, "base_seed", least=0))
    sum_v = np.zeros(horizon + 1)
    sum_sq = np.zeros(horizon + 1)
    sum_trigger = np.zeros(horizon + 1)
    divergent_runs = 0
    if runs >= _BATCH_MIN_RUNS:
        width = max(_BATCH_MIN_RUNS, _BATCH_MAX_DRAWS // (3 * horizon))
        for first in range(0, runs, width):
            divergent_runs += _run_batch(plant, config, horizon, rng, min(width, runs - first),
                                         sum_v, sum_sq, sum_trigger)
    else:
        for _ in range(runs):
            traj = simulate_trajectory(plant, config, horizon, rng, records=False)
            v = np.asarray(traj.v, dtype=float)  # squared in float64, as in the batched engine
            trig = np.abs(traj.x) > config.d
            if v.size < horizon + 1:  # divergent: carry last finite value forward
                v = np.concatenate([v, np.full(horizon + 1 - v.size, v[-1])])
                trig = np.concatenate([trig, np.ones(horizon + 1 - trig.size, dtype=bool)])
            sum_v += v
            sum_sq += v * v
            sum_trigger += trig
            divergent_runs += traj.divergent
            del traj, v, trig  # free this run's arrays before the next run allocates its own
    if runs > 1:
        # Clipped at zero: rounding can leave a zero spread slightly negative.
        spread = np.maximum(sum_sq - sum_v * sum_v / runs, 0.0)
        se_v = np.sqrt(spread / (runs - 1) / runs)
    else:
        se_v = np.full(horizon + 1, np.nan)
    return MonteCarloResult(
        horizon=horizon,
        runs=runs,
        mean_v=sum_v / runs,
        se_v=se_v,
        trigger_rate=sum_trigger / runs,
        divergent_runs=divergent_runs,
    )


def _run_batch(plant: PlantModel, config: SchemeConfig, horizon: int,
               rng: np.random.Generator, width: int, sum_v: np.ndarray, sum_sq: np.ndarray,
               sum_trigger: np.ndarray) -> int:
    """Advance the next ``width`` runs of ``rng`` together and add them into the sums.

    Reads each run's decoded stream as :func:`simulate_trajectory` does and
    returns the number of runs that diverged.  A run's buffer is its chain
    state (0 is empty) with the head input ``u`` and the predicted state
    ``chi`` that ``u`` was computed at.  Each step reads, at one index per run
    ``(state * cols + n) * trig`` (``cols = len(p)``; 0 on a silent step), flat tables
    built once per call from the config's chain: the next state, whether the run shifts
    onto a stored entry and which law computes its new head (an entry is computed only
    when it becomes the head).  A diverged run keeps its last finite Lyapunov value and
    counts as triggered; it is parked at zero, takes silent steps and runs no plant code.
    """
    noise, transmits, grants = _decode_streams(plant, config, horizon, rng, width)
    transmits, grants = transmits.ravel(), grants.ravel()
    cursor = np.arange(width) * (2 * horizon)  # flat index of each run's next draw

    table, heads, laws, _, _ = config._chain
    cols = len(config.p)
    table = np.array(table, dtype=np.intp)
    law = np.array(heads, dtype=np.int8)[table].ravel()  # each index's next law
    laws = [(kappa, law == j) for j, kappa in enumerate(laws) if j and j in law]
    table, shifts = table.ravel(), ((table > 0) & (np.arange(cols) == 0)).ravel()

    x = np.full(width, plant.x0, dtype=float)
    state = np.zeros(width, dtype=np.intp)
    u = np.zeros(width)  # the head input
    chi = np.zeros(width)  # the predicted state that u was computed at
    v = v0 = plant.lyapunov(x)
    dead = np.zeros(width, dtype=bool)
    ndead = 0
    trig = np.abs(x) > config.d
    triggered = np.empty(horizon + 1, dtype=np.int64)  # runs triggered (or dead) per step
    triggered[0] = np.count_nonzero(trig)
    for k in range(horizon):
        sent = transmits.take(cursor) & trig
        cursor += trig
        n = grants.take(cursor)
        cursor += sent
        n *= sent  # units granted
        idx = state  # (state * cols + n) * trig, in place: index 0 for a silent step
        idx *= cols
        idx += n
        idx *= trig
        state = table.take(idx)
        np.copyto(chi, x, where=n > 0)  # a grant computes its head at the current state
        rows = shifts.take(idx).nonzero()[0]
        if rows.size:
            chi[rows] = plant.step(chi[rows], u[rows], 0.0)
        u.fill(0.0)  # an empty buffer applies zero
        for kappa, heads in laws:
            rows = heads.take(idx).nonzero()[0]
            if rows.size:
                u[rows] = kappa.evaluate(chi[rows])
        if ndead:  # the plant steps the live runs only
            x[live] = plant.step(x[live], u[live], noise[live, k])
        else:
            x = np.asarray(plant.step(x, u, noise[:, k]), dtype=float)
        size = np.abs(x)
        if ndead or not size.max() <= DIVERGENCE_LIMIT:  # max is nan if any is
            dead |= ~(size <= DIVERGENCE_LIMIT)  # also catches inf and nan
            ndead = np.count_nonzero(dead)
            x[dead] = size[dead] = 0.0  # a dead run takes silent steps
            live = np.flatnonzero(~dead)
            v = v.copy()  # a dead run keeps its last finite value
            v[live] = plant.lyapunov(x[live])
        else:
            v = plant.lyapunov(x)
        noise[:, k] = v  # the values of step k + 1, in the column this step has used
        trig = size > config.d
        triggered[k + 1] = np.count_nonzero(trig) + ndead
    # Add the runs one at a time, in run order, as the per-run loop does: step 0 in
    # Python floats (float64), then each run's row of values for steps 1 to horizon.
    first, first_sq = float(sum_v[0]), float(sum_sq[0])
    for v in np.asarray(v0, dtype=float).tolist():
        first += v
        first_sq += v * v
    sum_v[0], sum_sq[0] = first, first_sq
    rest, rest_sq = sum_v[1:], sum_sq[1:]
    for v in noise:
        rest += v
        rest_sq += v * v
    sum_trigger += triggered
    return int(ndead)


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
