import collections
import dataclasses
import functools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

import esac.simulate
from esac.acceptance import benchmark_scheme_config
from esac.schemes import Buffer, ControlLaw, resolve, scheme_kind
from esac.simulate import (
    PlantModel,
    SchemeConfig,
    example_system,
    monte_carlo,
    simulate_trajectory,
)

BENCH_P = (0.2,) * 5


def bench_config(scheme="A2", rho2=0.45, eta=2, buffer_size=3, q=0.5, p=BENCH_P, d=1.0):
    plant, kappa1, kappa2_factory = example_system()
    kappa2 = kappa2_factory(rho2) if scheme in ("A2", "B2") else None
    config = SchemeConfig(
        scheme=scheme,
        kappa1=kappa1,
        kappa2=kappa2,
        eta=eta,
        buffer_size=buffer_size,
        d=d,
        q=q,
        p=p,
    )
    return plant, config


def divergent_plant():
    return PlantModel(step=lambda x, u, w: 10.0 * x + u + w, noise_std=1.0, x0=1.0,
                      lyapunov=abs)


def noise_free_plant():
    plant, _, _ = example_system()
    return PlantModel(step=plant.step, noise_std=0.0, x0=20.0, lyapunov=abs)


def reference_monte_carlo(plant, config, horizon, runs, base_seed):
    """Mean over ``simulate_trajectory`` runs drawn in turn from one
    ``default_rng(base_seed)``, added one run at a time, and the runs'
    Lyapunov paths (a divergent one carries its last finite value forward)."""
    rng = np.random.default_rng(base_seed)
    paths = np.empty((runs, horizon + 1))
    sum_v = np.zeros(horizon + 1)
    sum_trigger = np.zeros(horizon + 1)
    divergent = 0
    for v in paths:
        traj = simulate_trajectory(plant, config, horizon, rng)
        v.fill(traj.v[-1])
        v[: traj.v.size] = traj.v
        trig = np.ones(horizon + 1, dtype=bool)
        trig[: traj.x.size] = np.abs(traj.x) > config.d
        sum_v += v
        sum_trigger += trig
        divergent += traj.divergent
    return sum_v / runs, sum_trigger / runs, divergent, paths


class TestSchemeConfig:
    @pytest.mark.parametrize("field, value", [
        ("eta", 0),
        ("eta", -1),
        ("buffer_size", 0),
        ("q", 1.5),
        ("q", -0.1),
        ("q", float("nan")),
        ("p", (0.5, -0.1, 0.6)),
        ("p", (0.0, 0.0)),
        ("p", ()),
        ("p", (0.5, float("nan"))),
        ("d", float("nan")),
        ("d", -1.0),
    ])
    @pytest.mark.parametrize("scheme", ["A2", "B2"])
    def test_rejects_bad_value(self, scheme, field, value):
        _, config = bench_config(scheme=scheme)
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(config, **{field: value})

    @pytest.mark.parametrize("scheme", ["A2", "B2"])
    def test_two_law_eta_at_most_n_max(self, scheme):
        _, config = bench_config(scheme=scheme)  # n_max = 4
        assert dataclasses.replace(config, eta=4).eta == 4
        with pytest.raises(ValueError, match=r"^eta must satisfy 1 <= eta <= n_max=4, got 5$"):
            dataclasses.replace(config, eta=5)

    @pytest.mark.parametrize("scheme", ["A1", "B1"])
    def test_one_law_scheme_ignores_eta(self, scheme):
        _, config = bench_config(scheme=scheme, eta=9)
        assert config._chain[3] == 1

    @pytest.mark.parametrize("runs", [4, 30])  # the per-run loop, then the batched engine
    @pytest.mark.parametrize("scheme", ["A2", "B2", "A1", "B1"])
    def test_two_law_scheme_requires_a_coarse_law(self, scheme, runs):
        """A missing coarse law is refused when the config is built; before, both
        engines failed at the first coarse-headed step with a ``TypeError``.  A one-law
        scheme, which runs its one law ``kappa1`` in the fine slot too, names it coarse
        as well; before, it was named fine."""
        plant, config = bench_config(scheme=scheme)
        assert monte_carlo(plant, config, horizon=20, runs=runs, base_seed=0).runs == runs
        with pytest.raises(ValueError, match=f"^scheme {scheme} requires a coarse law$"):
            monte_carlo(plant, dataclasses.replace(config, kappa1=None), horizon=20, runs=runs,
                        base_seed=0)

    def test_accepts_edge_values(self):
        _, config = bench_config(eta=1, q=1.0, p=(0.0, 1.0))
        assert dataclasses.replace(config, q=0.0).q == 0.0
        assert dataclasses.replace(config, d=math.inf).d == math.inf


class TestPlantModel:
    @pytest.mark.parametrize("noise_std", [float("nan"), -1.0, math.inf])
    def test_rejects_bad_noise_std(self, noise_std):
        with pytest.raises(ValueError, match="noise_std"):
            dataclasses.replace(noise_free_plant(), noise_std=noise_std)

    @pytest.mark.parametrize("x0", [float("nan"), math.inf, -math.inf])
    def test_rejects_non_finite_x0(self, x0):
        # A NaN start ran as a divergent run that never triggered; inf warned in np.sin.
        with pytest.raises(ValueError, match=f"^x0 must be finite, got {x0}$"):
            dataclasses.replace(noise_free_plant(), x0=x0)


class TestSampleEnv:
    """The channel and processor outcomes ``(gamma, n)`` a trajectory records."""

    @staticmethod
    def outcomes(horizon, seed, **kwargs):
        plant, config = bench_config(**kwargs)
        traj = simulate_trajectory(plant, config, horizon, seed)
        assert not traj.divergent
        triggered = np.abs(traj.x[:-1]) > config.d
        return traj.gamma, traj.n, triggered

    def test_untriggered_is_silent(self):
        gamma, n, triggered = self.outcomes(200, 0)
        assert 0 < np.count_nonzero(triggered) < triggered.size
        np.testing.assert_array_equal(gamma == 2, ~triggered)
        assert np.all(n[~triggered] == 0)

    def test_q_zero_never_transmits(self):
        gamma, n, triggered = self.outcomes(50, 0, q=0.0)
        assert np.all(triggered)
        assert np.all(gamma == 0)
        assert np.all(n == 0)

    def test_q_one_always_transmits(self):
        gamma, n, triggered = self.outcomes(200, 0, q=1.0)
        assert np.all(gamma[triggered] == 1)
        assert np.all((0 <= n) & (n <= 4))

    def test_degenerate_pmf(self):
        gamma, n, triggered = self.outcomes(200, 0, q=1.0, p=(0.0, 0.0, 0.0, 1.0))
        assert np.count_nonzero(triggered) >= 20
        assert np.all(n[triggered] == 3)

    def test_grant_frequencies(self):
        # With d = 0 the noisy state triggers every step.
        gamma, n, triggered = self.outcomes(40_000, 42, q=1.0, d=0.0)
        assert np.all(triggered)
        counts = np.bincount(n, minlength=5)
        np.testing.assert_allclose(counts / n.size, BENCH_P, atol=0.01)


class TestSimulateTrajectory:
    def test_shapes_and_initial_state(self):
        plant, config = bench_config()
        traj = simulate_trajectory(plant, config, horizon=50, seed=3)
        assert traj.x.size == 51
        assert traj.v.size == 51
        assert traj.u.size == 50
        assert traj.x[0] == 20.0
        assert traj.v[0] == 20.0
        assert not traj.divergent
        assert traj.steps == 50

    def test_deterministic_in_seed(self):
        plant, config = bench_config()
        a = simulate_trajectory(plant, config, horizon=80, seed=12)
        b = simulate_trajectory(plant, config, horizon=80, seed=12)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.gamma, b.gamma)
        c = simulate_trajectory(plant, config, horizon=80, seed=13)
        assert not np.array_equal(a.x, c.x)

    def test_perfect_channel_contracts_noise_free(self):
        # q = 1 with all mass on the largest grant keeps the buffer full of
        # fine entries; without noise the state should contract every step
        # until it parks below the trigger threshold.
        plant, _, kappa2_factory = example_system()
        plant = PlantModel(step=plant.step, noise_std=0.0, x0=20.0, lyapunov=abs)
        config = SchemeConfig(
            scheme="A2",
            kappa1=ControlLaw(lambda x: 1.34 * x - 0.01 * math.sin(x) + 0.9 * abs(x)),
            kappa2=kappa2_factory(0.45),
            eta=2,
            buffer_size=3,
            d=1.0,
            q=1.0,
            p=(0.0, 0.0, 0.0, 0.0, 1.0),
        )
        traj = simulate_trajectory(plant, config, horizon=30, seed=0)
        # 0.45 contraction while above the threshold, zero input after
        expected = 20.0
        for k in range(1, 31):
            if abs(expected) > 1.0:
                expected = 0.45 * abs(expected)
            else:
                expected = -1.34 * expected + 0.01 * math.sin(expected)
            assert traj.x[k] == pytest.approx(expected, rel=1e-12)

    def test_divergence_truncates_and_flags(self):
        plant = PlantModel(
            step=lambda x, u, w: 10.0 * x + u + w,
            noise_std=0.0,
            x0=1.0,
            lyapunov=abs,
        )
        _, config = bench_config(scheme="B1", q=0.0, p=(1.0, 0.0))
        config = SchemeConfig(
            scheme="B1", kappa1=config.kappa1, kappa2=None, eta=1,
            buffer_size=1, d=0.5, q=0.0, p=(1.0, 0.0),
        )
        traj = simulate_trajectory(plant, config, horizon=100, seed=1)
        assert traj.divergent
        assert traj.x.size < 101
        assert np.all(np.abs(traj.x) <= 1e12)

    def test_rejects_bad_horizon(self):
        plant, config = bench_config()
        with pytest.raises(ValueError):
            simulate_trajectory(plant, config, horizon=0, seed=1)


class TestMonteCarlo:
    def test_single_run_matches_trajectory(self):
        plant, config = bench_config()
        result = monte_carlo(plant, config, horizon=40, runs=1, base_seed=5)
        traj = simulate_trajectory(plant, config, horizon=40, seed=5 ^ 0)
        np.testing.assert_array_equal(result.mean_v, traj.v)

    def test_mean_over_two_runs(self):
        plant, config = bench_config()
        result = monte_carlo(plant, config, horizon=40, runs=2, base_seed=5)
        rng = np.random.default_rng(5)
        t0 = simulate_trajectory(plant, config, horizon=40, seed=rng)
        t1 = simulate_trajectory(plant, config, horizon=40, seed=rng)
        np.testing.assert_allclose(result.mean_v, (t0.v + t1.v) / 2.0, rtol=1e-15)

    def test_single_run_has_nan_standard_error(self):
        plant, config = bench_config()
        result = monte_carlo(plant, config, horizon=40, runs=1, base_seed=5)
        assert result.se_v.shape == (41,)
        assert np.all(np.isnan(result.se_v))

    def test_base_seeds_give_independent_runs(self):
        plant, _, _ = example_system()
        config = benchmark_scheme_config("Q1")
        means = [monte_carlo(plant, config, horizon=200, runs=256, base_seed=seed).mean_v
                 for seed in (0, 1, 7)]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert np.max(np.abs(means[i] - means[j])) > 1.0

    def test_trigger_rate_shape_and_range(self):
        plant, config = bench_config()
        result = monte_carlo(plant, config, horizon=40, runs=8, base_seed=2)
        assert result.trigger_rate.size == 41
        assert np.all(result.trigger_rate >= 0.0)
        assert np.all(result.trigger_rate <= 1.0)
        assert result.trigger_rate[0] == 1.0  # x0 = 20 always triggers
        assert 0.0 <= result.overall_trigger_rate <= 1.0

    def test_divergent_runs_counted(self):
        plant = PlantModel(
            step=lambda x, u, w: 10.0 * x + u + w,
            noise_std=0.0,
            x0=1.0,
            lyapunov=abs,
        )
        _, base = bench_config()
        config = SchemeConfig(
            scheme="B1", kappa1=base.kappa1, kappa2=None, eta=1,
            buffer_size=1, d=0.5, q=0.0, p=(1.0, 0.0),
        )
        result = monte_carlo(plant, config, horizon=50, runs=3, base_seed=1)
        assert result.divergent_runs == 3
        assert result.mean_v.size == 51

    def test_rejects_zero_runs(self):
        plant, config = bench_config()
        with pytest.raises(ValueError):
            monte_carlo(plant, config, horizon=10, runs=0, base_seed=1)

    @pytest.mark.parametrize("runs", [1, 64])
    def test_rejects_zero_horizon(self, runs):
        plant, config = bench_config()
        with pytest.raises(ValueError, match="horizon"):
            monte_carlo(plant, config, horizon=0, runs=runs, base_seed=1)


#: Run counts for the oracle, on both sides of the engine threshold and wider.
WIDTHS = sorted({5, 15, 16, 26, 40,
                 esac.simulate._BATCH_MIN_RUNS - 1, esac.simulate._BATCH_MIN_RUNS})

P5 = (0.1, 0.2, 0.3, 0.2, 0.2)
P6 = (0.1, 0.1, 0.2, 0.2, 0.2, 0.2)
#: ``(scheme, eta, buffer_size, p)``.  The buffer truncates grants in A1 at
#: 3 slots, A2 at 1 slot (fine entries cut) and A2 at ``eta = 3`` with 2
#: slots and ``n <= 5``, where ``n = 5`` computes one fine and two coarse
#: entries and keeps one of each (state 4).
SCHEME_CASES = [("A1", 1, 3, P5), ("A2", 2, 3, P5), ("A2", 3, 2, P5), ("A2", 2, 1, P5),
                ("A2", 3, 2, P6), ("B1", 1, 1, P5), ("B2", 2, 1, P5)]

#: Channel and trigger extremes, as ``bench_config`` keywords and a horizon:
#: no transmission succeeds, every one does, every grant is two units, every
#: nonzero state triggers, no step triggers (every run's chain index stays 0)
#: and a single step.
EXTREMES = {"q0": ({"q": 0.0}, 60), "q1": ({"q": 1.0}, 60), "p001": ({"p": (0.0, 0.0, 1.0)}, 60),
            "d0": ({"d": 0.0}, 60), "dinf": ({"d": math.inf}, 60), "horizon1": ({}, 1)}


#: Thousands of runs per batch, with the bench plant and with the divergent one, whose
#: runs pass the divergence limit at steps 12 and 13.  One reference serves both tests.
WIDE = {"bench": (bench_config()[0], 5), "divergent": (divergent_plant(), 13)}
WIDE_RUNS = 8_200


@functools.cache
def wide_reference(plant_name):
    plant, horizon = WIDE[plant_name]
    return reference_monte_carlo(plant, bench_config()[1], horizon, WIDE_RUNS, 17)


class TestMonteCarloOracle:
    """Both engines equal the run-order mean of ``simulate_trajectory`` bit for
    bit, and give the same standard errors."""

    def check(self, plant, config, horizon, runs, base_seed):
        result = monte_carlo(plant, config, horizon, runs, base_seed)
        # The same call through the other engine.
        batched = runs >= esac.simulate._BATCH_MIN_RUNS
        with mock.patch.object(esac.simulate, "_BATCH_MIN_RUNS", runs + 1 if batched else 1):
            other = monte_carlo(plant, config, horizon, runs, base_seed)
        reference = reference_monte_carlo(plant, config, horizon, runs, base_seed)
        for res in (result, other):
            self.assert_matches(res, reference)
        np.testing.assert_array_equal(result.se_v, other.se_v)
        return result

    @staticmethod
    def assert_matches(result, reference):
        mean_v, trigger_rate, divergent, paths = reference
        np.testing.assert_array_equal(result.mean_v, mean_v)
        np.testing.assert_array_equal(result.trigger_rate, trigger_rate)
        assert result.divergent_runs == divergent
        assert type(result.divergent_runs) is int
        # The sums-of-squares form loses up to about sqrt(eps) * max|v| to
        # cancellation where the runs agree, with max|v| taken at each step.
        expected = np.std(paths, axis=0, ddof=1) / math.sqrt(len(paths))
        tol = 1e-9 * expected + 10 * math.sqrt(np.finfo(float).eps) * np.abs(paths).max(axis=0)
        error = np.abs(result.se_v - expected)
        assert np.all(error <= tol), f"se_v off by {error - tol} beyond tolerance"

    @pytest.mark.parametrize("runs", WIDTHS)
    @pytest.mark.parametrize("scheme, eta, buffer_size, p", SCHEME_CASES, ids=[
        f"{s}-{e}-{b}" + ("" if p is P5 else f"-p{len(p)}") for s, e, b, p in SCHEME_CASES])
    def test_schemes(self, scheme, eta, buffer_size, p, runs):
        plant, config = bench_config(scheme=scheme, eta=eta, buffer_size=buffer_size, p=p)
        self.check(plant, config, horizon=60, runs=runs, base_seed=11)

    @pytest.mark.parametrize("runs", WIDTHS)
    @pytest.mark.parametrize("scheme", ["A2", "B1"])
    def test_divergent_plant(self, scheme, runs):
        _, config = bench_config(scheme=scheme, eta=2 if scheme == "A2" else 1, q=0.3)
        result = self.check(divergent_plant(), config, horizon=40, runs=runs, base_seed=3)
        assert result.divergent_runs > 0

    @pytest.mark.parametrize("runs", WIDTHS)
    def test_dead_runs_call_no_plant_code(self, runs):
        # Both callables warn at zero, where a dead run is parked; a live run
        # of this plant never reaches zero.
        def at_zero_warns(x):
            return 0.0 * np.log(np.abs(x))

        base = divergent_plant()
        plant = dataclasses.replace(
            base, step=lambda x, u, w: base.step(x, u, w) + at_zero_warns(x),
            lyapunov=lambda x: np.log1p(np.abs(x)) + at_zero_warns(x))
        _, config = bench_config(scheme="B1", eta=1, q=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = self.check(plant, config, horizon=40, runs=runs, base_seed=3)
        assert result.divergent_runs > 0

    @pytest.mark.parametrize("runs", WIDTHS)
    def test_noise_free_plant(self, runs):
        _, config = bench_config()
        self.check(noise_free_plant(), config, horizon=60, runs=runs, base_seed=8)

    @pytest.mark.parametrize("case", EXTREMES)
    @pytest.mark.parametrize("scheme, eta, buffer_size", [("A2", 2, 3), ("B1", 1, 1)])
    def test_channel_extremes_batched(self, scheme, eta, buffer_size, case):
        keywords, horizon = EXTREMES[case]
        plant, config = bench_config(scheme=scheme, eta=eta, buffer_size=buffer_size, **keywords)
        result = self.check(plant, config, horizon=horizon,
                            runs=esac.simulate._BATCH_MIN_RUNS + 2, base_seed=13)
        assert case != "dinf" or result.overall_trigger_rate == 0.0

    def test_runs_split_into_batches(self, monkeypatch):
        # 45 runs in batches of 24 and 21 (the width floor _BATCH_MIN_RUNS
        # lifts the patched width of 20): the run-order sum continues across
        # the batch boundary.
        horizon = 30
        monkeypatch.setattr(esac.simulate, "_BATCH_MAX_DRAWS", 3 * horizon * 20)
        plant, config = bench_config()
        self.check(plant, config, horizon=horizon, runs=45, base_seed=21)
        self.check(divergent_plant(), config, horizon=horizon, runs=45, base_seed=21)

    @pytest.mark.parametrize("plant_name", WIDE)
    def test_wide_batch(self, plant_name):
        # One batch of 8,200 runs.
        self.check_wide(plant_name)

    @pytest.mark.parametrize("plant_name", WIDE)
    def test_wide_batches_carry_the_sums(self, plant_name, monkeypatch):
        # Batches of 4,096, 4,096 and 8 runs: the run-order sums continue across both
        # batch boundaries at that width.
        monkeypatch.setattr(esac.simulate, "_BATCH_MAX_DRAWS", 3 * WIDE[plant_name][1] * 4_096)
        self.check_wide(plant_name)

    def check_wide(self, plant_name):
        plant, horizon = WIDE[plant_name]
        _, config = bench_config()
        result = monte_carlo(plant, config, horizon, WIDE_RUNS, 17)
        self.assert_matches(result, wide_reference(plant_name))
        assert (result.divergent_runs > 0) == (plant_name == "divergent")


@pytest.mark.parametrize("runs", [5, 40])
@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_engines_agree_on_any_lyapunov_dtype(dtype, runs):
    """Both engines hold the Lyapunov values as float64 and square them there,
    whatever dtype the callable returns."""
    base, config = bench_config()
    plant = dataclasses.replace(base, lyapunov=lambda x: (np.abs(x) * 1e3).astype(dtype))
    TestMonteCarloOracle().check(plant, config, horizon=60, runs=runs, base_seed=5)


def returns_float32(f):
    return lambda *args: np.float32(f(*args))


@pytest.mark.parametrize("runs", [esac.simulate._BATCH_MIN_RUNS - 1,
                                  esac.simulate._BATCH_MIN_RUNS + 6], ids=["narrow", "batched"])
@pytest.mark.parametrize("callable_", ["step", "law"])
def test_engines_agree_on_any_step_dtype(callable_, runs):
    """Both engines hold the state, the prediction and the input as float64,
    whatever dtype the plant step or a law returns."""
    plant, _, _ = example_system()
    config = benchmark_scheme_config("Q1")
    if callable_ == "step":
        plant = dataclasses.replace(plant, step=returns_float32(plant.step))
    else:
        config = dataclasses.replace(config, **{
            name: dataclasses.replace(law, evaluate=returns_float32(law.evaluate))
            for name, law in [("kappa1", config.kappa1), ("kappa2", config.kappa2)]})
    TestMonteCarloOracle().check(plant, config, horizon=60, runs=runs, base_seed=5)


@pytest.mark.parametrize("runs", [esac.simulate._BATCH_MIN_RUNS - 1,
                                  esac.simulate._BATCH_MIN_RUNS + 8], ids=["narrow", "batched"])
@pytest.mark.parametrize("scheme, eta", [("A1", 1), ("A2", 2)])
def test_evaluations_follow_use(scheme, eta, runs):
    """Both engines predict a state once per shift onto a stored entry and
    evaluate each law only at the heads that apply it: the batched engine in
    at most one call per step, the per-run loop in one call per point."""
    horizon, seed = 60, 4
    plant, config = bench_config(scheme=scheme, eta=eta, buffer_size=3, p=P5)
    tally = collections.Counter()  # points evaluated, and calls

    def counted(law, name):
        def evaluate(x):
            tally[name] += np.size(x)
            tally[name + " calls"] += 1
            return law.evaluate(x)
        return ControlLaw(evaluate) if law is not None else None

    def step(x, u, w):
        if np.ndim(w) == 0 and w == 0.0:  # the prediction model
            tally["predict"] += np.size(x)
        return plant.step(x, u, w)

    counting = dataclasses.replace(config, kappa1=counted(config.kappa1, "coarse"),
                                   kappa2=counted(config.kappa2, "fine"))
    monte_carlo(dataclasses.replace(plant, step=step), counting, horizon, runs, seed)

    shifts = fine_heads = coarse_heads = 0
    rng = np.random.default_rng(seed)
    for _ in range(runs):
        traj = simulate_trajectory(plant, config, horizon, rng)
        assert not traj.divergent
        refilled = (traj.gamma == 1) & (traj.n > 0)
        stored = traj.fine + traj.coarse > 0
        shifts += np.count_nonzero((traj.gamma != 2) & ~refilled & stored)
        fine_heads += np.count_nonzero(traj.fine > 0)
        coarse_heads += np.count_nonzero((traj.fine == 0) & (traj.coarse > 0))
    assert shifts > 0
    assert tally["predict"] == shifts
    if scheme == "A1":  # the coarse law runs in the fine law's place
        fine_heads, coarse_heads = 0, fine_heads
    assert tally["fine"] == fine_heads
    assert tally["coarse"] == coarse_heads
    batched = runs >= esac.simulate._BATCH_MIN_RUNS
    for law in ("fine", "coarse"):
        calls = tally[law + " calls"]
        assert calls <= horizon if batched else calls == tally[law]


REPLAY_CASES = [("bench", *case, 0.5) for case in SCHEME_CASES] + [
    ("divergent", "A2", 2, 3, P5, 0.3), ("divergent", "B1", 1, 1, P5, 0.3)]


@pytest.mark.parametrize("plant_name, scheme, eta, buffer_size, p, q", REPLAY_CASES, ids=[
    f"{t}-{s}-{e}-{b}" + ("" if p is P5 else f"-p{len(p)}") for t, s, e, b, p, _ in REPLAY_CASES])
def test_trajectory_replays_through_buffer_step(plant_name, scheme, eta, buffer_size, p, q):
    """The chain-state loop of ``simulate_trajectory`` applies the inputs, and
    records the counts, of the reference stepper ``Buffer.step``, which
    computes and stores every entry of a grant."""
    base, config = bench_config(scheme=scheme, eta=eta, buffer_size=buffer_size, p=p, q=q)
    plant = divergent_plant() if plant_name == "divergent" else base
    traj = simulate_trajectory(plant, config, 400, seed=17)
    assert traj.divergent or plant_name == "bench"
    assert np.any((traj.gamma == 1) & (traj.n > 0)) and np.any(traj.gamma == 0)

    kappa1 = config.kappa1
    eta, size, kappa2 = resolve(scheme, eta, buffer_size, len(p) - 1, kappa1, config.kappa2)
    buf = Buffer(size)
    f = lambda x, u: plant.step(x, u, 0.0)  # noqa: E731  (prediction model)
    applied = np.empty(traj.steps)
    counts = np.empty((traj.steps, 2), dtype=np.int64)
    for k in range(traj.steps):
        applied[k] = buf.step(traj.x[k], traj.gamma[k], traj.n[k], kappa1, kappa2, eta, f)
        counts[k] = buf.counts if scheme_kind(scheme).buffered else (0, 0)
    np.testing.assert_array_equal(traj.u.view(np.uint64), applied.view(np.uint64))
    np.testing.assert_array_equal(np.c_[traj.fine, traj.coarse], counts)


@pytest.mark.parametrize("plant_name, scheme, eta, buffer_size, p, q", REPLAY_CASES, ids=[
    f"{t}-{s}-{e}-{b}" + ("" if p is P5 else f"-p{len(p)}") for t, s, e, b, p, _ in REPLAY_CASES])
def test_trajectory_without_records(plant_name, scheme, eta, buffer_size, p, q):
    """``records=False`` runs the same loop and keeps only ``x``, ``v`` and
    ``divergent``, bit for bit."""
    base, config = bench_config(scheme=scheme, eta=eta, buffer_size=buffer_size, p=p, q=q)
    plant = divergent_plant() if plant_name == "divergent" else base
    full = simulate_trajectory(plant, config, 400, seed=17)
    bare = simulate_trajectory(plant, config, 400, seed=17, records=False)
    assert bare.divergent == full.divergent
    assert full.divergent or plant_name == "bench"
    assert bare.steps == full.steps == full.u.size
    for name in ("x", "v"):
        np.testing.assert_array_equal(getattr(bare, name).view(np.uint64),
                                      getattr(full, name).view(np.uint64))
    for name in ("u", "gamma", "n", "fine", "coarse"):
        assert getattr(bare, name) is None


def test_batched_call_memory_peak():
    """A 10k-run call of criterion 5's shape stays near the batch budget:
    the Lyapunov values reuse the disturbances' room, and the run-order
    sums add one run's squares at a time, not a value array per batch."""
    plant, _, _ = example_system()
    tracemalloc.start()
    try:
        monte_carlo(plant, benchmark_scheme_config("Q1"), horizon=200, runs=10_000, base_seed=2024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestExampleSystem:
    def test_coarse_law_contracts_exactly(self):
        plant, kappa1, _ = example_system(rho1=0.9)
        for x in (20.0, -7.5, 0.3, 1e4):
            nxt = plant.step(x, kappa1(x), 0.0)
            assert nxt == pytest.approx(0.9 * abs(x), rel=1e-9)

    def test_fine_law_factory(self):
        plant, _, kappa2_factory = example_system()
        kappa2 = kappa2_factory(0.45)
        assert kappa2.contraction == 0.45
        nxt = plant.step(-3.0, kappa2(-3.0), 0.0)
        assert nxt == pytest.approx(0.45 * 3.0, rel=1e-9)

    def test_array_evaluation_matches_scalar(self):
        plant, kappa1, kappa2_factory = example_system()
        kappa2 = kappa2_factory(0.45)
        rng = np.random.default_rng(4)
        x = np.concatenate([rng.normal(0.0, 30.0, 2000), rng.uniform(-1e12, 1e12, 2000),
                            [0.0, -0.0, 1.0, -1.0, 1e-300]])
        u = rng.normal(0.0, 30.0, x.size)
        w = rng.standard_normal(x.size)
        expected = [plant.step(float(a), float(b), float(c)) for a, b, c in zip(x, u, w)]
        np.testing.assert_array_equal(plant.step(x, u, w), expected)
        for law in (kappa1, kappa2):
            np.testing.assert_array_equal(law(x), [law(float(a)) for a in x])
        np.testing.assert_array_equal(plant.lyapunov(x), [plant.lyapunov(float(a)) for a in x])

    def test_plant_shape(self):
        plant, _, _ = example_system()
        assert plant.x0 == 20.0
        assert plant.noise_std == 1.0
        assert plant.lyapunov(-4.0) == 4.0
        assert plant.step(1.0, 0.0, 0.0) == pytest.approx(
            -1.34 + 0.01 * math.sin(1.0)
        )
