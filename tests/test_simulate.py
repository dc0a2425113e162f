import dataclasses
import math

import numpy as np
import pytest

import esac.simulate
from esac.schemes import ControlLaw
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
    """Mean over ``simulate_trajectory`` runs, added one run at a time."""
    sum_v = np.zeros(horizon + 1)
    sum_trigger = np.zeros(horizon + 1)
    divergent = 0
    for r in range(runs):
        traj = simulate_trajectory(plant, config, horizon, base_seed ^ r)
        v = np.full(horizon + 1, traj.v[-1])
        v[: traj.v.size] = traj.v
        trig = np.ones(horizon + 1, dtype=bool)
        trig[: traj.x.size] = np.abs(traj.x) > config.d
        sum_v += v
        sum_trigger += trig
        divergent += traj.divergent
    return sum_v / runs, sum_trigger / runs, divergent


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
    ])
    @pytest.mark.parametrize("scheme", ["A2", "B2"])
    def test_rejects_bad_value(self, scheme, field, value):
        _, config = bench_config(scheme=scheme)
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(config, **{field: value})

    def test_accepts_edge_values(self):
        _, config = bench_config(q=1.0, p=(0.0, 1.0))
        assert dataclasses.replace(config, q=0.0).q == 0.0


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
        _, config = bench_config(scheme="B1", q=0.0, p=(1.0,))
        config = SchemeConfig(
            scheme="B1", kappa1=config.kappa1, kappa2=None, eta=1,
            buffer_size=1, d=0.5, q=0.0, p=(1.0,),
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
        t0 = simulate_trajectory(plant, config, horizon=40, seed=5 ^ 0)
        t1 = simulate_trajectory(plant, config, horizon=40, seed=5 ^ 1)
        np.testing.assert_allclose(result.mean_v, (t0.v + t1.v) / 2.0, rtol=1e-15)

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
            buffer_size=1, d=0.5, q=0.0, p=(1.0,),
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


WIDTHS = [5, 16, esac.simulate._BATCH_MIN_RUNS, 40]


class TestMonteCarloOracle:
    """Both engines equal the run-order mean of ``simulate_trajectory`` bit for bit."""

    def check(self, plant, config, horizon, runs, base_seed):
        result = monte_carlo(plant, config, horizon, runs, base_seed)
        mean_v, trigger_rate, divergent = reference_monte_carlo(
            plant, config, horizon, runs, base_seed)
        np.testing.assert_array_equal(result.mean_v, mean_v)
        np.testing.assert_array_equal(result.trigger_rate, trigger_rate)
        assert result.divergent_runs == divergent
        return result

    @pytest.mark.parametrize("runs", WIDTHS)
    @pytest.mark.parametrize("scheme, eta, buffer_size", [
        ("A1", 1, 3), ("A2", 2, 3), ("A2", 3, 2), ("B1", 1, 1), ("B2", 2, 1),
    ])
    def test_schemes(self, scheme, eta, buffer_size, runs):
        plant, config = bench_config(scheme=scheme, eta=eta, buffer_size=buffer_size,
                                     p=(0.1, 0.2, 0.3, 0.2, 0.2))
        self.check(plant, config, horizon=60, runs=runs, base_seed=11)

    @pytest.mark.parametrize("runs", WIDTHS)
    @pytest.mark.parametrize("scheme", ["A2", "B1"])
    def test_divergent_plant(self, scheme, runs):
        _, config = bench_config(scheme=scheme, eta=2 if scheme == "A2" else 1, q=0.3)
        result = self.check(divergent_plant(), config, horizon=40, runs=runs, base_seed=3)
        assert result.divergent_runs > 0

    @pytest.mark.parametrize("runs", WIDTHS)
    def test_noise_free_plant(self, runs):
        _, config = bench_config()
        self.check(noise_free_plant(), config, horizon=60, runs=runs, base_seed=8)

    def test_runs_split_into_batches(self, monkeypatch):
        # 45 runs in batches of 20, 20 and 5: the run-order sum continues
        # across batch boundaries.
        horizon = 30
        monkeypatch.setattr(esac.simulate, "_BATCH_MAX_DRAWS", 3 * horizon * 20)
        plant, config = bench_config()
        self.check(plant, config, horizon=horizon, runs=45, base_seed=21)
        self.check(divergent_plant(), config, horizon=horizon, runs=45, base_seed=21)


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
