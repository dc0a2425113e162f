"""Benchmark of the esac toolkit: Monte Carlo throughput and certification latency.

    python3 bench/run.py --workload mc_batch --seed 1 --seconds 30 --trace 0

Runs one workload through the public API of ``esac`` (imported from ``src/``
of this checkout), checks its outputs, and prints as the last stdout line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` they are its per-layer metrics, from a traced replay of
the same work (see ``tracing.py``).  The line before it holds run metadata
and diagnostics; the full record is written to ``.bench_out/``.

Everything runs in one process and one thread, as a closed loop: each call
starts when the previous one has returned.  BLAS pools are pinned to one
thread, ``ESAC_THREADS`` is removed and ``threads`` is never passed.

Workloads (rounds repeat until ``--seconds`` have been measured, at least
``min_rounds`` times):

``mc_batch``
    ``monte_carlo`` on Q1, Q2 and Q3, 512 runs x 200 steps per call: the
    shape of acceptance criterion 5, where a batched engine gains.
``mc_long``
    ``monte_carlo`` on Q1, three calls of 4 runs x 25,000 steps per round:
    the same layers with almost no run width, where batching has nothing to
    gain.
``certify_sweep``
    the three boundary curves, and ``certify`` then ``critical_alpha`` on 198
    random configurations drawn like criterion 2's generator; ``chain`` and
    ``stability`` dominate.

Every workload reports every end-to-end metric, so each also runs a small
companion from the other half of the toolkit.  The Monte Carlo workloads
certify what they simulate: after each ``monte_carlo`` call, one Q1-Q3
boundary curve, ``critical_alpha`` at its 19 grid points and 40 ``certify``
calls at seeded open-loop bounds.  ``certify_sweep`` simulates what it
certifies: one Q1-Q3 ``monte_carlo`` call at 64 runs x 200 steps per 66
configurations.  The host's speed drifts over seconds, so the kinds of call
are interleaved at about one-second steps: rates (work / time summed over
calls) and p50s pool the whole run, p99s are medians over rounds, and
set-up time is probed in a fresh interpreter after every round.

Output checks feed ``pass_share`` (checks passed / checks attempted).
Gating checks also decide ``correct``.  The checks that compare
``spectral_radius`` (and the bisection boundary of random configurations)
with ``numpy.linalg.eigvals`` are counted but do not gate, because the power
iteration misses ``eigvals`` by more than 1e-10 on a few percent of random
configurations; that known defect shows in ``pass_share`` on
``certify_sweep``.  ``attempted`` and ``failed`` count calls into the program
and calls that raised.
"""
from __future__ import annotations

import os

#: Thread-related environment, as given and as the benchmark runs it.  The
#: BLAS variables are read once, when numpy loads, so they are set first.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
GIVEN_THREAD_ENV = {v: os.environ.get(v) for v in BLAS_THREAD_VARS + ("ESAC_THREADS",)}
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("ESAC_THREADS", None)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import program  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("mc_batch", "mc_long", "certify_sweep")

#: Hand-derived boundary open-loop bounds of Q1-Q3 (the values of
#: ``esac.acceptance.EXPECTED_ALPHA_STAR``, kept here so the check does not
#: move with the program).
EXPECTED_ALPHA_STAR = {"Q1": 1.35265, "Q2": 1.26609, "Q3": 1.17477}

#: Certification checks skip matrices this close to the stability boundary.
BOUNDARY_BAND = 1e-9


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Work per round; every round mixes all kinds of call."""

    batch_runs: int = 512  # mc_batch: runs per call, one call per tag
    horizon: int = 200  # mc_batch and certify_sweep horizon
    long_calls: int = 3  # mc_long: calls per round
    long_runs: int = 4
    long_horizon: int = 25_000
    companion_runs: int = 64  # certify_sweep: runs per call, one call per tag
    configs_per_tag: int = 66  # certify_sweep: random configurations per tag
    spec_certs: int = 40  # mc workloads: certify calls per tag
    min_rounds: int = 4  # pools enough mc_batch runs for its ratio checks
    min_setup_probes: int = 5


FULL = Sizes()
SMOKE = Sizes(batch_runs=16, long_calls=3, long_horizon=500, companion_runs=8,
              configs_per_tag=4, spec_certs=4, min_rounds=1, min_setup_probes=2)


def random_config(rng):
    """One configuration drawn like acceptance criterion 2's generator."""
    while True:
        n_max = int(rng.integers(2, 9))
        q = rng.uniform(0.0, 1.0)
        p = rng.dirichlet(np.ones(n_max + 1))
        if not np.any(p >= 1.0):
            break
    rho1 = rng.uniform(0.01, 0.99)
    rho2 = rho1 * rng.uniform(0.0, 1.0)
    alpha = rng.uniform(0.01, 3.0)
    if rng.random() < 0.25:
        return ("A1", 1, rho1, rho1), alpha, q, p, n_max
    return ("A2", int(rng.integers(2, n_max + 1)), rho1, rho2), alpha, q, p, n_max


class Bench:
    """One run of a workload: the calls, their timings and the output checks."""

    def __init__(self, esac, setup, sizes: Sizes, seed: int, tracer: Tracer | None = None):
        self.esac, self.setup, self.sizes, self.seed = esac, setup, sizes, seed
        self.tracer = tracer
        self.plant, self.configs = setup.plant, setup.configs
        api = {name: getattr(esac, name) for name in (
            "monte_carlo", "certify", "critical_alpha", "boundary_curve", "effective_availability")}
        if tracer is not None:
            api = {name: tracer.wrap(fn, span) for (name, fn), span in zip(api.items(), (
                "simulate.monte_carlo", "stability.certify", "sweep.critical_alpha",
                "sweep.boundary_curve", "channel.effective_availability"))}
            self.plant = dataclasses.replace(self.plant, step=tracer.wrap(self.plant.step, "plant.step"))
            self.configs = {tag: self._traced_config(config) for tag, config in self.configs.items()}
        self.api = types.SimpleNamespace(**api)
        # Run r of a call is seeded base ^ r.  Bases are multiples of a power of
        # two >= every run count and carry the workload seed in their high
        # bits, so no two calls of any two seeds share a run stream.
        self.width = 1 << (max(sizes.batch_runs, sizes.long_runs, sizes.companion_runs) - 1).bit_length()
        self.mc_calls = 0
        self.seed_range = None
        self.rng_configs = np.random.default_rng([seed, 1])
        self.rng_alpha = np.random.default_rng([seed, 2])
        self.channel_l = esac.effective_availability(setup.q, setup.p)
        self.times = defaultdict(list)  # call kind -> seconds per call
        self.starts = defaultdict(list)  # call kind -> start, seconds after the first call
        self.round_ends = []  # per round: {kind: calls so far}
        self.origin = None
        self.attempted = self.failed = 0
        self.checks = defaultdict(lambda: [0, 0, True])  # name -> [passed, attempted, gating]
        self.steps = self.points = self.rounds = 0
        self.runs_total = self.divergent = 0
        self.trigger_sum = 0.0
        self.pool = {}  # tag -> [sum of mean_v, calls] over the rounds
        self.first_q1 = None  # (base, runs, horizon, result) of the first pooled Q1 call
        self.setup_times = []
        self.measured_s = 0.0
        self.q1_band_max = None

    def _traced_config(self, config):
        laws = {}
        for field in ("kappa1", "kappa2"):
            law = getattr(config, field)
            if law is not None:
                laws[field] = dataclasses.replace(
                    law, evaluate=self.tracer.wrap(law.evaluate, f"law.{field}"))
        return dataclasses.replace(config, **laws)

    # -- bookkeeping -------------------------------------------------------

    def call(self, kind, fn, *args):
        """Time one call into the program; a call that raises is counted failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        if self.origin is None:
            self.origin = t0
        try:
            out = fn(*args)
        except Exception:  # the run goes on and reports the failure
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.times[kind].append(time.perf_counter() - t0)
        self.starts[kind].append(t0 - self.origin)
        return out

    def check(self, name, ok, gating=True):
        tally = self.checks[name]
        tally[0] += bool(ok)
        tally[1] += 1
        tally[2] = gating

    def next_base(self, runs):
        base = ((self.seed << 20) + self.mc_calls) * self.width
        self.mc_calls += 1
        # Bases only grow, so the range runs from the first base to the last stream.
        self.seed_range = [self.seed_range[0] if self.seed_range else base, base + runs - 1]
        return base

    # -- calls and their checks -------------------------------------------

    def monte_carlo(self, tag, runs, horizon, pool=False):
        base = self.next_base(runs)
        res = self.call("monte_carlo", self.api.monte_carlo,
                        self.plant, self.configs[tag], horizon, runs, base)
        if res is None:
            return
        self.steps += runs * horizon
        self.runs_total += runs
        self.divergent += res.divergent_runs
        self.trigger_sum += res.overall_trigger_rate * runs
        self.check("mean_v_finite", np.all(np.isfinite(res.mean_v)))
        if tag == "Q1":
            self.check("q1_no_divergent_runs", res.divergent_runs == 0)
        if pool:
            if tag == "Q1" and self.first_q1 is None:
                self.first_q1 = (base, runs, horizon, res)
            acc = self.pool.setdefault(tag, [np.zeros(horizon + 1), 0])
            acc[0] += res.mean_v
            acc[1] += 1

    def curve(self, tag):
        points = self.call("boundary_curve", self.api.boundary_curve, self.setup.curves[tag])
        if points is None:
            return
        self.points += len(points)
        for point in points:
            self.check("curve_closed_vs_bisection", point.discrepancy < 1e-6)
        rho1 = self.setup.families[tag][2]
        star = [pt.alpha_star_closed for pt in points if abs(pt.rho1 - rho1) < 1e-12]
        self.check("alpha_star_reproduced",
                   len(star) == 1 and abs(star[0] - EXPECTED_ALPHA_STAR[tag]) < 1e-3)

    def critical_alpha(self, family, l, n_max, gating):
        scheme, eta, rho1, rho2 = family
        res = self.call("critical_alpha", self.api.critical_alpha, scheme, eta, rho1, rho2, l, n_max)
        if res is not None:
            self.check("critical_alpha_closed_vs_bisection", res.discrepancy < 1e-6, gating)

    def certify(self, family, alpha, q, p):
        """Certify one configuration; returns its effective pmf ``l``."""
        _, eta, rho1, rho2 = family
        l = self.call("effective_availability", self.api.effective_availability, q, p)
        if l is None:
            return None
        spec = self.esac.ContractionSpec(alpha=alpha, rho1=rho1, rho2=rho2, eta=eta)
        report = self.call("certify", self.api.certify, spec, l)
        if report is None:
            return l
        t = np.asarray(report.t_matrix)
        radius = float(np.max(np.abs(np.linalg.eigvals(t))))
        self.check("spectral_radius_vs_eigvals", abs(report.spectral_radius - radius) <= 1e-10,
                   gating=False)
        if abs(radius - 1.0) >= BOUNDARY_BAND:
            self.check("verdict_vs_eigvals", report.certified == (radius < 1.0))
            if report.closed_form is not None:
                self.check("closed_form_sign_vs_eigvals", (report.closed_form < 1.0) == (radius < 1.0))
        if report.certified:
            zeta = np.asarray(report.zeta)
            self.check("certificate_witness", bool(np.all(zeta > 0.0) and np.all(t @ zeta < zeta)))
        return l

    # -- workloads ---------------------------------------------------------
    # A round interleaves the kinds of call at about one-second steps, so
    # that each kind samples the host's drifting speed across the whole run.

    def certify_slice(self, tag):
        """Certify what the Monte Carlo workloads simulate: one curve, its
        grid by direct ``critical_alpha`` calls, ``certify`` at seeded alphas."""
        setup = self.setup
        family = setup.families[tag]
        self.curve(tag)
        spec = setup.curves[tag]
        for rho1 in spec.rho1_grid:
            self.critical_alpha((family[0], family[1], rho1, spec.epsilon * rho1),
                                self.channel_l, setup.n_max, gating=True)
        for _ in range(self.sizes.spec_certs):
            self.certify(family, self.rng_alpha.uniform(1.0, 1.5), setup.q, setup.p)

    def mc_batch_round(self):
        for tag in program.TAGS:
            self.monte_carlo(tag, self.sizes.batch_runs, self.sizes.horizon, pool=True)
            self.certify_slice(tag)

    def mc_long_round(self):
        for i in range(self.sizes.long_calls):
            self.monte_carlo("Q1", self.sizes.long_runs, self.sizes.long_horizon, pool=True)
            self.certify_slice(program.TAGS[i % len(program.TAGS)])

    def certify_round(self):
        for tag in program.TAGS:
            self.curve(tag)
            for _ in range(self.sizes.configs_per_tag):
                family, alpha, q, p, n_max = random_config(self.rng_configs)
                l = self.certify(family, alpha, q, p)
                if l is not None:
                    self.critical_alpha(family, l, n_max, gating=False)
            # Simulate what certify_sweep certifies, at small width.
            self.monte_carlo(tag, self.sizes.companion_runs, self.sizes.horizon)

    def run(self, workload, budget_s=None, rounds=None, probe_setup=False):
        """Rounds until ``budget_s`` is spent or ``rounds`` are done.

        With ``probe_setup``, one set-up probe runs after each round (and more
        after the last, up to ``min_setup_probes``), so set-up time is sampled
        across the run like every other metric.
        """
        one_round = {"mc_batch": self.mc_batch_round, "mc_long": self.mc_long_round,
                     "certify_sweep": self.certify_round}[workload]
        gc.collect()
        start = time.perf_counter()
        while True:
            one_round()
            self.rounds += 1
            self.round_ends.append({kind: len(v) for kind, v in self.times.items()})
            if probe_setup:
                self.setup_times.append(measure_setup())
            if rounds is not None and self.rounds >= rounds:
                break
            if (rounds is None and self.rounds >= self.sizes.min_rounds
                    and time.perf_counter() - start >= budget_s):
                break
        self.measured_s = time.perf_counter() - start
        while probe_setup and len(self.setup_times) < self.sizes.min_setup_probes:
            self.setup_times.append(measure_setup())
        if workload == "mc_batch":
            self.mc_batch_checks()
        return self

    def pooled_terminal(self, tag):
        total, calls = self.pool[tag]
        return total[-1] / calls

    def mc_batch_checks(self):
        if all(tag in self.pool for tag in program.TAGS):
            total, calls = self.pool["Q1"]
            self.q1_band_max = float(total[100:201].max() / calls)  # diagnostic only
            q1 = self.pooled_terminal("Q1")
            for tag in ("Q2", "Q3"):
                self.check(f"{tag.lower()}_terminal_mean_over_10x_q1", self.pooled_terminal(tag) >= 10.0 * q1)
        if self.first_q1 is not None:
            base, runs, horizon, res = self.first_q1
            again = self.call("repeat", self.api.monte_carlo,
                              self.plant, self.configs["Q1"], horizon, runs, base)
            self.check("same_seed_bit_identical", again is not None
                       and np.array_equal(again.mean_v, res.mean_v)
                       and np.array_equal(again.trigger_rate, res.trigger_rate)
                       and again.divergent_runs == res.divergent_runs)
        out = self.call("example1", self.esac.acceptance.run_example1)
        if out is not None:
            records, expected = out
            self.check("example1_traces_bit_equal", all(
                [tuple(b) for b in records[s][0]] == [tuple(b) for b in expected[s][0]]
                and list(records[s][1]) == list(expected[s][1]) for s in ("A1", "A2")))

    # -- results -----------------------------------------------------------

    @property
    def correct(self):
        return self.failed == 0 and all(p == n for p, n, gating in self.checks.values() if gating)

    @property
    def pass_share(self):
        passed = sum(p for p, _, _ in self.checks.values())
        return passed / max(1, sum(n for _, n, _ in self.checks.values()))

    def tail_ms(self, kind, q=99):
        """Median over rounds of each round's ``q``th percentile, in ms.

        The host slows down in bursts of a few seconds; pooled over the run,
        the 99th percentile would mostly measure whether a burst happened.
        Rounds with fewer than 50 calls of ``kind`` are skipped; with fewer
        than three usable rounds (tiny sizes) the whole run is pooled.
        """
        per_round, start = [], 0
        for ends in self.round_ends:
            end = ends.get(kind, 0)
            if end - start >= 50:
                per_round.append(np.percentile(self.times[kind][start:end], q))
            start = end
        if len(per_round) < 3:
            per_round = [np.percentile(self.times[kind], q)]
        return 1e3 * float(statistics.median(per_round))

    def call_time(self):
        return sum(sum(v) for v in self.times.values())

    def diagnostics(self):
        out = {
            "rounds": self.rounds,
            "measured_s": self.measured_s,
            "calls": {kind: len(v) for kind, v in self.times.items()},
            "checks": {name: {"passed": p, "attempted": n, "gating": g}
                       for name, (p, n, g) in sorted(self.checks.items())},
            "fail_share": 1.0 - self.pass_share,
            "run_seed_range": self.seed_range,
            "divergent_runs": self.divergent,
        }
        if self.pool:
            out["pooled_terminal_mean_v"] = {tag: self.pooled_terminal(tag) for tag in self.pool}
        if self.q1_band_max is not None:
            out["q1_band_max_100_200"] = self.q1_band_max
        return out


def end_to_end(bench: Bench) -> dict:
    t = bench.times
    pct = lambda kind, q: float(np.percentile(t[kind], q))  # noqa: E731
    return {
        "setup_s": (statistics.median(bench.setup_times), "s"),
        "steps_per_s": (bench.steps / sum(t["monte_carlo"]), "1/s"),
        "batch_s_p50": (statistics.median(t["monte_carlo"]), "s"),
        "certify_ms_p50": (1e3 * pct("certify", 50), "ms"),
        "certify_ms_p99": (bench.tail_ms("certify"), "ms"),
        "critical_alpha_ms_p50": (1e3 * pct("critical_alpha", 50), "ms"),
        "critical_alpha_ms_p99": (bench.tail_ms("critical_alpha"), "ms"),
        "boundary_points_per_s": (bench.points / sum(t["boundary_curve"]), "1/s"),
        "pass_share": (bench.pass_share, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(bench: Bench, tracer: Tracer, untraced: Bench) -> dict:
    zero = (0, 0.0, 0.0, 0, 0)
    totals = tracer.stats()

    def get(name, scope=None):  # (calls, total_s, self_s), less the tracer's cost
        stat = totals.get(name, zero) if scope is None else tracer.scoped.get((scope, name), zero)
        return tracer.corrected(stat)

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call(name, scale, field=1):
        stat = get(name)
        return scale * ratio(stat[field], stat[0])

    steps = bench.steps
    branches = ("schemes.refill", "schemes.shift", "schemes.clear")
    step_calls = sum(get(b)[0] for b in branches)
    laws = get("law.kappa1")[0] + get("law.kappa2")[0]
    closed = [get(n) for n in ("stability.psi_a2", "stability.omega_a1")]
    alpha = "sweep.critical_alpha"
    boundaries = get(alpha)
    closed_in_boundary = sum(get(n, alpha)[1] for n in ("stability.psi_a2", "stability.omega_a1"))
    mc, traj = get("simulate.monte_carlo"), get("simulate.simulate_trajectory")
    radius_passed, radius_checked, _ = bench.checks.get("spectral_radius_vs_eigvals", (0, 0, False))
    m = {}
    for b in branches:
        m[f"{b}_us"] = (per_call(b, 1e6, field=2), "us")
    for b in branches:
        m[f"{b}_share"] = (ratio(get(b)[0], step_calls), "ratio")
    m["schemes.law_evals_per_step"] = (ratio(laws, steps), "1/step")
    m["schemes.prediction_use_ratio"] = (ratio(tracer.consumed, laws), "ratio")
    m["simulate.self_us_per_step"] = (1e6 * ratio(traj[2], steps), "us")
    m["simulate.trajectory_ms"] = (per_call("simulate.simulate_trajectory", 1e3), "ms")
    m["simulate.reduce_share"] = (ratio(mc[1] - traj[1], mc[1]), "ratio")
    m["simulate.divergent_runs"] = (bench.divergent, "count")
    m["simulate.trigger_rate"] = (ratio(bench.trigger_sum, bench.runs_total), "ratio")
    m["plant.step_us"] = (per_call("plant.step", 1e6, field=2), "us")
    m["plant.step_calls_per_step"] = (ratio(get("plant.step")[0], steps), "1/step")
    m["chain.transition_matrix_us"] = (per_call("chain.transition_matrix", 1e6), "us")
    m["chain.transition_matrix_calls_per_boundary"] = (
        ratio(get("chain.transition_matrix", alpha)[0], boundaries[0]), "1/boundary")
    m["stability.spectral_radius_us"] = (per_call("stability.spectral_radius", 1e6), "us")
    m["stability.spectral_radius_calls_per_boundary"] = (
        ratio(get("stability.spectral_radius", alpha)[0], boundaries[0]), "1/boundary")
    m["stability.closed_form_us"] = (
        1e6 * ratio(sum(c[1] for c in closed), sum(c[0] for c in closed)), "us")
    m["stability.bisection_ms"] = (1e3 * ratio(boundaries[1] - closed_in_boundary, boundaries[0]), "ms")
    m["stability.certify_us"] = (per_call("stability.certify", 1e6), "us")
    m["stability.solve_certificate_us"] = (per_call("stability.solve_certificate", 1e6), "us")
    m["stability.radius_mismatch_share"] = (1.0 - ratio(radius_passed, radius_checked), "ratio")
    m["sweep.boundary_curve_ms"] = (per_call("sweep.boundary_curve", 1e3), "ms")
    m["channel.effective_availability_us"] = (per_call("channel.effective_availability", 1e6), "us")
    m["trace.call_overhead_us"] = (1e6 * (tracer.inner_s + tracer.outer_s), "us")
    m["trace.overhead_share"] = (ratio(bench.call_time(), untraced.call_time()) - 1.0, "ratio")
    return m


def measure_setup() -> float:
    """Seconds from starting a fresh interpreter to its ``ready`` line."""
    script = Path(__file__).with_name("setup_probe.py")
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def metadata(esac) -> dict:
    root = program.ROOT
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((program.SRC / "esac").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "esac": getattr(esac, "__version__", None),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "thread_env_given": GIVEN_THREAD_ENV,
        "thread_env_used": {v: os.environ.get(v) for v in GIVEN_THREAD_ENV},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for bench/smoke.py")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        esac = program.load_esac()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sizes = SMOKE if args.smoke else FULL
    setup = program.build(esac)

    if args.trace:
        # The untraced half sets the plan; the traced replay repeats it exactly.
        untraced = Bench(esac, setup, sizes, args.seed).run(args.workload, budget_s=args.seconds / 2)
        tracer = Tracer()
        tracer.calibrate()
        modules = {name: sys.modules[name] for name in ("esac.simulate", "esac.stability",
                                                         "esac.sweep", "esac.channel")}
        with tracer.patched(modules):
            bench = Bench(esac, setup, sizes, args.seed, tracer).run(
                args.workload, rounds=untraced.rounds)
        metrics = per_layer(bench, tracer, untraced)
    else:
        tracer = None
        bench = Bench(esac, setup, sizes, args.seed).run(
            args.workload, budget_s=args.seconds, probe_setup=True)
        metrics = end_to_end(bench)

    result = {
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "meta": metadata(esac), "setup_s_samples": bench.setup_times, "diagnostics": bench.diagnostics(),
    }
    out_dir = program.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump({**record, "result": result,
                   "calls": {kind: {"start_s": bench.starts[kind], "duration_s": bench.times[kind]}
                             for kind in bench.times},
                   "trace": None if tracer is None else {
                       "stats": tracer.stats(), "consumed": tracer.consumed,
                       "scoped": [[scope, name, stat] for (scope, name), stat in tracer.scoped.items()],
                       "inner_s": tracer.inner_s, "outer_s": tracer.outer_s,
                       "spans": tracer.spans}}, fh)
    print(json.dumps({**record, "record": str(out_path.relative_to(program.ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
