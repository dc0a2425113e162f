"""End-to-end acceptance checks tying certification to simulation.

Each criterion is a function returning a :class:`CriterionResult`; the CLI
``selftest`` subcommand and the pytest acceptance module both run these.
Expected boundary values were hand-derived independently of the library
(dense linear solves on the 4x4 trailing block, see the test suite).
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from .chain import min_buffer_size, transition_matrix
from .channel import ChannelModel, effective_availability
from .schemes import Buffer
from .simulate import PlantModel, SchemeConfig, example_system, monte_carlo
from .stability import ContractionSpec, block_schur_g1, certify, critical_alpha
from .sweep import SweepSpec, boundary_curve

#: Benchmark channel: q = 0.5, uniform unit-grant pmf over 0..4.
BENCH_Q = 0.5
BENCH_P = (0.2, 0.2, 0.2, 0.2, 0.2)
BENCH_N_MAX = 4

#: Hand-derived boundary open-loop bounds of the benchmark configurations
#: (two-law eta=2 and 3, one-law) and of B1 and B2 (eta=2), whose one-slot
#: ``T`` has rank one and boundary ``(1 - rho1 l_coarse - rho2 l_fine) / l0``.
EXPECTED_ALPHA_STAR = {"Q1": 1.35265, "Q2": 1.26609, "Q3": 1.17477, "B1": 1.06667, "B2": 1.29167}


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str


def _bench_channel() -> ChannelModel:
    return ChannelModel(q=BENCH_Q, p=np.array(BENCH_P))


def _bench_config(tag: str):
    """(scheme, eta, rho1, rho2) of one benchmark configuration."""
    return {
        "Q1": ("A2", 2, 0.9, 0.45),
        "Q2": ("A2", 3, 0.9, 0.45),
        "Q3": ("A1", 1, 0.9, 0.9),
        "B1": ("B1", 1, 0.9, 0.9),
        "B2": ("B2", 2, 0.9, 0.45),
    }[tag]


def criterion_boundaries() -> CriterionResult:
    """Boundary open-loop bounds of the benchmark configurations and of B1 and B2."""
    l = _bench_channel().l
    worst = 0.0
    details = []
    for tag, expected in EXPECTED_ALPHA_STAR.items():
        scheme, eta, rho1, rho2 = _bench_config(tag)
        got = critical_alpha(scheme, eta, rho1, rho2, l, BENCH_N_MAX).closed
        worst = max(worst, abs(got - expected))
        details.append(f"{tag}: {got:.5f} (expected {expected})")
    return CriterionResult(1, "boundary reproduction", worst < 1e-3, "; ".join(details))


def random_config(rng: np.random.Generator) -> tuple[ContractionSpec, np.ndarray]:
    """One random configuration of criterion 2: ``(spec, l)``.

    ``n_max`` in 2..8, a uniform channel success probability and a flat
    Dirichlet processor pmf; a quarter of the draws are the one-law scheme
    (``eta = 1``, ``rho2 = rho1``), the rest two-law with any ``eta``.
    """
    n_max = int(rng.integers(2, 9))
    l = effective_availability(rng.uniform(0.0, 1.0), rng.dirichlet(np.ones(n_max + 1)))
    rho1 = rng.uniform(0.01, 0.99)
    rho2 = rho1 * rng.uniform(0.0, 1.0)
    alpha = rng.uniform(0.01, 3.0)
    if rng.random() < 0.25:
        return ContractionSpec(alpha=alpha, rho1=rho1, rho2=rho1, eta=1), l
    eta = int(rng.integers(2, n_max + 1))
    return ContractionSpec(alpha=alpha, rho1=rho1, rho2=rho2, eta=eta), l


def criterion_closed_form_agreement(configs: int = 1000, seed: int = 20240901) -> CriterionResult:
    """Closed-form index sign and witness verdict agree with the
    spectral-radius test, and the witnessed brackets of the benchmark sweep
    grid put the closed-form boundary within 1e-6 of alpha*."""
    rng = np.random.default_rng(seed)
    disagreements = 0
    for _ in range(configs):
        report = certify(*random_config(rng))
        radius = report.spectral_radius
        if abs(radius - 1.0) < 1e-9:
            continue
        if not ((report.closed_form < 1.0) == report.certified == (radius < 1.0)):
            disagreements += 1

    channel = _bench_channel()
    max_gap = 0.0
    for scheme, eta, eps in (("A2", 2, 0.5), ("A2", 3, 0.5), ("A1", 1, 1.0)):
        spec = SweepSpec(scheme=scheme, eta=eta, epsilon=eps, channel=channel, n_max=BENCH_N_MAX)
        for point in boundary_curve(spec):
            max_gap = max(max_gap, point.discrepancy)
    ok = disagreements == 0 and max_gap < 1e-6
    return CriterionResult(
        2,
        "closed-form / spectral agreement",
        ok,
        f"{disagreements} disagreements in {configs} configs; "
        f"max proven |alpha*_closed - alpha*| = {max_gap:.2e}",
    )


def criterion_transition_matrix(steps: int = 100_000, seed: int = 7) -> CriterionResult:
    """Row-stochasticity, one-law reduction and empirical transition match."""
    rng = np.random.default_rng(seed)
    worst_row = 0.0
    for eta in range(1, 7):
        for n_max in range(max(eta, 1), 13):
            l = effective_availability(rng.uniform(0.0, 1.0), rng.dirichlet(np.ones(n_max + 1)))
            worst_row = max(worst_row, np.abs(transition_matrix(l, eta).sum(axis=1) - 1.0).max())

    # One-law structure: l0 on column 1 for the first two rows, then on the
    # superdiagonal folded into l_{i-1}.
    l = _bench_channel().l
    n = BENCH_N_MAX + 1
    expected = np.tile(l, (n, 1))
    expected[2:, 0] = 0.0
    for i in range(2, n):
        expected[i, i - 1] += l[0]
    reduction_ok = np.array_equal(transition_matrix(l, 1), expected)

    # Drive the actual two-law buffer automaton and compare transition
    # frequencies entry-wise at three standard errors.
    eta, n_max = 2, BENCH_N_MAX
    pi = transition_matrix(l, eta)
    plant, kappa1, kappa2_factory = example_system()
    kappa2 = kappa2_factory(0.45)
    f = lambda x, u: plant.step(x, u, 0.0)  # noqa: E731
    buf = Buffer(min_buffer_size("A2", eta, n_max))
    counts = np.zeros((n_max + 1, n_max + 1))
    x = 10.0
    for _ in range(steps):
        i = buf.fine_count * eta + buf.coarse_count
        gamma = 1 if rng.random() < BENCH_Q else 0
        n_units = int(rng.choice(n_max + 1, p=BENCH_P)) if gamma == 1 else 0
        buf.step(x, gamma, n_units, kappa1, kappa2, eta, f)
        counts[i, buf.fine_count * eta + buf.coarse_count] += 1
    row_totals = counts.sum(axis=1)
    empirical_ok = True
    worst_sigma = 0.0
    for i in range(n_max + 1):
        if row_totals[i] == 0:
            empirical_ok = False
            continue
        freq = counts[i] / row_totals[i]
        se = np.sqrt(pi[i] * (1.0 - pi[i]) / row_totals[i])
        for j in range(n_max + 1):
            err = abs(freq[j] - pi[i, j])
            if se[j] == 0.0:
                empirical_ok = empirical_ok and err == 0.0
            else:
                worst_sigma = max(worst_sigma, err / se[j])
                empirical_ok = empirical_ok and err <= 3.0 * se[j]

    ok = worst_row <= 1e-12 and reduction_ok and empirical_ok
    return CriterionResult(
        3,
        "transition-matrix properties",
        ok,
        f"max |row sum - 1| = {worst_row:.1e}; one-law reduction exact: {reduction_ok}; "
        f"empirical match within 3 SE: {empirical_ok} (worst {worst_sigma:.2f} SE)",
    )


def _example1_expected(plant: PlantModel, kappa1, kappa2):
    """Symbolically composed buffers and inputs of the scripted scenario."""
    f = lambda x, u: plant.step(x, u, 0.0)  # noqa: E731
    x0 = plant.x0
    # one-law scheme: three coarse predictions at k=0, shift, refill of two
    v1 = kappa1(x0)
    chi1 = f(x0, v1)
    v2 = kappa1(chi1)
    chi2 = f(chi1, v2)
    v3 = kappa1(chi2)
    a1_x2 = f(f(x0, v1), v2)
    a1_buffers = [
        (v1, v2, v3),
        (v2, v3, 0.0),
        (kappa1(a1_x2), kappa1(f(a1_x2, kappa1(a1_x2))), 0.0),
    ]
    a1_inputs = [v1, v2, kappa1(a1_x2)]
    # two-law scheme: one fine + one coarse entry at k=0, shift, one fine
    w1 = kappa2(x0)
    w2 = kappa1(f(x0, w1))
    a2_x2 = f(f(x0, w1), w2)
    a2_buffers = [(w1, w2, 0.0), (w2, 0.0, 0.0), (kappa2(a2_x2), 0.0, 0.0)]
    a2_inputs = [w1, w2, kappa2(a2_x2)]
    return (a1_buffers, a1_inputs), (a2_buffers, a2_inputs)


def run_example1():
    """Replay the scripted three-step scenario for both buffered schemes.

    Returns ``(records, expected)`` where records hold the simulated per-step
    buffer values (one tuple per step) and inputs for the one-law and two-law
    schemes.
    """
    plant_noisy, kappa1, kappa2_factory = example_system()
    plant = replace(plant_noisy, noise_std=0.0)
    kappa2 = kappa2_factory(0.45)
    forced = [(1, 3), (1, 0), (1, 2)]
    records = {}
    f = lambda x, u: plant.step(x, u, 0.0)  # noqa: E731
    for scheme, fine_law, eta in (("A1", kappa1, 1), ("A2", kappa2, 2)):
        buf = Buffer(3)
        x = plant.x0
        buffers, inputs = [], []
        for gamma, n_units in forced:
            u = buf.step(x, gamma, n_units, kappa1, fine_law, eta, f)
            buffers.append(tuple(buf.values))
            inputs.append(u)
            x = plant.step(x, u, 0.0)
        records[scheme] = (buffers, inputs)
    expected_a1, expected_a2 = _example1_expected(plant, kappa1, kappa2)
    return records, {"A1": expected_a1, "A2": expected_a2}


def criterion_example1(replay=None) -> CriterionResult:
    """Scripted-scenario traces (``replay``, by default a fresh
    :func:`run_example1`) equal their symbolic compositions exactly."""
    records, expected = replay or run_example1()
    ok = True
    for scheme in ("A1", "A2"):
        buffers, inputs = records[scheme]
        exp_buffers, exp_inputs = expected[scheme]
        ok = ok and [tuple(b) for b in buffers] == [tuple(b) for b in exp_buffers]
        ok = ok and inputs == exp_inputs
    return CriterionResult(4, "scripted scenario exactness", ok,
                           "buffer and input traces bit-equal" if ok else "trace mismatch")


def benchmark_scheme_config(tag: str) -> SchemeConfig:
    """Closed-loop configuration of one benchmark point (buffer size 4, d=1)."""
    scheme, eta, rho1, rho2 = _bench_config(tag)
    _, kappa1, kappa2_factory = example_system(rho1)
    return SchemeConfig(
        scheme=scheme, kappa1=kappa1, kappa2=kappa2_factory(rho2), eta=eta,
        buffer_size=4, d=1.0, q=BENCH_Q, p=BENCH_P,
    )


def criterion_monte_carlo(runs: int = 10_000, horizon: int = 200,
                          base_seed: int = 2024) -> CriterionResult:
    """Ordinal separation of the certified and uncertified benchmark loops."""
    plant, _, _ = example_system()
    means = {}
    for tag in ("Q1", "Q2", "Q3"):
        result = monte_carlo(plant, benchmark_scheme_config(tag), horizon, runs, base_seed)
        means[tag] = result.mean_v
    q1_band = means["Q1"][100:201].max()
    q1_end, q2_end, q3_end = (means[t][horizon] for t in ("Q1", "Q2", "Q3"))
    ok = (
        q1_band < 50.0
        and q1_band < q3_end / 10.0
        and q2_end >= 10.0 * q1_end
        and q3_end >= 10.0 * q1_end
    )
    return CriterionResult(
        5,
        "Monte Carlo ordinal separation",
        ok,
        f"Q1 band max {q1_band:.2f}; terminal means Q1 {q1_end:.2f}, "
        f"Q2 {q2_end:.3g}, Q3 {q3_end:.3g}",
    )


def criterion_expectation_bound(runs: int = 1000, horizon: int = 200,
                                base_seed: int = 99) -> CriterionResult:
    """Noise-free certified loop respects the geometric expectation bound."""
    scheme, eta, rho1, rho2 = _bench_config("Q1")
    d = 1.0
    spec = ContractionSpec(alpha=1.35, rho1=rho1, rho2=rho2, eta=eta, d_bound=d)
    report = certify(spec, _bench_channel().l)
    if not report.certified:
        return CriterionResult(6, "expectation bound", False, "benchmark config not certified")
    plant = replace(example_system()[0], noise_std=0.0)
    result = monte_carlo(plant, benchmark_scheme_config("Q1"), horizon, runs, base_seed)
    ks = np.arange(horizon + 1)
    bound = report.c1 * report.xi ** ks * plant.lyapunov(plant.x0) + report.c2
    margin = (bound - result.mean_v).min()
    return CriterionResult(
        6,
        "expectation bound",
        bool(margin >= 0.0),
        f"min bound margin {margin:.3g} (xi={report.xi:.6f}, "
        f"C1={report.c1:.4g}, C2={report.c2:.4g})",
    )


def criterion_block_schur(samples: int = 1000, seed: int = 31) -> CriterionResult:
    """Scalar Schur-complement verdict matches the eigenvalue test."""
    rng = np.random.default_rng(seed)
    disagreements = 0
    checked = 0
    while checked < samples:
        m_dim = int(rng.integers(1, 7))
        raw = rng.uniform(0.0, 1.0, size=(m_dim, m_dim))
        scale = min(1.0 / np.linalg.norm(raw, ord=np.inf),
                    1.0 / math.sqrt(max(np.trace(raw @ raw), 1e-300)))
        m = raw * scale * rng.uniform(0.1, 0.999)
        h = np.empty((m_dim + 1, m_dim + 1))
        h[0, 0] = rng.uniform(0.0, 1.5)
        h[0, 1:] = rng.uniform(0.0, 0.5, m_dim)
        h[1:, 0] = rng.uniform(0.0, 0.5, m_dim)
        h[1:, 1:] = m
        g1, _ = block_schur_g1(h)
        radius = max(abs(np.linalg.eigvals(h)))
        checked += 1
        if abs(radius - 1.0) < 1e-9:
            continue
        if (g1 > 0.0) != (radius < 1.0):
            disagreements += 1
    return CriterionResult(
        7,
        "block Schur test agreement",
        disagreements == 0,
        f"{disagreements} disagreements in {checked} samples",
    )


ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_boundaries,
    criterion_closed_form_agreement,
    criterion_transition_matrix,
    criterion_example1,
    criterion_monte_carlo,
    criterion_expectation_bound,
    criterion_block_schur,
)


def run_all(verbose_print=None) -> list[CriterionResult]:
    """Run every acceptance criterion, optionally printing one line each."""
    results = []
    for fn in ALL_CRITERIA:
        result = fn()
        results.append(result)
        if verbose_print is not None:
            status = "PASS" if result.passed else "FAIL"
            verbose_print(f"[{status}] criterion {result.number}: {result.name}: {result.detail}")
    return results
