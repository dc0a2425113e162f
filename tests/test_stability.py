import dataclasses
import json
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esac.acceptance import random_config
from esac.chain import jump_table, law_of, min_buffer_size, transition_matrix
from esac.channel import effective_availability
from esac.schemes import resolve
from esac.stability import (
    CERTIFIED,
    NOT_CERTIFIED,
    SCHUR_TOL,
    ContractionSpec,
    _theorem1_bounds,
    block_schur_g1,
    certify,
    critical_alpha,
    solve_certificate,
    spectral_radius,
)
from esac.sweep import DEFAULT_RHO1_GRID

#: The largest float.
BIG = np.finfo(float).max

# Benchmark channel: half availability, uniform deadline pmf over 0..4.
L_BENCH = effective_availability(0.5, [0.2] * 5)

# Frozen oracle ratios (index / alpha) at the benchmark channel, computed
# by an independent dense eigen/solve script and checked against the
# published thresholds to 1e-3.
PSI_PER_ALPHA_Q1 = 0.7392864396452509  # eta=2, rho1=0.9, rho2=0.45
PSI_PER_ALPHA_Q2 = 0.7898341196164967  # eta=3, rho1=0.9, rho2=0.45
OMEGA_PER_ALPHA_Q3 = 0.8512265418572063  # one-law, rho1=0.9


def dense_schur(t, r=1.0):
    """Schur complement of ``T`` at its first entry, ``t00 + t01 z``, and ``z = (r I - T11)^{-1}
    T10``, by one dense solve: the reference for the chain's recursion."""
    z = np.linalg.solve(r * np.eye(len(t) - 1) - t[1:, 1:], t[1:, 0])
    return t[0, 0] + t[0, 1:] @ z, z


def assert_witnessed_bracket(result, scheme, eta, rho1, rho2, l):
    """Check both witnesses of ``critical_alpha``'s bracket against ``T`` as
    ``certify`` builds it, and the bracket against ``numpy.linalg.eigvals``."""
    if scheme in ("A1", "B1"):
        eta, rho2 = 1, rho1
    slots = min_buffer_size(scheme, eta, l.size - 1)
    t_lower, t_upper = (
        certify(ContractionSpec(alpha=a, rho1=rho1, rho2=rho2, eta=eta), l, buffer_size=slots)
        .t_matrix for a in (result.lower, result.upper))
    assert result.lower < result.closed < result.upper
    low, up = result.lower_witness, result.upper_witness
    assert np.all(low > 0.0) and np.all(t_lower @ low < low)
    assert np.all(up >= 0.0) and np.any(up > 0.0) and np.all(t_upper @ up >= up)
    radius = [np.abs(np.linalg.eigvals(t)).max() for t in (t_lower, t_upper)]
    assert radius[0] < 1.0 <= radius[1]
    assert result.discrepancy == max(result.closed - result.lower, result.upper - result.closed)


class TestContractionSpec:
    def test_rejects_rho2_above_rho1(self):
        with pytest.raises(ValueError):
            ContractionSpec(alpha=1.3, rho1=0.5, rho2=0.9, eta=2)

    def test_warns_on_equal_contractions(self):
        with pytest.warns(UserWarning):
            ContractionSpec(alpha=1.3, rho1=0.9, rho2=0.9, eta=2)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            ContractionSpec(alpha=-1.0, rho1=0.9, rho2=0.4, eta=2)

    def test_rejects_eta_below_one(self):
        with pytest.raises(ValueError, match="^eta must be >= 1, got 0$"):
            ContractionSpec(alpha=1.1, rho1=0.9, rho2=0.4, eta=0)


class TestGainDiagonal:
    """``certify``'s Phi: alpha, rho1 and rho2 by :func:`esac.chain.law_of`."""

    def test_two_law_layout(self):
        spec = ContractionSpec(alpha=1.35, rho1=0.9, rho2=0.45, eta=2)
        np.testing.assert_array_equal(
            certify(spec, L_BENCH).phi, [1.35, 0.9, 0.45, 0.45, 0.45]
        )

    def test_eta_three_layout(self):
        spec = ContractionSpec(alpha=1.35, rho1=0.9, rho2=0.45, eta=3)
        np.testing.assert_array_equal(
            certify(spec, L_BENCH).phi, [1.35, 0.9, 0.9, 0.45, 0.45]
        )

    def test_rejects_eta_above_n_max(self):
        spec = ContractionSpec(alpha=1.0, rho1=0.9, rho2=0.4, eta=5)
        for buffer_size in (None, 1):  # refused on the truncated chain too
            with pytest.raises(ValueError, match=r"^eta must satisfy 1 <= eta <= n_max=4, got 5$"):
                certify(spec, L_BENCH, buffer_size=buffer_size)

    def test_certify_words_eta_as_the_scheme_rule(self):
        # The wording of esac.schemes.resolve, which certify (no scheme name) bypasses.
        spec = ContractionSpec(alpha=1.1, rho1=0.9, rho2=0.45, eta=7)
        with pytest.raises(ValueError, match=r"^eta must satisfy 1 <= eta <= n_max=4, got 7$"):
            certify(spec, L_BENCH)


class TestSpectralRadius:
    def test_simple_rank_one(self):
        assert spectral_radius([[0.5, 0.5], [0.25, 0.25]]) == pytest.approx(
            0.75, abs=1e-10
        )

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_stochastic_matrix_is_one(self):
        rng = np.random.default_rng(7)
        m = rng.uniform(0.1, 1.0, (6, 6))
        m /= m.sum(axis=1, keepdims=True)
        assert spectral_radius(m) == pytest.approx(1.0, abs=1e-9)

    def test_periodic_matrix(self):
        # A 2-cycle with no dominant row: the radius is sqrt(2 * 0.5) = 1.
        assert spectral_radius([[0.0, 2.0], [0.5, 0.0]]) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            spectral_radius([[0.5, -0.1], [0.2, 0.3]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))

    @given(
        st.integers(2, 7),
        st.integers(0, 10_000),
        st.floats(0.05, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_eigvals(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        m = scale * rng.uniform(0.0, 1.0, (n, n))
        expected = max(abs(np.linalg.eigvals(m)))
        assert spectral_radius(m) == pytest.approx(expected, rel=1e-8, abs=1e-8)
        # Certification matrices of acceptance criterion 2, whose rows often
        # share their largest sum, which a stopping rule can mistake for
        # convergence.
        for _ in range(20):
            t = certify(*random_config(rng)).t_matrix
            expected = max(abs(np.linalg.eigvals(t)))
            assert spectral_radius(t) == pytest.approx(expected, rel=0.0, abs=1e-10)


class TestCertificate:
    def test_scalar_solve(self):
        # (1 - 0.5) zeta = 1 -> zeta = 2
        np.testing.assert_allclose(solve_certificate([[0.5]], [1.0]), [2.0])

    def test_rejects_unstable(self):
        with pytest.raises(ValueError):
            solve_certificate([[1.0]], [1.0])

    def test_rejects_nonpositive_nu(self):
        with pytest.raises(ValueError):
            solve_certificate([[0.5]], [0.0])

    @pytest.mark.parametrize("t", [[[1.0]], [[1.0 - 1e-12]]])  # singular I - T, then no margin
    def test_no_witness_is_a_linalg_error(self, t):
        with pytest.raises(np.linalg.LinAlgError):
            solve_certificate(t, [1.0])

    @pytest.mark.parametrize("t", [[[np.nan]], [[np.inf]]])
    def test_non_finite_t_is_not_a_linalg_error(self, t):
        with pytest.raises(ValueError, match="^matrix must be entry-wise finite") as exc:
            solve_certificate(t, [1.0])
        assert not isinstance(exc.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("nu", [[np.nan], [np.inf], [-np.inf], [0.0], [-1.0], [1.0, 1.0]])
    def test_malformed_nu_is_not_a_linalg_error(self, nu):
        with pytest.raises(ValueError, match="^nu must be 1 strictly positive finite") as exc:
            solve_certificate([[0.5]], nu)
        assert not isinstance(exc.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("zeta, nu, message", [
        # zeta = 0.5 < nu = 1 is no solution of (I - T) zeta = nu for T >= 0: xi = -1.
        ([0.5], [1.0], "inconsistent certificate: xi=-1.0 outside [0, 1)"),
    ], ids=["zeta below nu"])
    def test_theorem1_rejects_inconsistent_certificate(self, zeta, nu, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _theorem1_bounds(np.array(zeta), nu, sigma_open=1.0, d_bound=1.0)

    def test_theorem1_scalar_case(self):
        # zeta = 2, nu = 1: xi = 0.5, c1 = 1, dbar = max(2, |2*2 - 1|) = 3.
        xi, c1, c2 = _theorem1_bounds(np.array([2.0]), [1.0], sigma_open=2.0, d_bound=1.0)
        assert xi == pytest.approx(0.5)
        assert c1 == pytest.approx(1.0)
        assert c2 == pytest.approx(3.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_bound_constants_well_formed(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 7)
        t = rng.uniform(0.0, 1.0, (n, n))
        t *= 0.9 / max(1e-9, spectral_radius(t))
        nu = rng.uniform(0.5, 2.0, n)
        zeta = solve_certificate(t, nu)
        assert np.all(zeta > 0.0)
        xi, c1, c2 = _theorem1_bounds(zeta, nu, sigma_open=1.5, d_bound=1.0)
        assert 0.0 <= xi < 1.0
        assert c1 >= 1.0
        assert c2 > 0.0


class TestBlockSchur:
    def test_hand_computed_g1(self):
        # X = 0.5, Y = [0.25], Z = [0.5], M = [[0.25]]:
        # g1 = 0.5 - 0.25 * 0.5 / 0.75 = 1/3.
        h = np.array([[0.5, 0.25], [0.5, 0.25]])
        g1, verdict = block_schur_g1(h)
        assert g1 == pytest.approx(1.0 / 3.0)
        assert verdict

    def test_matches_schur_verdict(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = rng.integers(2, 6)
            h = rng.uniform(0.0, 0.6, (n, n))
            h[1:, 1:] *= 0.5 / max(1e-12, np.linalg.norm(h[1:, 1:], ord=np.inf))
            radius = spectral_radius(h)
            if abs(radius - 1.0) < 1e-7:
                continue
            g1, _ = block_schur_g1(h)
            assert (g1 > 0.0) == (radius < 1.0)

    def test_returns_a_python_float_and_bool(self):
        # The annotation's types, so that a verdict can be written as JSON.
        g1, verdict = block_schur_g1([[0.5, 0.25], [0.5, 0.25]])
        assert type(g1) is float and type(verdict) is bool
        assert json.loads(json.dumps([g1, verdict])) == [g1, verdict]

    def test_rejects_expansive_trailing_block(self):
        h = np.array([[0.1, 0.1], [0.1, 1.5]])
        with pytest.raises(ValueError):
            block_schur_g1(h)

    @pytest.mark.parametrize("h, message", [
        ([[0.5]], "h must be square of size >= 2"),
        (np.ones((2, 3)), "h must be square of size >= 2"),
        (np.ones(4), "h must be square of size >= 2"),
        ([[0.1, 0.1], [0.1, -0.2]], "matrix must be entry-wise finite and nonnegative"),
        # Rows of M sum to 0.9 < 1, but trace(M @ M) = 2 * 0.81.
        ([[0.5, 0.1, 0.1], [0.1, 0.9, 0.0], [0.1, 0.0, 0.9]],
         r"trailing block must satisfy trace\(M @ M\) < 1"),
        ([[0.1, 0.1], [np.nan, 0.1]], "matrix must be entry-wise finite and nonnegative"),
        # Off the trailing block: the lemma needs all of h nonnegative, and this h has
        # spectral radius 1.118, where g1 = 2.5 read as Schur stable.
        ([[0.5, -1.0], [1.0, 0.5]], "matrix must be entry-wise finite and nonnegative"),
    ])
    def test_refusals_name_the_condition(self, h, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            block_schur_g1(h)


class TestClosedForms:
    """The closed-form index that ``certify`` reports: psi, or omega at ``eta = 1``."""

    def test_psi_q1_frozen_ratio(self):
        spec = ContractionSpec(alpha=1.0, rho1=0.9, rho2=0.45, eta=2)
        assert certify(spec, L_BENCH).closed_form == pytest.approx(
            PSI_PER_ALPHA_Q1, rel=1e-12
        )

    def test_psi_q2_frozen_ratio(self):
        spec = ContractionSpec(alpha=1.0, rho1=0.9, rho2=0.45, eta=3)
        assert certify(spec, L_BENCH).closed_form == pytest.approx(
            PSI_PER_ALPHA_Q2, rel=1e-12
        )

    def test_omega_q3_frozen_ratio(self):
        spec = ContractionSpec(alpha=1.0, rho1=0.9, rho2=0.9, eta=1)
        assert certify(spec, L_BENCH).closed_form == pytest.approx(
            OMEGA_PER_ALPHA_Q3, rel=1e-12
        )

    def test_psi_linear_in_alpha(self):
        s1 = ContractionSpec(alpha=1.0, rho1=0.9, rho2=0.45, eta=2)
        s2 = ContractionSpec(alpha=1.7, rho1=0.9, rho2=0.45, eta=2)
        assert certify(s2, L_BENCH).closed_form == pytest.approx(
            1.7 * certify(s1, L_BENCH).closed_form, rel=1e-12
        )

    def test_omega_single_slot_buffer(self):
        # n_max = 1, l = [1/2, 1/2], rho1 = 1/2: Omega = (2/3) alpha.
        spec = ContractionSpec(alpha=1.0, rho1=0.5, rho2=0.5, eta=1)
        assert certify(spec, [0.5, 0.5]).closed_form == pytest.approx(
            2.0 / 3.0, rel=1e-12
        )

    def test_closed_form_requires_contractions(self):
        spec = ContractionSpec(alpha=1.0, rho1=1.1, rho2=0.45, eta=2)
        assert certify(spec, L_BENCH).closed_form is None
        spec = ContractionSpec(alpha=1.0, rho1=1.0, rho2=1.0, eta=1)
        assert certify(spec, L_BENCH).closed_form is None

    def test_index_one_exactly_at_perron_root_one(self):
        # At alpha = alpha* the Perron root of T is 1 and so is the index.
        alpha_star = 1.0 / PSI_PER_ALPHA_Q1
        spec = ContractionSpec(alpha=alpha_star, rho1=0.9, rho2=0.45, eta=2)
        assert certify(spec, L_BENCH).closed_form == pytest.approx(1.0, rel=1e-12)


class TestCriticalAlpha:
    @pytest.mark.parametrize(
        "scheme,eta,rho2,expected",
        [
            ("A2", 2, 0.45, 1.0 / PSI_PER_ALPHA_Q1),
            ("A2", 3, 0.45, 1.0 / PSI_PER_ALPHA_Q2),
            ("A1", 1, 0.9, 1.0 / OMEGA_PER_ALPHA_Q3),
        ],
    )
    def test_benchmark_thresholds(self, scheme, eta, rho2, expected):
        result = critical_alpha(scheme, eta, 0.9, rho2, L_BENCH, 4)
        assert result.closed == pytest.approx(expected, rel=1e-12)
        assert result.discrepancy < 1e-6

    def test_published_values_to_three_decimals(self):
        q1 = critical_alpha("A2", 2, 0.9, 0.45, L_BENCH, 4)
        q2 = critical_alpha("A2", 3, 0.9, 0.45, L_BENCH, 4)
        q3 = critical_alpha("A1", 1, 0.9, 0.9, L_BENCH, 4)
        assert q1.closed == pytest.approx(1.35265, abs=1e-3)
        assert q2.closed == pytest.approx(1.26609, abs=1e-3)
        assert q3.closed == pytest.approx(1.17477, abs=1e-3)

    def test_a1_ignores_eta_and_rho2(self):
        a = critical_alpha("A1", 1, 0.9, 0.9, L_BENCH, 4)
        b = critical_alpha("A1", 3, 0.9, 0.2, L_BENCH, 4)
        assert a.closed == b.closed

    def test_a2_eta_one_reduces_to_one_law_in_fine_gain(self):
        # With eta = 1 every stored entry is a fine entry, so the buffered
        # chain is the one-law chain run at the fine contraction.
        a2 = critical_alpha("A2", 1, 0.9, 0.45, L_BENCH, 4)
        a1 = critical_alpha("A1", 1, 0.45, 0.45, L_BENCH, 4)
        assert a2.closed == pytest.approx(a1.closed, rel=1e-12)

    @pytest.mark.parametrize("rho1, rho2", [(1.0, 0.45), (1.2, 0.45), (1.0, 1.0)])
    def test_rejects_contraction_not_below_one(self, rho1, rho2):
        with pytest.raises(ValueError, match="^critical_alpha requires rho1 < 1 and rho2 < 1$"):
            critical_alpha("A2", 2, rho1, rho2, L_BENCH, 4)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme 'C1'"):
            critical_alpha("C1", 1, 0.9, 0.9, L_BENCH, 4)

    @pytest.mark.parametrize("n_max", [3, 5])
    def test_rejects_n_max_off_the_channel(self, n_max):
        with pytest.raises(ValueError, match=rf"n_max={n_max} .* l has 5 entries"):
            critical_alpha("A2", 2, 0.9, 0.45, L_BENCH, n_max)

    @pytest.mark.parametrize("scheme, eta", [("A1", 1), ("A2", 2), ("B2", 2)])
    def test_rejects_l0_zero(self, scheme, eta):
        # With l[0] = 0 no state returns to the empty one, so alpha does not
        # move the Perron root: a ValueError, before any division.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"l\[0\] = 0: .* no stability boundary"):
                critical_alpha(scheme, eta, 0.9, 0.45 if eta > 1 else 0.9,
                               [0.0, 0.2, 0.3, 0.3, 0.2], 4)

    @pytest.mark.parametrize("scheme, eta, rho2, l_coarse, l_fine", [
        ("B1", 1, 0.9, 0.0, 0.4),
        ("B2", 2, 0.45, 0.1, 0.3),
        ("B2", 3, 0.45, 0.2, 0.2),
    ])
    def test_unbuffered_boundaries(self, scheme, eta, rho2, l_coarse, l_fine):
        # One slot: a grant of n units leaves one fine entry if n >= eta and
        # one coarse entry otherwise, so every row of Pi reads
        # (l0, l_coarse, l_fine) on the states it reaches.  T has rank one
        # and its Perron root is alpha l0 + rho1 l_coarse + rho2 l_fine.
        result = critical_alpha(scheme, eta, 0.9, rho2, L_BENCH, 4)
        expected = (1.0 - 0.9 * l_coarse - rho2 * l_fine) / 0.6
        assert result.closed == pytest.approx(expected, rel=1e-12)
        assert result.lower < expected <= result.upper
        assert result.discrepancy < 1e-6
        assert_witnessed_bracket(result, scheme, eta, 0.9, rho2, L_BENCH)

    @pytest.mark.parametrize("seed", range(4))
    def test_bracket_is_witnessed_on_random_configs(self, seed):
        rng = np.random.default_rng([seed, 2])
        for _ in range(50):
            spec, l = random_config(rng)
            for scheme in (("A2", "B2") if spec.eta > 1 else ("A1", "B1")):
                result = critical_alpha(scheme, spec.eta, spec.rho1, spec.rho2, l, l.size - 1)
                assert_witnessed_bracket(result, scheme, spec.eta, spec.rho1, spec.rho2, l)
                assert result.discrepancy < 1e-6

    @pytest.mark.parametrize("scheme", ["A1", "A2", "B1", "B2"])
    def test_matches_the_dense_schur_solve(self, scheme):
        """The chain's recursion against one dense solve per point (:func:`dense_schur`) at
        ``n_max`` 1 to 12, in scalar calls and on 19-point grids, a third of them with
        ``rho2 = 0``: the bounds to 1e-13 and ``[1; z]`` witnesses to 1e-12 relative.  Where a
        zero in ``z`` fails the lower check, the lower witness is ``(I - T(lower))^{-1} 1``.
        That matrix is within about ``SCHUR_TOL`` of singular, so two sound solves of it agree
        only to about 1e9 roundings: 1e-6 there."""
        rng = np.random.default_rng(["A1", "A2", "B1", "B2"].index(scheme) + 40)
        two_law, solved = scheme[1] == "2", 0
        for n_max in range(1, 13):
            l = effective_availability(rng.uniform(0.05, 0.95), rng.dirichlet(np.ones(n_max + 1)))
            eta = int(rng.integers(1, n_max + 1)) if two_law else 1
            epsilon = (0.0 if n_max % 3 == 0 else rng.uniform(0.01, 0.99)) if two_law else 1.0
            for rho1 in (rng.uniform(0.01, 0.99), np.array(DEFAULT_RHO1_GRID)):
                result = critical_alpha(scheme, eta, rho1, epsilon * rho1, l, n_max)
                for g, r1 in enumerate(np.atleast_1d(rho1).tolist()):
                    resolved, slots, r2 = resolve(scheme, eta, None, n_max, r1, epsilon * r1)
                    spec = ContractionSpec(alpha=1.0, rho1=r1, rho2=r2, eta=resolved)
                    t = certify(spec, l, buffer_size=slots).t_matrix
                    closed, lower, upper = (np.atleast_1d(a)[g] for a in result[:3])
                    low, up = (np.atleast_2d(w)[g] for w in result[3:])
                    for r, bound in ((1.0, closed), (1.0 + SCHUR_TOL, upper),
                                     (1.0 - SCHUR_TOL, lower)):
                        assert bound == pytest.approx(r / dense_schur(t, r)[0], rel=1e-13, abs=0)
                    ref = np.append(1.0, dense_schur(t, 1.0 + SCHUR_TOL)[1])
                    assert np.abs(up - ref).max() <= 1e-12 * ref.max()
                    ref, rtol = np.append(1.0, dense_schur(t, 1.0 - SCHUR_TOL)[1]), 1e-12
                    if low[0] != 1.0:  # not [1; z]: the solve
                        t[0] *= lower
                        ref, rtol = np.linalg.solve(np.eye(n_max + 1) - t, np.ones(n_max + 1)), 1e-6
                        solved += 1
                    assert np.abs(low - ref).max() <= rtol * ref.max(), (n_max, r1, epsilon)
        assert (solved > 0) == two_law

    @pytest.mark.parametrize("scheme, eta, rho1, rho2", [
        ("A2", 2, 0.9, 0.0),  # fine rows of T vanish: T is reducible
        ("A2", 3, 0.9, 0.0),
        ("B2", 2, 0.9, 0.0),
        ("A1", 1, 1.0 - 1e-12, 1.0 - 1e-12),  # alpha* -> 1 as rho1 -> 1
        ("A2", 2, 1.0 - 1e-12, 0.0),
    ])
    def test_bracket_edge_cases(self, scheme, eta, rho1, rho2):
        result = critical_alpha(scheme, eta, rho1, rho2, L_BENCH, 4)
        assert_witnessed_bracket(result, scheme, eta, rho1, rho2, L_BENCH)
        assert result.discrepancy < 1e-6
        if rho2 == 0.0:
            # The eigenvector [1; z(r)] has zero entries here, so it proves
            # the upper end but could never pass a strict lower-end check.
            assert np.any(result.upper_witness == 0.0)

    def test_lower_witness_is_the_perron_vector(self):
        """At ``alpha* = 4297.88`` the solve ``(I - T(lower))^{-1} 1`` is about 1e9 times
        ``1``, and its rounding broke row 0 of ``T(lower) w < w``: ``ArithmeticError`` on a
        valid loop.  ``[1; z(1 - SCHUR_TOL)]`` maps to ``(1 - SCHUR_TOL)`` times itself."""
        l = effective_availability(0.9997673875480112, [
            1.976406882948965e-20, 1.864555917732004e-27, 2.4026327413286556e-05,
            0.6456327795775273, 0.3543431940950595])
        result = critical_alpha("A1", 2, 0.9998446938943896, 0.16637393089931887, l, 4)
        assert result.closed == pytest.approx(4297.875475233095, rel=1e-12)
        assert result.lower_witness[0] == 1.0
        assert_witnessed_bracket(result, "A1", 1, 0.9998446938943896, 0.9998446938943896, l)

    def test_failed_bracket_names_the_first_point(self, monkeypatch):
        # With no margin, r = 1 - SCHUR_TOL, 1, 1 + SCHUR_TOL collapse to lower == closed ==
        # upper, which no bracket passes: the first grid point's closed form is named.
        closed = critical_alpha("A2", 2, np.array([0.5, 0.9]), 0.45, L_BENCH, 4).closed
        monkeypatch.setattr("esac.stability.SCHUR_TOL", 0.0)
        with pytest.raises(ArithmeticError, match=re.escape(
                f"no witnessed bracket around the closed-form alpha*={closed[0]}")):
            critical_alpha("A2", 2, np.array([0.5, 0.9]), 0.45, L_BENCH, 4)

    def test_uses_no_eigenvalue_solver(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("critical_alpha called an eigenvalue solver")

        monkeypatch.setattr("esac.stability.spectral_radius", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        result = critical_alpha("A2", 2, 0.9, 0.45, L_BENCH, 4)
        assert result.closed == pytest.approx(1.0 / PSI_PER_ALPHA_Q1, rel=1e-12)
        assert result.discrepancy < 1e-6

    @pytest.mark.parametrize("slots, expected", [
        (1, 16 / 15),  # B1's boundary: a one-slot buffer is the unbuffered scheme
        (2, 2471 / 2190),
        (3, 27607 / 23730),
        (4, 1.0 / OMEGA_PER_ALPHA_Q3),  # the minimum buffer: nothing is cut
    ])
    def test_truncated_one_law_boundaries(self, slots, expected):
        # Exact rationals from Gaussian elimination in fractions on the chain
        # of the states 0..slots that a grant, cut to `slots` entries, reaches.
        spec = ContractionSpec(alpha=1.0, rho1=0.9, rho2=0.9, eta=1)
        index = certify(spec, L_BENCH, buffer_size=slots).closed_form
        assert 1.0 / index == pytest.approx(expected, rel=1e-12)

    def test_buffer_size_builds_the_folded_chain(self):
        """``certify``'s ``buffer_size`` is ``transition_matrix``'s slot count, bit for bit,
        and at the resolved buffer it puts ``critical_alpha``'s closed form on the boundary."""
        rng = np.random.default_rng(27)
        for _ in range(12):
            n_max = int(rng.integers(1, 9))
            l = effective_availability(rng.uniform(0.05, 0.95), rng.dirichlet(np.ones(n_max + 1)))
            rho1 = rng.uniform(0.05, 0.95)
            schemes = [("A1", 1), ("B1", 1)]
            schemes += [(s, eta) for s in ("A2", "B2") for eta in range(1, n_max + 1)]
            for scheme, eta in schemes:
                rho2 = rho1 * (1.0 if eta == 1 else rng.uniform(0.0, 0.99))
                closed = critical_alpha(scheme, eta, rho1, rho2, l, n_max).closed
                spec = ContractionSpec(alpha=closed, rho1=rho1, rho2=rho2, eta=eta)
                phi = np.array([closed, rho1, rho2])[law_of(n_max + 1, eta)]
                resolved = min_buffer_size(scheme, eta, n_max)
                for slots in range(1, resolved + 2):
                    report = certify(spec, l, buffer_size=slots)
                    folded = transition_matrix(l, eta, slots=slots)
                    assert report.phi.tobytes() == phi.tobytes(), (scheme, eta, slots)
                    t = phi[:, None] * folded
                    assert report.t_matrix.tobytes() == t.tobytes(), (scheme, eta, slots)
                    if slots == resolved:
                        assert report.closed_form == pytest.approx(1.0, abs=1e-12)

    def test_boundary_grows_with_the_buffer(self):
        """alpha* is nondecreasing in the buffer size, so an unbuffered scheme
        never has a larger boundary than its buffered twin at equal eta."""
        rng = np.random.default_rng(17)
        for _ in range(200):
            spec, l = random_config(rng)
            n_max = l.size - 1
            at_one = dataclasses.replace(spec, alpha=1.0)
            boundaries = []
            for slots in range(1, min_buffer_size("A2", spec.eta, n_max) + 2):
                alpha_star = 1.0 / certify(at_one, l, buffer_size=slots).closed_form
                report = certify(dataclasses.replace(spec, alpha=alpha_star), l, buffer_size=slots)
                assert report.spectral_radius == pytest.approx(1.0, abs=1e-9), (spec, l, slots)
                boundaries.append(alpha_star)
            assert all(a <= b * (1 + 1e-12) for a, b in zip(boundaries, boundaries[1:])), \
                (spec, l, boundaries)
            unbuffered, buffered = (
                critical_alpha(scheme, spec.eta, spec.rho1, spec.rho2, l, n_max).closed
                for scheme in (("B2", "A2") if spec.eta > 1 else ("B1", "A1")))
            assert unbuffered == pytest.approx(boundaries[0], rel=1e-12)
            assert buffered == pytest.approx(boundaries[-1], rel=1e-12)
            assert unbuffered <= buffered * (1 + 1e-12), (spec, l)


class TestCertify:
    def test_q1_certified_below_threshold(self):
        spec = ContractionSpec(alpha=1.35, rho1=0.9, rho2=0.45, eta=2)
        report = certify(spec, L_BENCH)
        assert report.verdict == CERTIFIED
        assert report.certified
        assert report.spectral_radius < 1.0
        assert report.closed_form == pytest.approx(
            1.35 * PSI_PER_ALPHA_Q1, rel=1e-12
        )
        assert 0.0 <= report.xi < 1.0
        assert report.c1 >= 1.0
        assert report.c2 > 0.0
        assert np.all(report.zeta > 0.0)
        # The untriggered mode applies zero input, so it grows by alpha.
        assert spec.d_bound == 1.0
        assert (report.xi, report.c1, report.c2) == _theorem1_bounds(
            report.zeta, np.ones(5), sigma_open=1.35, d_bound=1.0)

    def test_q1_not_certified_above_threshold(self):
        spec = ContractionSpec(alpha=1.36, rho1=0.9, rho2=0.45, eta=2)
        report = certify(spec, L_BENCH)
        assert report.verdict == NOT_CERTIFIED
        assert not report.certified
        assert report.zeta is None and report.c2 is None
        assert report.closed_form > 1.0

    def test_verdict_agrees_with_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            eta = int(rng.integers(2, 5))
            n_max = int(rng.integers(eta, 8))
            w = rng.uniform(0.1, 1.0, n_max + 1)
            q = rng.uniform(0.2, 1.0)
            l = effective_availability(q, w / w.sum())
            rho1 = rng.uniform(0.3, 0.99)
            spec = ContractionSpec(
                alpha=rng.uniform(0.5, 2.0),
                rho1=rho1,
                rho2=rng.uniform(0.1, rho1),
                eta=eta,
            )
            report = certify(spec, l)
            if report.certified:
                assert np.all(report.zeta > 0.0)
                assert np.all(report.t_matrix @ report.zeta < report.zeta)
            if abs(report.closed_form - 1.0) < 1e-8:
                continue
            assert report.certified == (report.closed_form < 1.0)

    def test_singular_i_minus_t_is_not_certified(self):
        # rho1 = rho2 = alpha = 1 gives T = Pi, which has eigenvalue 1.
        with pytest.warns(UserWarning):
            spec = ContractionSpec(alpha=1.0, rho1=1.0, rho2=1.0, eta=2)
        report = certify(spec, L_BENCH)
        assert report.verdict == NOT_CERTIFIED
        assert report.zeta is None and report.closed_form is None
        assert report.spectral_radius == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("nu", [[np.nan, 1, 1, 1, 1], [np.inf, 1, 1, 1, 1],
                                    [1, 1, -np.inf, 1, 1], [1, 1, 1, 1, 0], [1, -1, 1, 1, 1],
                                    [1, 1, 1, 1], [1] * 6])
    def test_malformed_nu_raises(self, nu):
        # NotCertified means no witness for this nu; a nu that is no weight vector raises.
        spec = ContractionSpec(alpha=1.2, rho1=0.9, rho2=0.45, eta=2)
        with pytest.raises(ValueError, match=r"^nu must be 5 strictly positive finite entries$"):
            certify(spec, L_BENCH, nu=nu)

    @pytest.mark.parametrize("scheme", ["A1", "A2", "B1", "B2"])
    def test_matches_the_general_solve(self, scheme):
        """``certify``'s witness from the chain's structure against ``solve_certificate`` on
        the ``T`` it reports, at every buffer size from 1 to the minimum + 1, with the default
        and a random ``nu``: the same verdict away from the boundary, ``zeta`` to 1e-12
        relative and the closed form to 1e-13 of the dense Schur solve."""
        rng = np.random.default_rng(["A1", "A2", "B1", "B2"].index(scheme))
        verdicts = set()
        for _ in range(40):
            n_max = int(rng.integers(1, 10))
            eta = int(rng.integers(1, n_max + 1)) if scheme[1] == "2" else 1
            rho1 = rng.uniform(0.01, 0.99)
            rho2 = rho1 * rng.uniform(0.0, 1.0) if scheme[1] == "2" else rho1
            spec = ContractionSpec(rng.uniform(0.5, 2.5), rho1, rho2, eta)
            l = effective_availability(rng.uniform(0.05, 1.0), rng.dirichlet(np.ones(n_max + 1)))
            for slots in range(1, min_buffer_size(scheme, eta, n_max) + 2):
                for nu in (None, rng.uniform(0.5, 2.0, n_max + 1)):
                    report = certify(spec, l, nu, slots)
                    weights = np.ones(n_max + 1) if nu is None else nu
                    try:
                        zeta = solve_certificate(report.t_matrix, weights)
                    except np.linalg.LinAlgError:
                        zeta = None
                    if abs(report.spectral_radius - 1.0) >= 1e-9:
                        assert report.certified == (zeta is not None)
                    if report.certified and zeta is not None:
                        np.testing.assert_allclose(report.zeta, zeta, rtol=1e-12, atol=0.0)
                    assert report.closed_form == pytest.approx(
                        dense_schur(report.t_matrix)[0], rel=0.0, abs=1e-13)
                    verdicts.add(report.verdict)
        assert verdicts == {CERTIFIED, NOT_CERTIFIED}

    def test_custom_nu(self):
        spec = ContractionSpec(alpha=1.2, rho1=0.9, rho2=0.45, eta=2)
        nu = [2.0, 1.0, 1.0, 1.0, 0.5]
        report = certify(spec, L_BENCH, nu=nu)
        residual = (np.eye(5) - report.t_matrix) @ report.zeta - nu
        np.testing.assert_allclose(residual, 0.0, atol=1e-12)

    def test_uses_no_eigenvalue_solver(self, monkeypatch):
        spec = ContractionSpec(alpha=1.35, rho1=0.9, rho2=0.45, eta=2)
        expected = spectral_radius(certify(spec, L_BENCH).t_matrix)

        def refuse(*args, **kwargs):
            raise AssertionError("certify called an eigenvalue solver or numpy.linalg")

        monkeypatch.setattr("esac.stability.spectral_radius", refuse)
        for name in ("eigvals", "eig", "solve", "inv", "lstsq", "det"):
            monkeypatch.setattr(np.linalg, name, refuse)
        report = certify(spec, L_BENCH)
        assert report.certified
        assert report.closed_form == pytest.approx(1.35 * PSI_PER_ALPHA_Q1, rel=1e-12)
        assert report.spectral_radius == pytest.approx(expected, rel=0.0, abs=1e-13)


def radius_configs(count: int, seed: int) -> list[tuple]:
    """``count`` ``certify`` arguments ``(spec, l, nu, buffer_size)`` from criterion 2's
    generator, five kinds in turn: as drawn, a truncated buffer, ``rho2 = 0``, ``l[0] = 0``
    and ``alpha = 0``."""
    rng = np.random.default_rng(seed)
    configs = []
    for i in range(count):
        spec, l = random_config(rng)
        kind, slots = i % 5, None
        if kind == 1:
            scheme = "A1" if spec.eta == 1 else "A2"
            slots = int(rng.integers(1, min_buffer_size(scheme, spec.eta, l.size - 1) + 1))
        elif kind == 2:
            spec = dataclasses.replace(spec, rho2=0.0)
        elif kind == 3:
            l = np.concatenate([[0.0], rng.dirichlet(np.ones(l.size - 1))])
        elif kind == 4:
            spec = dataclasses.replace(spec, alpha=0.0)
        configs.append((spec, l, None, slots))
    return configs


#: Configurations whose Perron root is a closed form: ``l0 alpha`` (``l[0] = 1``; no grant
#: with a gain > 0, as ``rho2 = 0`` with only fine grants), ``max(phi)`` (equal gains),
#: ``g.phi`` (``l[0] = 0``) and the one-slot chain, whose ``1 / f`` is linear in ``r``.
DEGENERATE_CONFIGS = [
    (ContractionSpec(1.2, 0.9, 0.9, 1), np.array([1.0, 0.0, 0.0]), None, None),
    (ContractionSpec(0.5, 0.9, 0.45, 2), np.array([1.0, 0.0, 0.0]), None, None),
    (ContractionSpec(1.1, 0.9, 0.0, 2), np.array([0.3, 0.0, 0.7]), None, None),
    (ContractionSpec(0.0, 0.9, 0.0, 2), np.array([0.3, 0.0, 0.7]), None, None),
    (ContractionSpec(0.8, 0.8, 0.8, 1), L_BENCH, None, None),
    (ContractionSpec(1.1, 0.9, 0.45, 2), np.array([0.0, 0.5, 0.5]), None, None),
    (ContractionSpec(1.1, 0.9, 0.9, 1), L_BENCH, None, 1),
]


#: Gains from 1e-300 to the largest float.  The secular equation is solved on ``T / max(phi)``,
#: so no ``f'`` underflows to 0 and no bracket end overflows.
EXTREME_CONFIGS = [
    (ContractionSpec(BIG, BIG, 0.3, 1), L_BENCH, None, None),
    (ContractionSpec(BIG, 1e300, 1e150, 1), np.array([0.5, 1e-310, 0.5 - 1e-310]), None, None),
    (ContractionSpec(1e-300, 1e-300, 1e-300, 1), L_BENCH, None, None),
]


@pytest.mark.parametrize("seed", range(4))
def test_spectral_radius_matches_eigvals(seed):
    """``certify``'s Perron root, from the chain's secular equation, against ``eigvals`` on the
    ``T`` it reports: within 1e-13 of the largest gain on every kind of ``radius_configs``, the
    closed forms and extreme gains."""
    for spec, l, nu, slots in radius_configs(500, seed) + DEGENERATE_CONFIGS + EXTREME_CONFIGS:
        report = certify(spec, l, nu, slots)
        assert report.spectral_radius == pytest.approx(
            spectral_radius(report.t_matrix), rel=0.0, abs=1e-13 * report.phi.max())


def secular_exact(row0: list, phi: list, shift: list, r: Fraction) -> Fraction:
    """``f(r) = g.(r I - A)^{-1} phi`` in exact rationals, for ``A = l0 Phi P`` of the shift map
    ``P`` and ``g = [0, row0[1:]]``, by a dense forward solve of the lower-triangular system."""
    n = len(phi)
    a = [[Fraction(0)] * n for _ in range(n)]
    for i, s in enumerate(shift):
        a[i][s] += row0[0] * phi[i]
    b = []
    for i in range(n):
        assert not any(a[i][i + 1:])  # lower triangular
        b.append((phi[i] + sum(a[i][j] * b[j] for j in range(i))) / (r - a[i][i]))
    return sum(g * x for g, x in zip(row0[1:], b[1:]))


def test_spectral_radius_solves_the_secular_equation_exactly():
    """On ``certify``'s float inputs, in exact rationals: the reported root ``r`` has
    ``f(r (1 - 1e-12)) >= 1 >= f(r (1 + 1e-12))`` or, at ``r = l0 alpha``, no root above it."""
    eps, closed = Fraction(1, 10**12), set()
    for spec, l, nu, slots in radius_configs(45, 7) + DEGENERATE_CONFIGS:
        report = certify(spec, l, nu, slots)
        n = len(report.phi)
        row0 = [Fraction(x) for x in transition_matrix(l, spec.eta, slots)[0].tolist()]
        phi = [Fraction(x) for x in report.phi.tolist()]
        shift = [row[0] for row in jump_table(n, spec.eta, 1)]
        r, low, top = Fraction(report.spectral_radius), row0[0] * phi[0], max(phi)
        assert low * (1 - eps) <= r <= top
        assert secular_exact(row0, phi, shift, r * (1 + eps) or eps * top) <= 1
        if r * (1 - eps) > low:
            assert secular_exact(row0, phi, shift, r * (1 - eps)) >= 1
        closed |= {name for name, hit in (("l0 alpha", r * (1 - eps) <= low), ("max phi", r == top),
                                          ("g.phi", row0[0] == 0)) if hit}
    assert closed == {"l0 alpha", "max phi", "g.phi"}


#: Calls that build a truncated chain, at a channel of ``len(l)`` entries.
TRUNCATED_CALLS = {
    "certify 1 slot": lambda l: certify(ContractionSpec(1.1, 0.9, 0.9, 1), l, buffer_size=1),
    "certify 2 slots": lambda l: certify(ContractionSpec(1.1, 0.9, 0.9, 1), l, buffer_size=2),
    "critical_alpha B1": lambda l: critical_alpha("B1", 1, 0.9, 0.45, l, len(l) - 1),
    "critical_alpha B2": lambda l: critical_alpha("B2", 1, 0.9, 0.45, l, len(l) - 1),
}


@pytest.mark.parametrize("call", list(TRUNCATED_CALLS))
@pytest.mark.parametrize("l", [[0.5, -0.5, 1.0], [0.5, 1.5, -1.0], [0.5, np.inf, -np.inf]],
                         ids=["negative", "above one", "infinite"])
def test_truncated_chain_checks_l_before_it_folds(call, l):
    """The channel rule refuses ``l`` as the caller gave it.  Folding the grants
    first summed ``-0.5`` and ``1.0`` of the one-slot chain into a valid pmf, and
    named ``[0.5, inf, -inf]`` as ``[0.5 nan 0.]``."""
    with pytest.raises(ValueError, match=r"^l entries must lie in \[0, 1\]") as info:
        TRUNCATED_CALLS[call](l)
    assert str(info.value).endswith(f"got {np.array(l)}")


def test_truncated_chain_refuses_a_2d_l_by_name():
    with pytest.raises(ValueError, match="^l must be a 1-D vector"):
        certify(ContractionSpec(1.1, 0.9, 0.9, 1), [[0.5, 0.5], [0.5, 0.5]], buffer_size=1)


def test_certificate_margin():
    # A witness must prove the Perron root below 1 - SCHUR_TOL, not just below 1.
    np.testing.assert_allclose(solve_certificate([[0.5]], [1.0]), [2.0])
    with pytest.raises(ValueError, match="not Schur stable"):
        solve_certificate([[1.0 - 1e-12]], [1.0])


M2 = [[0.5, 0.25], [0.125, 0.5]]
Q1_SPEC = ContractionSpec(alpha=1.2, rho1=0.9, rho2=0.45, eta=2)


def _with(base, index, value):
    a = np.array(base, dtype=float)
    a[index] = value
    return a


#: Each check's input with one entry replaced: the matrix of ``spectral_radius`` and
#: ``solve_certificate``, and the weights of ``solve_certificate`` and ``certify``.
ENTRY_CALLS = {
    "spectral_radius": lambda v: spectral_radius(_with(M2, (0, 1), v)),
    "solve_certificate t": lambda v: solve_certificate(_with(M2, (0, 1), v), np.ones(2)),
    "solve_certificate nu": lambda v: solve_certificate(M2, _with([1.0, 1.0], 1, v)),
    "certify nu": lambda v: certify(Q1_SPEC, L_BENCH, nu=_with(np.ones(5), 2, v)),
}
ENTRIES = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf, "tiny negative": -5e-324, "-0.0": -0.0}
MATRIX = "matrix must be entry-wise finite and nonnegative"
#: What the elementwise checks (``isfinite & >= 0``) did with each entry, None for an accepted one.
ENTRY_REFUSALS = {
    "spectral_radius": dict.fromkeys(ENTRIES, MATRIX) | {"-0.0": None},
    "solve_certificate t": dict.fromkeys(ENTRIES, MATRIX) | {"-0.0": None},
    "solve_certificate nu": dict.fromkeys(ENTRIES, "nu must be 2 strictly positive finite entries"),
    "certify nu": dict.fromkeys(ENTRIES, "nu must be 5 strictly positive finite entries"),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("call", ENTRY_CALLS)
def test_reduction_checks_refuse_as_the_elementwise_ones(call, entry):
    """One ``min`` and one ``max`` per check refuse NaN, both infinities and the smallest
    negative float with the type and message of the elementwise test, and accept -0.0
    where it accepted it."""
    message = ENTRY_REFUSALS[call][entry]
    if message is None:
        ENTRY_CALLS[call](ENTRIES[entry])
        return
    with pytest.raises(ValueError) as info:
        ENTRY_CALLS[call](ENTRIES[entry])
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("shape", [(), (3,), (0,), (2, 3), (1, 0), (1, 2, 2)])
@pytest.mark.parametrize("call", [spectral_radius, lambda m: solve_certificate(m, np.ones(2))],
                         ids=["spectral_radius", "solve_certificate"])
def test_matrix_checks_refuse_a_shape_as_before(call, shape):
    with pytest.raises(ValueError) as info:
        call(np.full(shape, 0.1))
    assert type(info.value) is ValueError
    assert str(info.value) == f"matrix must be square, got shape {shape}"


@pytest.mark.parametrize("shape", [(), (0,), (4,), (6,), (5, 1), (1, 5)])
@pytest.mark.parametrize("call", [lambda nu: solve_certificate(np.full((5, 5), 0.1), nu),
                                  lambda nu: certify(Q1_SPEC, L_BENCH, nu=nu)],
                         ids=["solve_certificate", "certify"])
def test_weight_checks_refuse_a_shape_as_before(call, shape):
    with pytest.raises(ValueError) as info:
        call(np.ones(shape))
    assert type(info.value) is ValueError
    assert str(info.value) == "nu must be 5 strictly positive finite entries"


@pytest.mark.parametrize("call", [spectral_radius, lambda m: solve_certificate(m, np.ones(0))],
                         ids=["spectral_radius", "solve_certificate"])
def test_a_0x0_matrix_is_refused_by_name(call):
    """Before, ``spectral_radius`` leaked numpy's zero-size reduction error and
    ``solve_certificate`` returned an empty witness."""
    with pytest.raises(ValueError, match=r"^matrix must have at least one entry, got shape \(0, 0\)$"):
        call(np.zeros((0, 0)))


def test_theorem1_bounds_are_python_floats():
    assert all(type(v) is float for v in _theorem1_bounds(np.array([2.0, 3.0]), [1.0, 1.0], 1.2, 1.0))


@pytest.mark.parametrize("seed", range(4))
def test_theorem1_holds_on_the_report(seed):
    """Theorem 1's constants satisfy, on every certified report, the relation its geometric
    bound needs: ``T zeta <= xi zeta`` entry-wise, with ``c1 = max(zeta) / min(zeta)``."""
    rng = np.random.default_rng(seed)
    certified = 0
    for _ in range(50):
        report = certify(*random_config(rng))
        if not report.certified:
            continue
        certified += 1
        zeta = report.zeta
        assert np.all(report.t_matrix @ zeta <= (report.xi + 1e-12) * zeta), seed  # rounding of zeta
        assert report.c1 == zeta.max() / zeta.min()
        assert 0.0 < report.c2 < np.inf
        assert all(type(v) is float for v in (report.xi, report.c1, report.c2))
    assert certified >= 10


def test_degenerate_nu_is_refused_not_divided_by():
    """With ``rho2 = 0`` a tiny weight leaves its state's ``zeta`` at the weight itself, so
    ``xi = 1 - 1e-20 / max(zeta)`` rounds to 1: a ``ValueError``, never ``ZeroDivisionError``."""
    spec = ContractionSpec(alpha=1.2, rho1=0.9, rho2=0.0, eta=2)
    with pytest.raises(ValueError, match="^inconsistent certificate") as info:
        certify(spec, L_BENCH, nu=[1.0, 1.0, 1e-20, 1.0, 1.0])
    assert type(info.value) is ValueError
