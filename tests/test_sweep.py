import warnings

import numpy as np
import pytest

from esac.channel import ChannelModel
from esac.stability import critical_alpha
from esac.sweep import DEFAULT_RHO1_GRID, BoundaryPoint, SweepSpec, boundary_curve

BENCH = ChannelModel(q=0.5, p=np.full(5, 0.2))


class TestSweepSpec:
    def test_default_grid(self):
        assert DEFAULT_RHO1_GRID[0] == 0.05
        assert DEFAULT_RHO1_GRID[-1] == 0.95
        assert len(DEFAULT_RHO1_GRID) == 19
        np.testing.assert_allclose(np.diff(DEFAULT_RHO1_GRID), 0.05, atol=1e-12)

    def test_specs_compare_and_hash_by_identity(self):
        """Both hold arrays, whose ``==`` has no single truth value: they compare and hash
        as objects, so neither raises and equal fields are still two specs."""
        channels = [ChannelModel(q=0.5, p=[0.2] * 5) for _ in range(2)]
        specs = [SweepSpec("A2", 2, 0.5, c, 4) for c in channels]
        for a, b in (channels, specs):
            assert a == a and a != b
            assert hash(a) == hash(a)
            assert len({a, b, a}) == 2

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            SweepSpec("A2", 2, 0.5, BENCH, 4, rho1_grid=(0.5, 0.4))
        with pytest.raises(ValueError):
            SweepSpec("A2", 2, 0.5, BENCH, 4, rho1_grid=(0.0, 0.5))
        with pytest.raises(ValueError, match="^rho1 grid must have at least one entry$"):
            SweepSpec("A2", 2, 0.5, BENCH, 4, rho1_grid=())

    def test_rejects_bad_epsilon_and_scheme(self):
        with pytest.raises(ValueError):
            SweepSpec("A2", 2, 1.5, BENCH, 4)
        with pytest.raises(ValueError, match="unknown scheme 'C1'"):
            SweepSpec("C1", 1, 0.5, BENCH, 4)

    @pytest.mark.parametrize("scheme", ["A1", "B1"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.5])
    def test_one_law_scheme_refuses_epsilon_below_one(self, scheme, epsilon):
        # It used to run the coarse law in the fine law's place and return the epsilon = 1 curve.
        with pytest.raises(ValueError, match=rf"^scheme {scheme} runs the coarse law only: "
                                             rf"epsilon={epsilon} must be 1$"):
            SweepSpec(scheme, 1, epsilon, BENCH, 4)

    @pytest.mark.parametrize("n_max", [3, 5])
    def test_rejects_n_max_off_the_channel(self, n_max):
        with pytest.raises(ValueError, match=rf"n_max={n_max} .* l has 5 entries"):
            SweepSpec("A2", 2, 0.5, BENCH, n_max)


class TestBoundaryCurve:
    def test_benchmark_point_on_curve(self):
        spec = SweepSpec("A2", 2, 0.5, BENCH, 4, rho1_grid=(0.9,))
        [pt] = boundary_curve(spec)
        assert pt.rho1 == 0.9
        assert pt.alpha_star_closed == pytest.approx(1.35265, abs=1e-3)
        assert pt.discrepancy < 1e-6

    def test_methods_agree_along_default_grid(self):
        spec = SweepSpec("A1", 1, 1.0, BENCH, 4)
        for pt in boundary_curve(spec):
            assert isinstance(pt, BoundaryPoint)
            assert pt.discrepancy < 1e-6

    def test_a2_eta_one_full_epsilon_equals_a1(self):
        grid = (0.3, 0.6, 0.9)
        a2 = boundary_curve(SweepSpec("A2", 1, 1.0, BENCH, 4, rho1_grid=grid))
        a1 = boundary_curve(SweepSpec("A1", 1, 1.0, BENCH, 4, rho1_grid=grid))
        for p2, p1 in zip(a2, a1):
            assert p2.alpha_star_closed == pytest.approx(p1.alpha_star_closed, rel=1e-12)

    def test_b1_curve_is_rank_one(self):
        # One slot: rho(T) = alpha l0 + rho1 (1 - l0) with l0 = 0.6.
        for pt in boundary_curve(SweepSpec("B1", 1, 1.0, BENCH, 4)):
            assert pt.alpha_star_closed == pytest.approx((1.0 - 0.4 * pt.rho1) / 0.6, rel=1e-12)
            assert pt.discrepancy < 1e-6

    def test_threshold_decreases_with_rho1(self):
        # A weaker coarse law leaves less room for open-loop growth.
        spec = SweepSpec("A1", 1, 1.0, BENCH, 4)
        alphas = [pt.alpha_star_closed for pt in boundary_curve(spec)]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))

    def test_small_rho1_limit(self):
        # As both laws become exact deadbeat the threshold approaches
        # 1 / l[0] (growth has to be beaten by the no-computation odds).
        spec = SweepSpec("A1", 1, 1.0, BENCH, 4, rho1_grid=(1e-6,))
        [pt] = boundary_curve(spec)
        assert pt.alpha_star_closed == pytest.approx(1.0 / BENCH.l[0], rel=1e-4)

    def test_smaller_epsilon_raises_threshold(self):
        grid = (0.5, 0.9)
        tight = boundary_curve(SweepSpec("A2", 2, 0.3, BENCH, 4, rho1_grid=grid))
        loose = boundary_curve(SweepSpec("A2", 2, 0.9, BENCH, 4, rho1_grid=grid))
        for t, lo in zip(tight, loose):
            assert t.alpha_star_closed > lo.alpha_star_closed


def random_channels(count=50, seed=23):
    """Criterion 2's channels (a uniform ``q``, a flat Dirichlet ``p``) with
    ``n_max = 1 .. 12`` in turn, each with a short random grid."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n_max = 1 + k % 12
        channel = ChannelModel(rng.uniform(0.0, 1.0), rng.dirichlet(np.ones(n_max + 1)))
        yield channel, tuple(np.sort(rng.uniform(0.01, 0.99, 3)).tolist()), rng.uniform()


def curve_cases():
    cases = [(BENCH, DEFAULT_RHO1_GRID, 0.37)] + list(random_channels())
    for channel, grid, epsilon in cases:
        n_max = channel.n_max
        for scheme in ("A1", "B1"):  # a one-law curve takes epsilon = 1 only
            yield SweepSpec(scheme, 1, 1.0, channel, n_max, rho1_grid=grid)
        schemes = [(s, eta) for s in ("A2", "B2") for eta in range(1, n_max + 1)]
        for (scheme, eta), eps in ((c, e) for c in schemes for e in (0.0, 1.0, epsilon)):
            yield SweepSpec(scheme, eta, eps, channel, n_max, rho1_grid=grid)


class TestCurveEqualsItsPoints:
    """One ``critical_alpha`` call over a grid gives, bit for bit, what a
    scalar call gives at each of its points."""

    def test_every_point_and_witness_is_the_scalar_one(self):
        with warnings.catch_warnings():  # A2 and B2 at epsilon = 1 warn; the warning is tested below
            warnings.simplefilter("ignore", UserWarning)
            for spec in curve_cases():
                args = spec.scheme, spec.eta
                rho1 = np.array(spec.rho1_grid)
                grid = critical_alpha(*args, rho1, spec.epsilon * rho1, spec.channel.l, spec.n_max)
                curve = boundary_curve(spec)
                assert [pt.rho1 for pt in curve] == list(spec.rho1_grid)
                for g, pt in enumerate(curve):
                    one = critical_alpha(*args, pt.rho1, spec.epsilon * pt.rho1,
                                         spec.channel.l, spec.n_max)
                    where = f"{spec.scheme} eta={spec.eta} eps={spec.epsilon} rho1={pt.rho1}"
                    assert all(type(v) is float for v in pt), where
                    assert pt[1:] == (one.closed, one.lower, one.upper), where
                    assert np.array_equal(grid.lower_witness[g], one.lower_witness), where
                    assert np.array_equal(grid.upper_witness[g], one.upper_witness), where

    def test_shapes_and_scalar_types(self):
        l, grid = BENCH.l, np.array([0.3, 0.6, 0.9])
        res = critical_alpha("A2", 2, grid, 0.5 * grid, l, 4)
        assert [np.shape(a) for a in res] == [(3,), (3,), (3,), (3, 5), (3, 5)]
        one = critical_alpha("A2", 2, 0.9, 0.45, l, 4)
        assert all(isinstance(v, float) for v in one[:3])
        assert one.lower_witness.shape == one.upper_witness.shape == (5,)
        # a scalar rho2 broadcasts over the rho1 grid, as in a numpy ufunc
        np.testing.assert_array_equal(critical_alpha("A2", 2, grid, 0.25, l, 4).closed,
                                      critical_alpha("A2", 2, grid, np.full(3, 0.25), l, 4).closed)

    def test_grids_of_different_lengths_are_refused(self):
        with pytest.raises(ValueError):
            critical_alpha("A2", 2, np.array([0.5, 0.6]), np.array([0.1, 0.2, 0.3]), BENCH.l, 4)

    def test_first_failing_point_names_the_error(self):
        # Point 1 breaks rho2 <= rho1 and point 2 rho1 < 1: the error is point 1's.
        with pytest.raises(ValueError, match=r"rho2=0\.7 > rho1=0\.6"):
            critical_alpha("A2", 2, np.array([0.5, 0.6, 1.5]), np.array([0.1, 0.7, 0.2]),
                           BENCH.l, 4)

    def test_no_boundary_when_l0_is_zero_and_no_numpy_warning(self):
        channel = ChannelModel(q=1.0, p=(0.0, 0.5, 0.5))
        with pytest.raises(ValueError) as scalar:
            critical_alpha("A2", 1, 0.9, 0.45, channel.l, 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as curve:
                boundary_curve(SweepSpec("A2", 1, 0.5, channel, 2))
        assert str(curve.value) == str(scalar.value)
        assert str(scalar.value).startswith("l[0] = 0")
        assert caught == []

    def test_equal_laws_still_warn(self):
        with pytest.warns(UserWarning, match="rho2 == rho1: fine law is no better than coarse"):
            boundary_curve(SweepSpec("A2", 2, 1.0, BENCH, 4))


#: ``float.hex`` of ``(closed, lower, upper)`` at rho1 = 0.9 for Q1, Q2 and Q3 on
#: the benchmark channel, as the per-point code computed them: the sweep CSV's
#: 12 significant digits would hide a change in the last bit.
PINNED = {
    ("A2", 2, 0.5): ("0x1.5a47a47a47a47p+0", "0x1.5a47a472b3934p+0", "0x1.5a47a481dbb5cp+0"),
    ("A2", 3, 0.5): ("0x1.441e6274360f9p+0", "0x1.441e626c2e5ccp+0", "0x1.441e627c3dc28p+0"),
    ("A1", 1, 1.0): ("0x1.2cbe149d1600cp+0", "0x1.2cbe149257580p+0", "0x1.2cbe14a7d4a9bp+0"),
}


@pytest.mark.parametrize("scheme, eta, epsilon", PINNED, ids=["Q1", "Q2", "Q3"])
def test_benchmark_boundaries_are_pinned_to_the_bit(scheme, eta, epsilon):
    one = critical_alpha(scheme, eta, 0.9, epsilon * 0.9, BENCH.l, 4)
    [pt] = [pt for pt in boundary_curve(SweepSpec(scheme, eta, epsilon, BENCH, 4)) if pt.rho1 == 0.9]
    expected = PINNED[scheme, eta, epsilon]
    assert tuple(float(v).hex() for v in one[:3]) == expected
    assert tuple(v.hex() for v in pt[1:]) == expected


def test_every_solve_reads_the_same_on_numpy_1_and_2(monkeypatch):
    # numpy 1.x reads a right side of rank ``a.ndim - 1`` as a stack of vectors and
    # numpy 2 as one matrix; a right side of a's own rank is a matrix on both.
    solve, ranks = np.linalg.solve, []

    def checked(a, b):
        ranks.append((np.ndim(a), np.ndim(b)))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", checked)
    grid = np.array(DEFAULT_RHO1_GRID)
    for n_max in (1, 2, 4):
        l = ChannelModel(q=0.5, p=np.full(n_max + 1, 1.0 / (n_max + 1))).l
        critical_alpha("A2", 1, 0.9, 0.45, l, n_max)
        critical_alpha("A2", 1, grid, 0.5 * grid, l, n_max)
    assert ranks and all(ra == rb for ra, rb in ranks), ranks
