import numpy as np
import pytest

from esac.channel import ChannelModel
from esac.sweep import DEFAULT_RHO1_GRID, BoundaryPoint, SweepSpec, boundary_curve

BENCH = ChannelModel(q=0.5, p=np.full(5, 0.2))


class TestSweepSpec:
    def test_default_grid(self):
        assert DEFAULT_RHO1_GRID[0] == 0.05
        assert DEFAULT_RHO1_GRID[-1] == 0.95
        assert len(DEFAULT_RHO1_GRID) == 19
        np.testing.assert_allclose(np.diff(DEFAULT_RHO1_GRID), 0.05, atol=1e-12)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            SweepSpec("A2", 2, 0.5, BENCH, 4, rho1_grid=(0.5, 0.4))
        with pytest.raises(ValueError):
            SweepSpec("A2", 2, 0.5, BENCH, 4, rho1_grid=(0.0, 0.5))
        with pytest.raises(ValueError):
            SweepSpec("A2", 2, 0.5, BENCH, 4, rho1_grid=())

    def test_rejects_bad_epsilon_and_scheme(self):
        with pytest.raises(ValueError):
            SweepSpec("A2", 2, 1.5, BENCH, 4)
        with pytest.raises(ValueError, match="unknown scheme 'C1'"):
            SweepSpec("C1", 1, 0.5, BENCH, 4)

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
