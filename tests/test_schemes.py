import pytest
from hypothesis import given, strategies as st

from esac.schemes import Buffer, ControlLaw


def linear_plant(x, u):
    return 0.5 * x + u


DOUBLE = ControlLaw(lambda x: 2.0 * x)
NEGATE = ControlLaw(lambda x: -x)


def filled(values, fine_count, coarse_count):
    """A buffer holding ``values`` with the given fine/coarse counts."""
    b = Buffer(len(values))
    b.values[:] = values
    b.fine_count, b.coarse_count = fine_count, coarse_count
    return b


def shift(b):
    # No computation: the law arguments are never evaluated.
    b.step(0.0, 0, 0, DOUBLE, NEGATE, 1, linear_plant)
    return b


class TestBuffer:
    def test_empty(self):
        b = Buffer(3)
        assert tuple(b.values) == (0.0, 0.0, 0.0)
        assert b.counts == (0, 0)
        assert b.values[0] == 0.0

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            Buffer(0)

    def test_shift_consumes_fine_first(self):
        b = filled([1.0, 2.0, 3.0], 2, 1)
        b = shift(b)
        assert tuple(b.values) == (2.0, 3.0, 0.0)
        assert b.counts == (1, 1)
        b = shift(b)
        assert b.counts == (0, 1)
        b = shift(b)
        assert tuple(b.values) == (0.0, 0.0, 0.0)
        assert b.counts == (0, 0)

    def test_shift_empty_is_noop(self):
        b = shift(Buffer(2))
        assert (b.values, b.counts) == ([0.0, 0.0], (0, 0))


class TestControlLaw:
    def test_callable(self):
        assert DOUBLE(3.0) == 6.0
        assert NEGATE(3.0) == -3.0


class TestA1Step:
    """A1: ``eta = 1`` with the coarse law in both law slots."""

    def step(self, b, x, gamma, n):
        return b.step(x, gamma, n, DOUBLE, DOUBLE, 1, linear_plant)

    def test_grant_fills_with_predictions(self):
        # x=1, law u = 2x on plant x' = 0.5x + u:
        # u0 = 2, x1 = 0.5 + 2 = 2.5, u1 = 5, x2 = 1.25 + 5 = 6.25, u2 = 12.5
        b = Buffer(4)
        u = self.step(b, 1.0, gamma=1, n=3)
        assert u == 2.0
        assert tuple(b.values) == (2.0, 5.0, 12.5, 0.0)
        assert b.counts == (3, 0)

    def test_grant_truncates_at_buffer_size(self):
        b = Buffer(2)
        self.step(b, 1.0, gamma=1, n=5)
        assert tuple(b.values) == (2.0, 5.0)
        assert b.counts == (2, 0)

    def test_no_grant_shifts(self):
        b = filled([1.0, 2.0], 2, 0)
        u = self.step(b, 9.0, gamma=1, n=0)
        assert u == 2.0
        assert tuple(b.values) == (2.0, 0.0)

    def test_measurement_loss_shifts(self):
        b = filled([1.0, 2.0], 2, 0)
        u = self.step(b, 9.0, gamma=0, n=0)
        assert u == 2.0

    def test_untriggered_clears(self):
        b = filled([1.0, 2.0], 2, 0)
        u = self.step(b, 0.0, gamma=2, n=0)
        assert u == 0.0
        assert (b.values, b.counts) == ([0.0, 0.0], (0, 0))

    def test_refill_zeroes_stale_tail(self):
        b = filled([7.0, 8.0, 9.0], 3, 0)
        self.step(b, 1.0, gamma=1, n=1)
        assert tuple(b.values) == (2.0, 0.0, 0.0)
        assert b.counts == (1, 0)


class TestA2Step:
    """A2: ``n // eta`` fine entries, then ``n % eta`` coarse ones."""

    def test_grant_splits_fine_then_coarse(self):
        # eta=2, n=5 -> 2 fine entries then 1 coarse entry.
        b = Buffer(4)
        u = b.step(1.0, gamma=1, n=5, kappa1=DOUBLE, kappa2=NEGATE, eta=2, f=linear_plant)
        # fine: u0 = -1, x1 = 0.5 - 1 = -0.5, u1 = 0.5, x2 = -0.25 + 0.5 = 0.25
        # coarse: u2 = 0.5
        assert u == -1.0
        assert tuple(b.values) == (-1.0, 0.5, 0.5, 0.0)
        assert b.counts == (2, 1)

    def test_exact_multiples_give_only_fine(self):
        b = Buffer(4)
        b.step(1.0, gamma=1, n=4, kappa1=DOUBLE, kappa2=NEGATE, eta=2, f=linear_plant)
        assert b.counts == (2, 0)

    def test_truncation_keeps_fine_entries_first(self):
        b = Buffer(2)
        b.step(1.0, gamma=1, n=5, kappa1=DOUBLE, kappa2=NEGATE, eta=2, f=linear_plant)
        assert b.counts == (2, 0)
        assert tuple(b.values) == (-1.0, 0.5)

    def test_small_grant_gives_coarse_only(self):
        b = Buffer(4)
        u = b.step(1.0, gamma=1, n=1, kappa1=DOUBLE, kappa2=NEGATE, eta=3, f=linear_plant)
        assert u == 2.0
        assert b.counts == (0, 1)

    def test_eta_one_matches_a1_with_fine_law(self):
        for n in range(0, 5):
            gamma = 1
            b2, b1 = Buffer(3), Buffer(3)
            u2 = b2.step(2.0, gamma=gamma, n=n, kappa1=DOUBLE, kappa2=NEGATE, eta=1,
                         f=linear_plant)
            u1 = b1.step(2.0, gamma=gamma, n=n, kappa1=NEGATE, kappa2=NEGATE, eta=1,
                         f=linear_plant)
            assert u2 == u1
            assert b2.values == b1.values

    def test_clear_and_shift_branches(self):
        b = filled([7.0, 8.0], 1, 1)
        u = b.step(0.0, gamma=2, n=0, kappa1=DOUBLE, kappa2=NEGATE, eta=2, f=linear_plant)
        assert (u, b.values, b.counts) == (0.0, [0.0, 0.0], (0, 0))
        b = filled([7.0, 8.0], 1, 1)
        u = b.step(5.0, gamma=1, n=0, kappa1=DOUBLE, kappa2=NEGATE, eta=2, f=linear_plant)
        assert u == 8.0
        assert b.counts == (0, 1)


class TestBStep:
    """B1 and B2 are the one-slot buffer; a grant's input lasts one step."""

    def test_b1_applies_coarse_on_any_grant(self):
        b = Buffer(1)

        def b1(x, gamma, n):
            return b.step(x, gamma, n, DOUBLE, DOUBLE, 1, linear_plant)

        assert b1(3.0, 1, 1) == 6.0
        assert b1(3.0, 1, 5) == 6.0
        assert b1(3.0, 1, 0) == 0.0
        assert b1(3.0, 0, 0) == 0.0
        assert b1(3.0, 2, 0) == 0.0

    def test_b2_picks_law_by_grant_size(self):
        b = Buffer(1)

        def b2(x, gamma, n):
            return b.step(x, gamma, n, DOUBLE, NEGATE, 2, linear_plant)

        assert b2(3.0, 1, 2) == -3.0
        assert b2(3.0, 1, 1) == 6.0
        assert b2(3.0, 1, 0) == 0.0
        assert b2(3.0, 0, 0) == 0.0


@given(
    size=st.integers(1, 6),
    n=st.integers(0, 10),
    gamma=st.sampled_from([0, 1, 2]),
    eta=st.integers(1, 4),
    x=st.floats(-10.0, 10.0),
)
def test_a2_counts_invariant(size, n, gamma, eta, x):
    if gamma != 1:
        n = 0
    b = Buffer(size)
    b.step(x, gamma=gamma, n=n, kappa1=DOUBLE, kappa2=NEGATE, eta=eta, f=linear_plant)
    fine, coarse = b.counts
    assert fine + coarse <= size
    if gamma == 1 and n > 0:
        assert fine == min(n // eta, size)
        assert coarse == min(n // eta + n % eta, size) - fine
    else:
        assert b.counts == (0, 0)
