import numpy as np
import pytest
from hypothesis import given, strategies as st

from esac.chain import (
    _grant_row,
    _shift_column,
    jump_table,
    law_of,
    min_buffer_size,
    transition_matrix,
)
from esac.channel import effective_availability
from esac.schemes import Buffer, ControlLaw, resolve
from esac.simulate import SchemeConfig, example_system
from esac.stability import ContractionSpec, certify

L_BENCH = np.array([0.6, 0.1, 0.1, 0.1, 0.1])


def shift_matrix(n_max, eta):
    """The chain when no computation ever arrives: only shifts remain."""
    return transition_matrix(np.eye(n_max + 1)[0], eta)


def state_labels(n_max, eta):
    """``(F, C)`` the stepper records after a grant of ``j`` units, per state ``j``."""
    law = ControlLaw(lambda x: x)
    labels = []
    for j in range(n_max + 1):
        buf = Buffer(n_max)
        buf.step(1.0, 1, j, law, law, eta, lambda x, u: x)
        labels.append(buf.counts)
    return labels


class TestStateSpace:
    """State ``j`` is the buffer after a grant of ``j`` units: ``(j // eta, j % eta)``."""

    def test_two_unit_fine_law(self):
        assert state_labels(4, 2) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]

    def test_unit_cost_puts_everything_in_fine_slot(self):
        assert state_labels(3, 1) == [(0, 0), (1, 0), (2, 0), (3, 0)]

    def test_three_unit_fine_law(self):
        assert state_labels(4, 3) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]

    @pytest.mark.parametrize("n_max,eta", [(0, 1), (4, 0), (-1, 2)])
    def test_rejects_bad_sizes(self, n_max, eta):
        l = np.eye(n_max + 1)[0] if n_max >= 0 else []
        with pytest.raises(ValueError):
            transition_matrix(l, eta)


class TestShiftTarget:
    """Where a shift leads, read from the chain with ``l = (1, 0, ..., 0)``."""

    def test_fine_head_consumed(self):
        assert shift_matrix(4, 2)[4, 2] == 1.0  # (2,0) -> (1,0)

    @pytest.mark.parametrize("eta", [1, 2, 5])
    def test_empty_stays_empty(self, eta):
        assert shift_matrix(5, eta)[0, 0] == 1.0

    def test_coarse_only_consumes_one_coarse(self):
        assert shift_matrix(4, 3)[2, 1] == 1.0  # (0,2) -> (0,1)


class TestTransitionMatrix:
    def test_benchmark_eta2_matrix(self):
        # Matches the worked 5-state example: rows 1-3 are l itself, the
        # no-computation mass of rows 4 and 5 folds onto the shift targets.
        pi = transition_matrix(L_BENCH, 2)
        expected = np.array(
            [
                [0.6, 0.1, 0.1, 0.1, 0.1],
                [0.6, 0.1, 0.1, 0.1, 0.1],
                [0.6, 0.1, 0.1, 0.1, 0.1],
                [0.0, 0.7, 0.1, 0.1, 0.1],
                [0.0, 0.1, 0.7, 0.1, 0.1],
            ]
        )
        np.testing.assert_array_equal(pi, expected)

    def test_one_law_pattern(self):
        l0, l1, l2 = 0.5, 0.3, 0.2
        pi = transition_matrix([l0, l1, l2], 1)
        expected = np.array(
            [[l0, l1, l2], [l0, l1, l2], [0.0, l1 + l0, l2]]
        )
        np.testing.assert_array_equal(pi, expected)

    def test_hand_written_eta3_matrix(self):
        # States (0,0), (0,1), (0,2), (1,0), (1,1).  Shifts: the empty buffer
        # stays empty, (0,1) -> (0,0), the coarse-only (0,2) -> (0,1), and
        # the fine heads (1,0) -> (0,0) and (1,1) -> (0,1).
        l = [0.5, 0.25, 0.125, 0.0625, 0.0625]
        expected = np.array(
            [
                [0.5, 0.25, 0.125, 0.0625, 0.0625],
                [0.5, 0.25, 0.125, 0.0625, 0.0625],
                [0.0, 0.75, 0.125, 0.0625, 0.0625],
                [0.5, 0.25, 0.125, 0.0625, 0.0625],
                [0.0, 0.75, 0.125, 0.0625, 0.0625],
            ]
        )
        np.testing.assert_array_equal(transition_matrix(l, 3), expected)

    @pytest.mark.parametrize("eta", range(1, 7))
    def test_column_one_structure(self, eta):
        rng = np.random.default_rng(eta)
        w = rng.uniform(0.2, 1.0, 8)
        l = w / w.sum()
        pi = transition_matrix(l, eta)
        nonzero_rows = set(np.nonzero(pi[:, 0])[0] + 1)
        expected_rows = {1, 2, eta + 1} if eta > 1 else {1, 2}
        assert nonzero_rows == expected_rows
        for i in sorted(nonzero_rows):
            assert pi[i - 1, 0] == l[0]

    def test_rejects_bad_l(self):
        with pytest.raises(ValueError):
            transition_matrix([0.5, 0.4], 2)
        with pytest.raises(ValueError):
            transition_matrix([1.2, -0.2], 1)

    def test_matrix_is_read_only(self):
        pi = transition_matrix(L_BENCH, 2)
        with pytest.raises(ValueError):
            pi[0, 0] = 0.0


@given(
    eta=st.integers(1, 6),
    weights=st.lists(st.integers(1, 40), min_size=2, max_size=13),
)
def test_rows_always_sum_to_one(eta, weights):
    l = np.array(weights, dtype=float) / sum(weights)
    pi = transition_matrix(l, eta)
    np.testing.assert_allclose(pi.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(pi >= 0.0)
    assert np.all(pi <= 1.0)


def test_min_buffer_size():
    assert min_buffer_size("A1", 1, 4) == 4
    assert min_buffer_size("A2", 2, 4) == 2  # n = 3 computes (1, 1)
    assert min_buffer_size("A2", 3, 4) == 2  # n = 2 and n = 4 compute two entries
    for eta in (1, 2, 3):  # an unbuffered scheme has one slot
        assert min_buffer_size("B1", eta, 4) == min_buffer_size("B2", eta, 4) == 1


@pytest.mark.parametrize("n_max", range(1, 9))
def test_min_buffer_size_is_the_most_entries_a_grant_computes(n_max):
    law = ControlLaw(lambda x: x)
    for eta in range(1, n_max + 1):
        entries = []
        for n in range(n_max + 1):
            buf = Buffer(n_max)  # a grant of n units computes at most n entries
            buf.step(1.0, 1, n, law, law, eta, lambda x, u: x)
            entries.append(sum(buf.counts))
        assert min_buffer_size("A2", eta, n_max) == max(entries), f"eta={eta}"


@pytest.mark.parametrize("n_max", range(1, 9))
def test_jump_table_matches_the_stepper(n_max):
    """From every state a grant reaches, each entry says where ``Buffer.step``
    leaves the buffer after a shift (``n = 0``) or a grant, truncation included,
    and ``law_of`` gives each of these states the law of the stepper's head."""
    law = ControlLaw(lambda x: x)

    def stepped(slots, eta, grants):
        buf = Buffer(slots)
        for n in grants:
            buf.step(1.0, 1, n, law, law, eta, lambda x, u: x)
        head = 2 if buf.fine_count else 1 if buf.coarse_count else 0
        return buf.fine_count * eta + buf.coarse_count, head

    for eta in range(1, n_max + 1):
        for slots in range(1, n_max + 2):
            table = jump_table(n_max + 1, eta, slots)
            laws = law_of(n_max + 1, eta)
            reached = {stepped(slots, eta, [m]): m for m in range(n_max + 1)}
            for (i, head), m in reached.items():
                landed = [stepped(slots, eta, [m, n]) for n in range(n_max + 1)]
                where = f"eta={eta}, slots={slots}, state={i}"
                assert table[i] == [j for j, _ in landed], where
                assert laws[i] == head, where
                assert [laws[j] for j, _ in landed] == [h for _, h in landed], where


def full_table(states, eta, slots):
    """The jump table entry by entry from the state ``i = (F, C) = divmod(i, eta)``:
    no computation consumes a fine head if ``F > 0``, else a coarse one if ``C > 0``;
    a grant of ``n`` units stores ``min(n // eta, slots)`` fine entries, then
    coarse ones up to the slot count."""
    def shifted(i):
        fine, coarse = divmod(i, eta)
        return (fine - 1) * eta + coarse if fine else max(coarse - 1, 0)

    def granted(n):
        fine = min(n // eta, slots)
        return fine * eta + min(n % eta, slots - fine)

    return [[shifted(i), *(granted(n) for n in range(1, states))] for i in range(states)]


@pytest.mark.parametrize("n_max", range(1, 13))
def test_chain_builders_read_one_column_or_row_of_the_full_table(n_max):
    """The chain builders read only the shift column and the grant row: both
    equal column 0 and row 0 of the full table, and ``transition_matrix``
    equals the matrix built from the full table, bit for bit (the truncated
    matrix is checked against the engines' table below)."""
    states = n_max + 1
    l = np.random.default_rng(n_max).dirichlet(np.ones(states))
    for eta in range(1, states):
        for slots in range(1, states + 1):
            table = full_table(states, eta, slots)
            where = f"eta={eta}, slots={slots}"
            assert jump_table(states, eta, slots) == table, where
            assert _grant_row(states, eta, slots) == table[0], where
            assert _shift_column(states, eta) == [row[0] for row in table], where
        pi = np.tile(l, (states, 1))
        pi[:, 0] = 0.0
        for i, row in enumerate(full_table(states, eta, states)):
            pi[i, row[0]] += l[0]
        np.testing.assert_array_equal(transition_matrix(l, eta), pi)


@pytest.mark.parametrize("scheme", ["A1", "A2", "B1", "B2"])
def test_engines_and_certificate_step_one_chain(scheme):
    """The chain that a ``SchemeConfig`` builds once for both Monte Carlo engines is
    the certificate's: Pi read off its jump table is ``transition_matrix`` of the
    resolved buffer, bit for bit, and ``certify``'s Phi is the gain of the law that
    the chain applies in each state, at every ``eta <= n_max`` and every buffer size
    up to one past the minimum, on random channels."""
    rng = np.random.default_rng(29)
    for _ in range(6):
        n_max = int(rng.integers(1, 9))
        q, p = rng.uniform(0.05, 0.95), tuple(rng.dirichlet(np.ones(n_max + 1)).tolist())
        l = effective_availability(q, p)
        rho1 = rng.uniform(0.05, 0.95)
        _, kappa1, factory = example_system(rho1)
        kappa2 = factory(rho1 * rng.uniform(0.0, 0.99))
        for eta in range(1, n_max + 1):
            for size in range(1, min_buffer_size(scheme, eta, n_max) + 2):
                config = SchemeConfig(scheme, kappa1, kappa2, eta, size, 1.0, q, p)
                table, heads, laws, chain_eta, _ = config._chain
                _, slots, _ = resolve(scheme, eta, size, n_max)
                where = f"n_max={n_max}, eta={eta}, size={size}"
                pi = np.zeros((n_max + 1, n_max + 1))
                for i, row in enumerate(table):
                    for n in [*range(1, n_max + 1), 0]:
                        pi[i, row[n]] += l[n]
                assert pi.tobytes() == transition_matrix(l, chain_eta, slots).tobytes(), where
                gains = [1.2, laws[1].contraction, laws[2].contraction]
                spec = ContractionSpec(*gains, eta=chain_eta)
                phi = certify(spec, l, buffer_size=slots).phi
                assert phi.tobytes() == np.array(gains)[heads].tobytes(), where


@given(
    eta=st.integers(1, 6),
    weights=st.lists(st.integers(1, 40), min_size=2, max_size=13),
    extra=st.integers(0, 3),
)
def test_fold_is_the_identity_from_the_minimum_buffer(eta, weights, extra):
    l = np.array(weights, dtype=float) / sum(weights)
    eta = min(eta, l.size - 1)
    slots = min_buffer_size("A2", eta, l.size - 1) + extra
    np.testing.assert_array_equal(transition_matrix(l, eta, slots=slots), transition_matrix(l, eta))


def test_one_law_chain_of_two_slots():
    # Grants of 3 and 4 units are cut to two entries and land in state 2;
    # states 3 and 4 are never entered.
    expected = np.array([
        [0.6, 0.1, 0.3, 0.0, 0.0],
        [0.6, 0.1, 0.3, 0.0, 0.0],
        [0.0, 0.7, 0.3, 0.0, 0.0],
        [0.0, 0.1, 0.9, 0.0, 0.0],
        [0.0, 0.1, 0.3, 0.6, 0.0],
    ])
    pi = transition_matrix(L_BENCH, 1, slots=2)
    np.testing.assert_allclose(pi, expected, rtol=0, atol=1e-15)
