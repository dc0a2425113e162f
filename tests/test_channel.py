import numpy as np
import pytest
from hypothesis import given, strategies as st

from esac.chain import transition_matrix
from esac.channel import ChannelModel, effective_availability
from esac.simulate import SchemeConfig, example_system, monte_carlo, simulate_trajectory
from esac.stability import ContractionSpec, certify


def test_effective_availability_uniform_half():
    l = effective_availability(0.5, [0.2, 0.2, 0.2, 0.2, 0.2])
    np.testing.assert_allclose(l, [0.6, 0.1, 0.1, 0.1, 0.1], atol=1e-15)


def test_perfect_channel_keeps_pmf():
    p = [0.3, 0.3, 0.4]
    np.testing.assert_array_equal(effective_availability(1.0, p), p)


def test_all_dropouts_never_computes():
    np.testing.assert_allclose(effective_availability(0.0, [0.25, 0.25, 0.5]), [1.0, 0.0, 0.0])


@pytest.mark.parametrize("q", [-0.1, 1.1, float("nan")])
def test_rejects_bad_q(q):
    with pytest.raises(ValueError):
        effective_availability(q, [0.5, 0.5])


def test_rejects_pmf_not_summing_to_one():
    with pytest.raises(ValueError, match="sum"):
        effective_availability(0.5, [0.5, 0.4])


def test_rejects_pmf_entry_out_of_range():
    with pytest.raises(ValueError):
        effective_availability(0.5, [-0.1, 0.6, 0.5])
    with pytest.raises(ValueError):
        effective_availability(0.5, [1.5, -0.5])


def test_accepts_pmf_entry_equal_to_one():
    # a processor that never grants: every step is a miss, whatever q is
    np.testing.assert_array_equal(effective_availability(0.5, [1.0, 0.0]), [1.0, 0.0])


def test_rejects_empty_pmf():
    with pytest.raises(ValueError):
        effective_availability(0.5, [])


@given(
    q=st.floats(0.0, 1.0),
    weights=st.lists(st.integers(1, 50), min_size=2, max_size=9),
)
def test_effective_pmf_is_a_pmf(q, weights):
    p = np.array(weights, dtype=float) / sum(weights)
    l = effective_availability(q, p)
    assert l.size == p.size
    assert np.all(l >= 0.0)
    assert abs(l.sum() - 1.0) < 1e-12
    assert l[0] == pytest.approx(p[0] * q + (1 - q), abs=1e-15)


def test_channel_model_derives_l_and_n_max():
    ch = ChannelModel(q=0.5, p=np.array([0.2] * 5))
    assert ch.n_max == 4
    np.testing.assert_allclose(ch.l, [0.6, 0.1, 0.1, 0.1, 0.1], atol=1e-15)
    with pytest.raises(ValueError):
        ch.l[0] = 0.5  # derived vector is read-only


def test_channel_model_copies_the_callers_array():
    arr = np.array([0.2] * 5)
    ch = ChannelModel(q=0.5, p=arr)
    assert ch.p is not arr
    assert arr.flags.writeable
    arr[0] = 0.3
    assert ch.p[0] == 0.2


@pytest.mark.parametrize("q, p, valid", [
    (0.5, (0, 0, 1), True),
    (1.0, (0, 1), True),
    (0.0, (1.0,), False),  # n_max = 0: a processor that never computes
    (0.5, (0.2,) * 5, True),
    (0.5, (2,) * 5, False),  # unnormalised: refused, never renormalised
    (0.5, (0.5, 0.4), False),
    (0.5, (0.5, float("nan")), False),
    (0.5, (-0.1, 0.6, 0.5), False),
    (1.5, (0.5, 0.5), False),
    (0.5, (), False),
])
def test_one_channel_rule_for_every_layer(q, p, valid):
    _, kappa1, _ = example_system()

    def accepts(make):
        try:
            make()
        except ValueError:
            return False
        return True

    assert accepts(lambda: ChannelModel(q=q, p=p)) is valid
    assert accepts(lambda: SchemeConfig(scheme="A1", kappa1=kappa1, kappa2=None, eta=1,
                                        buffer_size=2, d=1.0, q=q, p=p)) is valid


def test_one_entry_channel_is_refused_by_name():
    # n_max = 0: a processor that never computes, in p or in l
    with pytest.raises(ValueError, match=r"^p must be a 1-D vector of at least two entries"):
        effective_availability(0.5, (1.0,))
    with pytest.raises(ValueError, match=r"^l must be a 1-D vector of at least two entries"):
        transition_matrix((1.0,), 1)


def test_certify_and_monte_carlo_take_the_same_channel():
    # A processor that always grants 2 units: l = (0.5, 0, 0.5).
    channel = ChannelModel(q=0.5, p=(0, 0, 1))
    np.testing.assert_array_equal(channel.l, [0.5, 0.0, 0.5])
    report = certify(ContractionSpec(alpha=1.1, rho1=0.9, rho2=0.9, eta=1), channel.l)
    assert report.certified
    assert report.spectral_radius == pytest.approx(0.952769256907, abs=1e-12)
    plant, kappa1, _ = example_system()
    config = SchemeConfig(scheme="A1", kappa1=kappa1, kappa2=None, eta=1, buffer_size=2,
                          d=1.0, q=channel.q, p=tuple(channel.p))
    assert set(simulate_trajectory(plant, config, 200, seed=1).n) == {0, 2}
    for runs in (4, 32):  # the per-run loop and the batched engine
        result = monte_carlo(plant, config, 50, runs, 1)
        assert result.divergent_runs == 0
        assert np.all(np.isfinite(result.mean_v))
