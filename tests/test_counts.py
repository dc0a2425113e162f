"""One count rule: every entry point takes ``eta``, buffer sizes, ``n_max``,
horizons and run counts through ``esac.schemes._as_count``, so a numpy
integer runs as the equal ``int`` and a non-integer is refused by name.
One real-number rule: every real parameter goes through ``esac.schemes._as_real``,
which refuses a flag or a non-number by name."""
import dataclasses

import numpy as np
import pytest

from esac.chain import jump_table, transition_matrix
from esac.channel import ChannelModel, effective_availability
from esac.schemes import Buffer, resolve
from esac.simulate import SchemeConfig, example_system, monte_carlo, simulate_trajectory
from esac.stability import ContractionSpec, certify, critical_alpha
from esac.sweep import SweepSpec, boundary_curve

P = (0.2,) * 5
L = effective_availability(0.5, P)
NOT_COUNTS = [2.5, 4.0, np.float64(2.0), True, np.True_]


def channel(n_max):
    """The uniform channel with ``n_max + 1`` grant sizes."""
    return effective_availability(0.5, [1.0 / (n_max + 1)] * (n_max + 1))


def scheme_config(eta=2, buffer_size=3, scheme="A2"):
    plant, kappa1, kappa2_factory = example_system()
    return plant, SchemeConfig(scheme=scheme, kappa1=kappa1, kappa2=kappa2_factory(0.45),
                               eta=eta, buffer_size=buffer_size, d=1.0, q=0.5, p=P)


def run_monte_carlo(runs=4, horizon=20):
    return monte_carlo(*scheme_config(), horizon, runs, 7)


#: (entry point, count) -> a call that passes ``value`` as that count.
CALLS = {
    ("resolve", "n_max"): lambda v: resolve("A2", 2, 3, v),
    ("resolve", "eta"): lambda v: resolve("A2", v, 3, 4),
    ("resolve one-law", "eta"): lambda v: resolve("A1", v, 3, 4),
    ("resolve", "buffer_size"): lambda v: resolve("A2", 2, v, 4),
    # the minimum buffer size: the slot count that resolve derives for buffer_size=None
    ("min_buffer_size", "n_max"): lambda v: resolve("A2", 2, None, v)[1],
    ("min_buffer_size", "eta"): lambda v: resolve("A2", v, None, 4)[1],
    ("Buffer", "buffer size"): Buffer,
    ("ContractionSpec", "eta"): lambda v: ContractionSpec(alpha=1.2, rho1=0.9, rho2=0.45, eta=v),
    ("certify", "eta"): lambda v: certify(
        ContractionSpec(alpha=1.2, rho1=0.9, rho2=0.45, eta=v), L),
    ("certify", "buffer_size"): lambda v: certify(
        ContractionSpec(alpha=1.2, rho1=0.9, rho2=0.45, eta=2), L, buffer_size=v),
    ("transition_matrix", "eta"): lambda v: transition_matrix(L, v),
    ("transition_matrix folded", "eta"): lambda v: transition_matrix(L, v, slots=3),
    ("transition_matrix", "slots"): lambda v: transition_matrix(L, 2, slots=v),
    ("jump_table", "states"): lambda v: jump_table(v, 2, 3),
    ("jump_table", "eta"): lambda v: jump_table(5, v, 3),
    ("jump_table", "slots"): lambda v: jump_table(5, 2, v),
    ("critical_alpha", "eta"): lambda v: critical_alpha("A2", v, 0.9, 0.45, L, 4),
    # the channel has int(v) + 1 entries, so only the count rule can refuse 4.0 and 2.0
    ("critical_alpha", "n_max"): lambda v: critical_alpha("A2", 2, 0.9, 0.45, channel(int(v)), v),
    ("critical_alpha grid", "eta"): lambda v: critical_alpha("A2", v, [0.5, 0.9], 0.45, L, 4),
    ("SweepSpec", "eta"): lambda v: boundary_curve(
        SweepSpec("A2", v, 0.5, ChannelModel(q=0.5, p=P), 4)),
    ("SweepSpec", "n_max"): lambda v: boundary_curve(
        SweepSpec("A2", 2, 0.5, ChannelModel(q=0.5, p=[1.0 / (int(v) + 1)] * (int(v) + 1)), v)),
    ("SchemeConfig", "eta"): lambda v: scheme_config(eta=v),
    ("SchemeConfig", "buffer_size"): lambda v: scheme_config(buffer_size=v),
    ("SchemeConfig one-law", "eta"): lambda v: scheme_config(eta=v, scheme="A1"),
    ("simulate_trajectory", "horizon"): lambda v: simulate_trajectory(*scheme_config(), v, 7),
    ("monte_carlo", "horizon"): lambda v: run_monte_carlo(horizon=v),
    ("monte_carlo", "runs"): lambda v: run_monte_carlo(runs=v),
    # a flag times 16 is the int 16, so a flag goes in as it is: runs are checked before batching
    ("monte_carlo batched", "runs"): lambda v: run_monte_carlo(
        runs=v if isinstance(v, (bool, np.bool_)) else v * 16),
}


@pytest.mark.parametrize("value", NOT_COUNTS, ids=repr)
@pytest.mark.parametrize("entry, name", list(CALLS), ids=[" ".join(k) for k in CALLS])
def test_every_entry_point_refuses_a_non_integer_count(entry, name, value):
    with pytest.raises(ValueError, match=f"^{name}"):
        CALLS[entry, name](value)


@pytest.mark.parametrize("name, call, value, message", [
    ("resolve", lambda v: resolve("A2", v, 3, 4), 2.5, "eta must be an integer, got 2.5"),
    ("resolve", lambda v: resolve("A2", 2, v, 4), 4.0,
     "buffer_size (lambda) must be an integer, got 4.0"),
    ("Buffer", Buffer, 2.0, "buffer size must be an integer, got 2.0"),
    ("monte_carlo", lambda v: run_monte_carlo(runs=v), 2.5, "runs must be an integer, got 2.5"),
])
def test_non_integer_message(name, call, value, message):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: transition_matrix(L, 2, slots=0), "slots must be >= 1, got 0"),
    (lambda: transition_matrix(L, 0, slots=3), "eta must be >= 1, got 0"),
    (lambda: jump_table(5, 2.5, 3), "eta must be an integer, got 2.5"),
    (lambda: jump_table(0, 2, 3), "states must be >= 1, got 0"),
    (lambda: certify(ContractionSpec(alpha=1.2, rho1=0.9, rho2=0.45, eta=2), L, buffer_size=0),
     "buffer_size must be >= 1, got 0"),
], ids=["transition_matrix no slot", "transition_matrix folded eta 0", "jump_table fractional eta",
        "jump_table no state", "certify no slot"])
def test_chain_counts_are_refused_by_name(call, message):
    # Before the count rule the first four gave [1, 0, 0, 0, 0], a ZeroDivisionError,
    # float states and []; certify names its own parameter, not transition_matrix's slots.
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_a_fractional_buffer_is_refused_before_either_engine_runs():
    # The batched engine would cast its jump table to intp; the narrow one would index with it.
    with pytest.raises(ValueError, match=r"^buffer_size \(lambda\) must be an integer, got 1.5$"):
        scheme_config(buffer_size=1.5)


@pytest.mark.parametrize("numpy_int", [np.int64, np.int32])
class TestNumpyIntegersAreInts:
    def test_resolve_returns_plain_ints(self, numpy_int):
        eta, slots, _ = resolve("A2", numpy_int(2), numpy_int(3), numpy_int(4))
        assert (type(eta), type(slots)) == (int, int)
        assert (eta, slots) == (2, 3)
        assert type(resolve("A2", numpy_int(2), None, numpy_int(4))[1]) is int

    @pytest.mark.parametrize("eta", [2, 3])
    def test_certify(self, numpy_int, eta):
        spec = ContractionSpec(alpha=1.2, rho1=0.9, rho2=0.45, eta=numpy_int(eta))
        assert type(spec.eta) is int
        want = certify(ContractionSpec(alpha=1.2, rho1=0.9, rho2=0.45, eta=eta), L)
        got = certify(spec, L)
        for field in dataclasses.fields(want):
            a, b = getattr(want, field.name), getattr(got, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
            else:
                assert type(a) is type(b) and a == b, field.name

    @pytest.mark.parametrize("rho1", [0.9, np.array([0.3, 0.6, 0.9])], ids=["scalar", "grid"])
    @pytest.mark.parametrize("scheme, eta", [("A2", 2), ("A2", 3), ("B2", 2), ("A1", 1)])
    def test_critical_alpha(self, numpy_int, rho1, scheme, eta):
        want = critical_alpha(scheme, eta, rho1, 0.5 * np.asarray(rho1), L, 4)
        got = critical_alpha(scheme, numpy_int(eta), rho1, 0.5 * np.asarray(rho1), L,
                             numpy_int(4))
        for a, b in zip(want, got):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            assert type(a) is type(b)

    @pytest.mark.parametrize("scheme, eta", [("A2", 2), ("B2", 3), ("A1", 1)])
    def test_boundary_curve(self, numpy_int, scheme, eta):
        bench = ChannelModel(q=0.5, p=P)
        want = boundary_curve(SweepSpec(scheme, eta, 0.5 if eta > 1 else 1.0, bench, 4))
        got = boundary_curve(SweepSpec(scheme, numpy_int(eta), 0.5 if eta > 1 else 1.0, bench,
                                       numpy_int(4)))
        assert [p.hex() for pt in got for p in pt] == [p.hex() for pt in want for p in pt]

    @pytest.mark.parametrize("eta, buffer_size", [(2, 3), (3, 2), (2, 1)])
    def test_simulate_trajectory(self, numpy_int, eta, buffer_size):
        plant, config = scheme_config(eta=eta, buffer_size=buffer_size)
        _, numpy_config = scheme_config(eta=numpy_int(eta), buffer_size=numpy_int(buffer_size))
        want = simulate_trajectory(plant, config, 60, 11)
        got = simulate_trajectory(plant, numpy_config, numpy_int(60), 11)
        for field in dataclasses.fields(want):
            a, b = getattr(want, field.name), getattr(got, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
            else:
                assert a == b, field.name

    @pytest.mark.parametrize("runs", [4, 32], ids=["narrow", "batched"])
    @pytest.mark.parametrize("eta, buffer_size", [(2, 3), (3, 2)])
    def test_monte_carlo(self, numpy_int, runs, eta, buffer_size):
        plant, config = scheme_config(eta=eta, buffer_size=buffer_size)
        _, numpy_config = scheme_config(eta=numpy_int(eta), buffer_size=numpy_int(buffer_size))
        want = monte_carlo(plant, config, 60, runs, 5)
        got = monte_carlo(plant, numpy_config, numpy_int(60), numpy_int(runs), 5)
        assert (type(got.horizon), type(got.runs)) == (int, int)
        for field in dataclasses.fields(want):
            a, b = getattr(want, field.name), getattr(got, field.name)
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes(), field.name
            else:
                assert a == b, field.name


def grid(v):
    """A two-point grid that holds ``v`` as it is, not cast to the dtype of its other point."""
    return np.array([0.5, v], dtype=object)


#: (entry point, real number) -> a call that passes ``value`` as that number.
REALS = {
    ("ContractionSpec", "alpha"): lambda v: ContractionSpec(alpha=v, rho1=0.9, rho2=0.45, eta=2),
    ("ContractionSpec", "rho1"): lambda v: ContractionSpec(alpha=1.2, rho1=v, rho2=0.45, eta=2),
    ("ContractionSpec", "rho2"): lambda v: ContractionSpec(alpha=1.2, rho1=1.5, rho2=v, eta=2),
    ("ContractionSpec", "d_bound"): lambda v: ContractionSpec(
        alpha=1.2, rho1=0.9, rho2=0.45, eta=2, d_bound=v),
    ("effective_availability", "q"): lambda v: effective_availability(v, P),
    ("ChannelModel", "q"): lambda v: ChannelModel(q=v, p=P),
    ("SchemeConfig", "q"): lambda v: dataclasses.replace(scheme_config()[1], q=v),
    ("SchemeConfig", "d"): lambda v: dataclasses.replace(scheme_config()[1], d=v),
    ("PlantModel", "noise_std"): lambda v: dataclasses.replace(example_system()[0], noise_std=v),
    ("PlantModel", "x0"): lambda v: dataclasses.replace(example_system()[0], x0=v),
    ("SweepSpec", "epsilon"): lambda v: SweepSpec("A2", 2, v, ChannelModel(q=0.5, p=P), 4),
    ("SweepSpec", "rho1 grid"): lambda v: SweepSpec(
        "A2", 2, 0.5, ChannelModel(q=0.5, p=P), 4, rho1_grid=(v,)),
    ("critical_alpha", "rho1"): lambda v: critical_alpha("A2", 2, v, 0.45, L, 4),
    ("critical_alpha", "rho2"): lambda v: critical_alpha("A2", 2, 0.9, v, L, 4),
    ("critical_alpha grid", "rho1"): lambda v: critical_alpha("A2", 2, grid(v), 0.45, L, 4),
    ("critical_alpha grid", "rho2"): lambda v: critical_alpha("A2", 2, 0.9, grid(v), L, 4),
}

#: The REALS that a frozen dataclass checks and stores.
STORED = [k for k in REALS if k[0] in ("ContractionSpec", "PlantModel", "SchemeConfig")
          or k == ("SweepSpec", "epsilon")]

#: A plain number that each entry accepts: 1 unless its range or the call's other numbers
#: refuse it (a rho1 grid and critical_alpha need rho1 < 1, and rho2 <= rho1).
PLAIN = {("SweepSpec", "rho1 grid"): 0.5, ("critical_alpha", "rho1"): 0.5,
         ("critical_alpha", "rho2"): 0, ("critical_alpha grid", "rho1"): 0.5,
         ("critical_alpha grid", "rho2"): 0}


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_, np.array(True)], ids=repr)
@pytest.mark.parametrize("entry, name", list(REALS), ids=[" ".join(k) for k in REALS])
def test_every_real_number_refuses_a_flag(entry, name, value):
    # A flag compares as 0 or 1, so every range check would pass it as that number.
    with pytest.raises(ValueError, match=f"^{name} must be a real number, not a flag, got "):
        REALS[entry, name](value)
    REALS[entry, name](PLAIN.get((entry, name), 1))  # a plain number stays a real number


@pytest.mark.parametrize("value", [np.float64(0.5), np.array(0.5), np.float32(0.5),
                                   np.int64(1), np.array(1)], ids=repr)
@pytest.mark.parametrize("entry, name", STORED, ids=[" ".join(k) for k in STORED])
def test_a_stored_numpy_real_is_the_equal_python_scalar(entry, name, value):
    # Before, the value was stored as given, and a 0-d array made hash() raise TypeError.
    stored = REALS[entry, name](value)
    assert type(getattr(stored, name)) is type(value.item()) and getattr(stored, name) == value
    hash(stored)


#: (entry, name, value): every REALS entry with every non-number, but critical_alpha's
#: scalar rho1 and rho2, which broadcast an array as a grid of points.
NON_NUMBERS = [(entry, name, value) for entry, name in REALS
               for value in ["1", None, 1j, np.array([0.5, 0.5])]
               if not (entry == "critical_alpha" and np.ndim(value))]


@pytest.mark.parametrize("entry, name, value", NON_NUMBERS,
                         ids=[f"{e} {n} {v!r}" for e, n, v in NON_NUMBERS])
def test_every_real_number_refuses_a_non_number(entry, name, value):
    # Before the rule these raised a bare TypeError, numpy's "truth value of an array ... is
    # ambiguous", or ran: epsilon, a rho1 grid entry and critical_alpha's gains were cast.
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
        REALS[entry, name](value)
