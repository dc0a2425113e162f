"""Every module reads A1, A2, B1 and B2 from the one table in ``esac.schemes``:
the same schemes are accepted everywhere, and every refusal of a name uses
one of two messages."""
import dataclasses

import pytest

from esac.chain import min_buffer_size
from esac.channel import ChannelModel
from esac.cli import main, parse_config
from esac.schemes import SCHEMES
from esac.simulate import SchemeConfig, example_system
from esac.stability import critical_alpha
from esac.sweep import SweepSpec

BENCH = ChannelModel(q=0.5, p=[0.2] * 5)
NAMES = ["A1", "A2", "B1", "B2", "C1"]
UNKNOWN = "unknown scheme 'C1': expected one of A1, A2, B1, B2"


def unbuffered(scheme):
    return (f"scheme {scheme} keeps no buffer: only the buffered schemes "
            f"A1 and A2 have a buffer chain")


def refusal(scheme):
    """The message that refuses ``scheme`` where a buffer chain is needed."""
    return {"B1": unbuffered("B1"), "B2": unbuffered("B2"), "C1": UNKNOWN}.get(scheme)


def test_table():
    assert SCHEMES == {"A1": (True, False), "A2": (True, True),
                       "B1": (False, False), "B2": (False, True)}


def config(scheme, kappa2=True):
    _, kappa1, factory = example_system()
    return SchemeConfig(scheme=scheme, kappa1=kappa1, kappa2=factory(0.45) if kappa2 else None,
                        eta=2, buffer_size=3, d=1.0, q=0.5, p=(0.2,) * 5)


@pytest.mark.parametrize("scheme", NAMES)
def test_scheme_config_requires_fine_law_for_two_law_schemes(scheme):
    if scheme == "C1":
        for kappa2 in (True, False):
            with pytest.raises(ValueError, match=f"^{UNKNOWN}$"):
                config(scheme, kappa2)
        return
    assert config(scheme).scheme == scheme
    if scheme in ("A2", "B2"):
        with pytest.raises(ValueError, match=f"scheme {scheme} requires a fine law"):
            config(scheme, kappa2=False)
    else:
        assert config(scheme, kappa2=False).kappa2 is None


@pytest.mark.parametrize("scheme, size, two_law, eta", [
    ("A1", 3, False, 1),
    ("A2", 3, True, 2),
    ("B1", 1, False, 1),
    ("B2", 1, True, 2),
])
def test_stepper_args(scheme, size, two_law, eta):
    cfg = config(scheme)
    fine = cfg.kappa2 if two_law else cfg.kappa1
    assert cfg.stepper_args() == (size, cfg.kappa1, fine, eta)
    # A scheme ignores the eta or buffer size it does not use.
    wider = dataclasses.replace(cfg, eta=4, buffer_size=5)
    assert wider.stepper_args()[0] == (5 if scheme[0] == "A" else 1)
    assert wider.stepper_args()[3] == (4 if two_law else 1)


def call_library(target, scheme):
    if target == "critical_alpha":
        return critical_alpha(scheme, 2, 0.9, 0.45, BENCH.l, 4)
    if target == "SweepSpec":
        return SweepSpec(scheme, 2, 0.5, BENCH, 4, rho1_grid=(0.9,))
    return min_buffer_size(scheme, 2, 4)


@pytest.mark.parametrize("scheme", NAMES)
@pytest.mark.parametrize("target", ["critical_alpha", "SweepSpec", "min_buffer_size"])
def test_library_accepts_buffered_schemes_only(target, scheme):
    message = refusal(scheme)
    if message is None:
        call_library(target, scheme)
    else:
        with pytest.raises(ValueError) as info:
            call_library(target, scheme)
        assert str(info.value) == message


def test_min_buffer_size_of_one_law_scheme_ignores_eta():
    for eta in (1, 2, 3):
        assert min_buffer_size("A1", eta, 4) == 4


def run_command(command, scheme, tmp_path, capsys):
    argv = [command, "--scheme", scheme, "--rho1", "0.9"]
    if command == "certify":
        argv += ["--alpha", "1.2"]
    else:
        argv += ["--output", str(tmp_path / f"{scheme}.csv")]
    if scheme in ("A2", "B2"):
        argv += ["--rho2", "0.45"]
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("scheme", NAMES)
@pytest.mark.parametrize("command", ["certify", "sweep"])
def test_commands_accept_buffered_schemes_only(command, scheme, tmp_path, capsys):
    code, err = run_command(command, scheme, tmp_path, capsys)
    message = refusal(scheme)
    if message is None:
        assert code in ((0, 2) if command == "certify" else (0,))
        assert err == ""
    else:
        assert code == 1
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("scheme", NAMES)
def test_cli_resolves_one_law_schemes(scheme):
    text = f"scheme = {scheme}\neta = 3\nrho1 = 0.8"
    if scheme == "C1":
        with pytest.raises(ValueError, match=f"^{UNKNOWN}$"):
            parse_config(text)
        return
    cfg = parse_config(text)
    if scheme in ("A1", "B1"):
        assert (cfg.eta, cfg.rho2, cfg.epsilon) == (1, 0.8, 1.0)
    else:
        assert (cfg.eta, cfg.rho2, cfg.epsilon) == (3, None, None)
    assert cfg.lam == {"A1": 4, "A2": 3, "B1": 1, "B2": 1}[scheme]


@pytest.mark.parametrize("scheme", ["A1", "B1"])
@pytest.mark.parametrize("command", ["sweep", "certify", "simulate"])
def test_one_law_schemes_reject_epsilon(command, scheme, tmp_path, capsys):
    code = main([command, "--scheme", scheme, "--epsilon", "0.5",
                 "--output", str(tmp_path / "out.csv")])
    assert code == 1
    assert capsys.readouterr().err == (f"error: scheme {scheme} runs the coarse law only: "
                                       "epsilon=0.5 must be 1 or be left out\n")
    assert not (tmp_path / "out.csv").exists()


def output_bytes(argv, path, capsys):
    assert main(argv + ["--output", str(path)]) == 0
    capsys.readouterr()
    return path.read_bytes()


def test_a1_sweep_with_epsilon_one_is_unchanged(tmp_path, capsys):
    argv = ["sweep", "--scheme", "A1"]
    plain = output_bytes(argv, tmp_path / "plain.csv", capsys)
    assert output_bytes(argv + ["--epsilon", "1"], tmp_path / "one.csv", capsys) == plain


def test_b1_simulate_ignores_eta(tmp_path, capsys):
    argv = ["simulate", "--scheme", "B1", "--rho1", "0.9", "--runs", "30", "--horizon", "40"]
    one = output_bytes(argv + ["--eta", "1"], tmp_path / "one.csv", capsys)
    assert output_bytes(argv + ["--eta", "9"], tmp_path / "nine.csv", capsys) == one
