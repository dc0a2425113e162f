"""Every module reads A1, A2, B1 and B2 from the one table in ``esac.schemes``:
the same schemes are accepted everywhere, and every refusal of a name uses
one message.  Every layer also checks ``eta`` and the buffer size by the one
rule, ``esac.schemes.resolve``."""
import dataclasses
import re

import pytest

from esac.chain import jump_table, law_of
from esac.channel import ChannelModel
from esac.cli import main, parse_config
from esac.schemes import SCHEMES, resolve
from esac.simulate import SchemeConfig, example_system
from esac.stability import critical_alpha
from esac.sweep import SweepSpec

BENCH = ChannelModel(q=0.5, p=[0.2] * 5)
NAMES = ["A1", "A2", "B1", "B2", "C1"]
UNKNOWN = "unknown scheme 'C1': expected one of A1, A2, B1, B2"


#: What the library and the CLI give for each scheme at rho1 = 0.9,
#: rho2 = 0.45, eta = 2 (ignored by the one-law schemes) on the benchmark
#: channel: the minimum buffer size, the boundary open-loop bound, and the
#: exit code of ``certify`` at alpha = 1.2.  B1 and B2 are one-slot buffers
#: with the rank-one boundaries (1 - 0.9 * 0.4) / 0.6 and
#: (1 - 0.9 * 0.1 - 0.45 * 0.3) / 0.6.
ACCEPTED = {
    "A1": (4, 1.174775, 2),
    "A2": (2, 1.352656, 0),
    "B1": (1, 16 / 15, 2),
    "B2": (1, 0.775 / 0.6, 0),
}


def epsilon(scheme):
    """The one epsilon that a one-law scheme's curve takes is 1; a two-law one takes 0.5."""
    return 1.0 if scheme in ("A1", "B1") else 0.5


def refusal(scheme):
    """The message that refuses ``scheme``: only an unknown name is refused."""
    return None if scheme in ACCEPTED else UNKNOWN


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
def test_config_chain(scheme, size, two_law, eta):
    """A config resolves its scheme once, into the chain of a ``size``-slot buffer
    at the resolved ``eta`` that runs the coarse law in a one-law scheme's fine slot."""
    cfg = config(scheme)
    fine = cfg.kappa2 if two_law else cfg.kappa1
    assert cfg._chain == (jump_table(5, eta, size), law_of(5, eta), (None, cfg.kappa1, fine),
                          eta, scheme[0] == "A")
    # A scheme ignores the eta or buffer size it does not use.
    wider = dataclasses.replace(cfg, eta=4, buffer_size=5)
    wider_eta = 4 if two_law else 1
    assert wider._chain[0] == jump_table(5, wider_eta, 5 if scheme[0] == "A" else 1)
    assert wider._chain[3] == wider_eta


def call_library(target, scheme):
    if target == "critical_alpha":
        return critical_alpha(scheme, 2, 0.9, 0.45, BENCH.l, 4)
    if target == "SweepSpec":
        return SweepSpec(scheme, 2, epsilon(scheme), BENCH, 4, rho1_grid=(0.9,))
    return resolve(scheme, 2, None, 4)[1]


# "min_buffer_size" is the minimum size: the slot count of resolve(scheme, eta, None, n_max)
@pytest.mark.parametrize("scheme", NAMES)
@pytest.mark.parametrize("target", ["critical_alpha", "SweepSpec", "min_buffer_size"])
def test_library_accepts_buffered_schemes_only(target, scheme):
    """Every scheme in the table runs a buffer, B1 and B2 one of one slot, so
    all four are accepted."""
    message = refusal(scheme)
    if message is None:
        result = call_library(target, scheme)
        size, alpha_star, _ = ACCEPTED[scheme]
        if target == "min_buffer_size":
            assert result == size
        elif target == "critical_alpha":
            assert result.closed == pytest.approx(alpha_star, abs=1e-6)
    else:
        with pytest.raises(ValueError) as info:
            call_library(target, scheme)
        assert str(info.value) == message


def test_min_buffer_size_of_one_law_scheme_ignores_eta():
    for eta in (1, 2, 3):
        assert resolve("A1", eta, None, 4)[1] == 4


@pytest.mark.parametrize("n_max", [0, -1])
@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_resolve_refuses_n_max_below_one(scheme, n_max):
    # A processor that never computes: no buffer size, default or given, and
    # no eta fits it.
    with pytest.raises(ValueError, match=f"^n_max must be >= 1, got {n_max}$"):
        resolve(scheme, 1, None, n_max)
    with pytest.raises(ValueError, match="^n_max"):
        resolve(scheme, 1, 3, n_max)


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
        assert code == (ACCEPTED[scheme][2] if command == "certify" else 0)
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
    assert cfg.lam == {"A1": 4, "A2": 2, "B1": 1, "B2": 1}[scheme]


@pytest.mark.parametrize("scheme", ["A1", "B1"])
@pytest.mark.parametrize("command", ["sweep", "certify", "simulate"])
def test_one_law_schemes_reject_epsilon(command, scheme, tmp_path, capsys):
    output = [] if command == "certify" else ["--output", str(tmp_path / "out.csv")]
    code = main([command, "--scheme", scheme, "--epsilon", "0.5", *output])
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


#: ``(scheme, eta, lambda, refused)``: what every layer refuses, or None
#: where every layer accepts.  The first five rows are ones the layers used
#: to disagree on: the CLI ran A1 at eta = -3 and B1 at lambda = 0,
#: critical_alpha answered A1 at eta = 0, the minimum buffer size divided by zero
#: on A2 at eta = 0, and SweepSpec took A2 at eta = 7 > n_max.
RULE_ROWS = [
    ("A1", -3, 4, "eta"),
    ("B1", 1, 0, "lambda"),
    ("A1", 0, 4, "eta"),
    ("A2", 0, 4, "eta"),
    ("A2", 7, 4, "eta"),
    ("B2", 5, 1, "eta"),
    ("A2", 2, -1, "lambda"),
    ("A1", 9, 4, None),  # a one-law scheme ignores any eta >= 1 ...
    ("B1", 9, 3, None),  # ... and an unbuffered one any lambda >= 1
    ("A2", 4, 1, None),
    ("B2", 1, 2, None),
]


@pytest.mark.parametrize("scheme, eta, lam, refused", RULE_ROWS)
def test_one_scheme_rule_for_every_layer(scheme, eta, lam, refused, tmp_path, capsys):
    _, kappa1, factory = example_system()

    def scheme_config():
        return SchemeConfig(scheme=scheme, kappa1=kappa1, kappa2=factory(0.45), eta=eta,
                            buffer_size=lam, d=1.0, q=0.5, p=(0.2,) * 5)

    # Every refusal starts with the name it refuses, in the library and the CLI.
    name = {"eta": "eta", "lambda": "buffer_size (lambda)", None: None}[refused]
    layers = [  # (call, whether it takes a buffer size)
        (scheme_config, True),
        (lambda: resolve(scheme, eta, None, 4)[1], False),
        (lambda: critical_alpha(scheme, eta, 0.9, 0.45, BENCH.l, 4), False),
        (lambda: SweepSpec(scheme, eta, epsilon(scheme), BENCH, 4, rho1_grid=(0.9,)), False),
    ]
    for call, takes_lambda in layers:
        if refused == "eta" or refused == "lambda" and takes_lambda:
            with pytest.raises(ValueError, match=f"^{re.escape(name)} must"):
                call()
        else:
            call()

    rho2 = ["--rho2", "0.45"] if scheme in ("A2", "B2") else []
    argv = ["--scheme", scheme, "--eta", str(eta), "--lambda", str(lam), "--rho1", "0.9", *rho2]
    own = {"certify": ["--alpha", "1.2"],  # each command takes only the keys it reads
           "simulate": ["--runs", "4", "--horizon", "5", "--output", str(tmp_path / "out.csv")]}
    for command in ("certify", "simulate"):
        code = main([command, *argv, *own[command]])
        err = capsys.readouterr().err
        if refused is None:
            assert code in ((0, 2) if command == "certify" else (0,)) and err == ""
        else:
            assert code == 1 and err.startswith(f"error: {name} must")
    if refused is None:  # the CLI resolves the eta and buffer size that the simulator runs
        resolved_eta, slots, _ = resolve(scheme, eta, lam, 4)
        assert scheme_config()._chain[3] == resolved_eta
        cfg = parse_config("", [("scheme", scheme), ("eta", str(eta)), ("lambda", str(lam))])
        assert (cfg.eta, cfg.lam) == (resolved_eta, slots)
