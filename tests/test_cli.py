import argparse
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from esac.cli import (COMMANDS, _KEY_PARSERS, ConfigError, _build_parser, _parse_float,
                      cmd_certify, main, parse_config)


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.scheme == "A2"
        assert cfg.eta == 2
        assert cfg.n_max == 4
        assert cfg.lam == 2  # minimum buffer size for A2, eta=2, n_max=4
        assert cfg.q == 0.5
        assert cfg.p == (0.2,) * 5

    def test_file_values_and_comments(self):
        text = """
        # benchmark Q3
        scheme = A1
        rho1 = 0.9
        alpha = 1.17   # just below the threshold
        seed = 7
        """
        cfg = parse_config(text)
        assert cfg.scheme == "A1"
        assert cfg.eta == 1
        assert cfg.rho1 == 0.9
        assert cfg.rho2 == 0.9  # one-law scheme: both laws coincide
        assert cfg.alpha == 1.17
        assert cfg.seed == 7
        assert cfg.lam == 4  # A1 minimum buffer is n_max

    def test_overrides_win(self):
        cfg = parse_config("eta = 2\nrho1=0.9\nrho2=0.45", overrides=[("eta", "3")])
        assert cfg.eta == 3

    def test_vector_keys(self):
        cfg = parse_config("p = 0.5 0.25 0.25\nnu = 1 2 3")
        assert cfg.p == (0.5, 0.25, 0.25)
        assert cfg.nu == (1.0, 2.0, 3.0)
        assert cfg.n_max == 2

    def test_epsilon_derives_rho2(self):
        cfg = parse_config("rho1 = 0.8\nepsilon = 0.5")
        assert cfg.rho2 == pytest.approx(0.4)

    def test_lambda_key_maps_to_buffer_size(self):
        cfg = parse_config("lambda = 6")
        assert cfg.lam == 6

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("bogus = 1", "unknown key"),
            ("just a line", "expected key=value"),
            ("alpha = abc", "malformed number"),
            ("q = 1.5", "q"),
            ("p = 0.5 0.4", "sum"),
            ("scheme = C1", "scheme"),
            ("eta = 9", "eta"),
            ("rho1 = 0.8\nrho2 = 0.4\nepsilon = 0.5", "exactly one"),
            ("n_max = 3", "unknown key"),  # n_max follows from p
            ("runs = 0", "runs"),
            ("lambda = 0", "lambda"),
            ("nu = 1 2", "nu"),
        ],
    )
    def test_rejections_name_the_problem(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)

    @pytest.mark.parametrize("nu", ["nan 1 1 1 1", "inf 1 1 1 1", "1 1 -inf 1 1", "1 1 1 1 0",
                                    "1 -1 1 1 1", "1 1 1 1", "1 1 1 1 1 1"])
    def test_rejects_malformed_nu(self, nu):
        with pytest.raises(ConfigError, match=r"^nu must be 5 strictly positive finite entries$"):
            parse_config(f"nu = {nu}")

    @pytest.mark.parametrize("key", ["horizon", "runs"])
    def test_horizon_and_runs_are_counts(self, key):
        with pytest.raises(ConfigError, match=f"^{key} must be >= 1, got 0$"):
            parse_config(f"{key} = 0")
        assert getattr(parse_config(f"{key} = 3"), key) == 3

    def test_error_names_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("scheme = A2\nalpha = oops")

    def test_error_names_flag(self):
        with pytest.raises(ConfigError, match="flag 'seed'"):
            parse_config("", overrides=[("seed", "one")])


class TestCertifyCommand:
    def test_certified_q1(self, capsys):
        code = main(["certify", "--alpha", "1.35", "--rho1", "0.9", "--rho2", "0.45"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CertifiedStable" in out
        assert "spectral radius" in out
        assert "C2" in out

    def test_not_certified_exit_code(self, capsys):
        code = main(["certify", "--alpha", "1.36", "--rho1", "0.9", "--rho2", "0.45"])
        out = capsys.readouterr().out
        assert code == 2
        assert "NotCertified" in out
        # T = Pi here, so I - T is singular: still a verdict, not an error.
        with pytest.warns(UserWarning, match="no better than coarse"):
            code = main(["certify", "--alpha", "1", "--rho1", "1", "--rho2", "1"])
        assert code == 2
        assert "NotCertified" in capsys.readouterr().out

    def test_labels_aligned(self, capsys):
        cfg = parse_config("alpha = 1.35\nrho1 = 0.9\nrho2 = 0.45")
        cmd_certify(cfg)
        for line in capsys.readouterr().out.splitlines():
            # every value column starts at character 18
            assert line[17] == " "
            assert line[18] != " "

    def test_undersized_buffer_certifies_its_own_chain(self, capsys):
        # One slot cuts every grant to one entry, as in the unbuffered
        # scheme: A2 at lambda = 1 prints B2's report, without a warning.
        reports = []
        for scheme in ("A2", "B2"):
            cfg = parse_config(f"scheme = {scheme}\nalpha = 1.2\nrho1 = 0.9\n"
                               "rho2 = 0.45\nlambda = 1")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cmd_certify(cfg) == 0
            reports.append(capsys.readouterr().out.splitlines()[1:])
        assert reports[0] == reports[1]
        assert "verdict           CertifiedStable" in reports[0]

    def test_one_slot_a1_is_not_certified(self, capsys):
        # With one slot T has rank one: its radius is 1.1 * 0.6 + 0.9 * 0.4.
        # The untruncated chain, radius 0.97, would certify this loop.
        code = main(["certify", "--scheme", "A1", "--lambda", "1", "--alpha", "1.1",
                     "--rho1", "0.9"])
        out = capsys.readouterr().out
        assert code == 2
        assert "spectral radius   1.02\n" in out
        assert "verdict           NotCertified\n" in out

    def test_nan_nu_is_refused_not_judged(self, capsys):
        code = main(["certify", "--alpha", "1.2", "--rho1", "0.9", "--rho2", "0.45",
                     "--nu", "nan 1 1 1 1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: nu must be 5 strictly positive finite entries")
        assert "verdict" not in captured.out

    def test_unnormalised_p_names_its_sum_as_a_plain_number(self, capsys):
        code = main(["certify", "--alpha", "1.2", "--rho1", "0.9", "--rho2", "0.45",
                     "--p", "0.5 0.5 0.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: p must sum to 1 within 1e-09, got sum 1.5\n"
        assert captured.out == ""

    def test_missing_alpha_is_config_error(self, capsys):
        code = main(["certify", "--rho1", "0.9", "--rho2", "0.45"])
        err = capsys.readouterr().err
        assert code == 1
        assert "alpha" in err

    def test_b_scheme_certified_as_one_slot(self, capsys):
        # B1's boundary is (1 - 0.9 * 0.4) / 0.6 = 1.0667.
        code = main(["certify", "--scheme", "B1", "--alpha", "1.2", "--rho1", "0.9"])
        assert code == 2
        assert "spectral radius   1.08\n" in capsys.readouterr().out
        code = main(["certify", "--scheme", "B1", "--alpha", "1.05", "--rho1", "0.9",
                     "--lambda", "3"])  # an unbuffered scheme has one slot whatever lambda says
        assert code == 0
        assert "spectral radius   0.99\n" in capsys.readouterr().out

    def test_one_law_scheme_uses_rho1(self, capsys):
        # A1 runs the coarse law only: its boundary at rho1 = 0.9 is 1.17477.
        code = main(["certify", "--scheme", "A1", "--alpha", "1.3", "--rho1", "0.9"])
        assert code == 2
        assert "NotCertified" in capsys.readouterr().out

    def test_processor_that_always_grants_two_units(self, capsys):
        # p = (0, 0, 1) at q = 0.5 gives l = (0.5, 0, 0.5), a valid chain.
        code = main(["certify", "--scheme", "A1", "--q", "0.5", "--p", "0 0 1",
                     "--alpha", "1.1", "--rho1", "0.9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "spectral radius   0.952769256907\n" in out
        assert "closed form omega 0.870503597122\n" in out
        assert "verdict           CertifiedStable\n" in out

    @pytest.mark.parametrize("scheme, index", [
        ("A1", "omega"), ("A2", "psi"), ("B1", "omega"), ("B2", "psi"),
    ])
    def test_index_label_follows_the_scheme(self, scheme, index, capsys):
        # A two-law scheme at eta = 1 still runs two laws, so its index is psi.
        rho2 = ["--rho2", "0.45"] if scheme in ("A2", "B2") else []
        main(["certify", "--scheme", scheme, "--eta", "1", "--alpha", "1.1", "--rho1", "0.9",
              *rho2])
        assert f"\nclosed form {index:<6}" in capsys.readouterr().out

    @pytest.mark.parametrize("scheme", ["A1", "B1"])
    def test_one_law_scheme_rejects_rho2(self, scheme, capsys):
        code = main(["certify", "--scheme", scheme, "--alpha", "1.3",
                     "--rho1", "0.9", "--rho2", "0.45"])
        assert code == 1
        assert f"scheme {scheme}" in capsys.readouterr().err
        with pytest.raises(ConfigError, match=f"scheme {scheme}"):
            parse_config(f"scheme = {scheme}\nrho1 = 0.9\nepsilon = 0.5")


class TestSweepCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main([
            "sweep", "--scheme", "A1", "--rho1", "0.9", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rho1,alpha_star_closed,alpha_star_lower,alpha_star_upper"
        assert len(lines) == 20  # header + 19 grid points
        assert float(lines[1].split(",")[0]) == 0.05
        for line in lines[1:]:
            _, closed, lower, upper = map(float, line.split(","))
            assert lower < closed < upper
            assert upper - lower < 1e-6

    def test_refuses_truncated_buffer(self, tmp_path, capsys):
        # The curve is the untruncated chain's; A1 at n_max = 4 needs 4 slots.
        out = tmp_path / "curve.csv"
        code = main(["sweep", "--scheme", "A1", "--lambda", "1", "--epsilon", "1",
                     "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "lambda" in err and "certify" in err
        assert not out.exists()

    def test_failed_bracket_is_an_error_exit(self, tmp_path, capsys, monkeypatch):
        # No margin collapses every bracket to one point, which no check passes.
        monkeypatch.setattr("esac.stability.SCHUR_TOL", 0.0)
        out = tmp_path / "curve.csv"
        assert main(["sweep", "--scheme", "A1", "--epsilon", "1", "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: no witnessed bracket")
        assert not out.exists()

    def test_buffer_at_or_above_minimum_sweeps_the_same_curve(self, tmp_path):
        paths = [tmp_path / f"{lam}.csv" for lam in ("default", "4", "6")]
        for path in paths:
            lam = [] if path.stem == "default" else ["--lambda", path.stem]
            assert main(["sweep", "--scheme", "A1", "--epsilon", "1", *lam,
                         "--output", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

    def test_no_boundary_without_misses(self, tmp_path, capsys):
        # q = 1 and p[0] = 0 give l[0] = 0: a clean refusal, with no warning.
        out = tmp_path / "curve.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--q", "1", "--p", "0 0.5 0.5", "--epsilon", "0.5",
                         "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "l[0] = 0" in err and "no stability boundary" in err
        assert "Warning" not in err
        assert not out.exists()

    def test_processor_that_always_grants_two_units(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main(["sweep", "--scheme", "A1", "--q", "0.5", "--p", "0 0 1", "--epsilon", "1",
                     "--output", str(out)])
        assert code == 0
        rows = {row[0]: row for row in (line.split(",") for line in out.read_text().splitlines())}
        assert float(rows["0.9"][1]) == pytest.approx(1.263636363636, abs=1e-11)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["sweep", "--epsilon", "0.5", "--output", str(path)])
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()

    def test_requires_epsilon(self, capsys):
        code = main(["sweep", "--scheme", "A2"])
        assert code == 1
        assert "epsilon" in capsys.readouterr().err


class TestSimulateCommand:
    def test_writes_mean_v_csv(self, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        code = main([
            "simulate", "--rho1", "0.9", "--rho2", "0.45",
            "--runs", "20", "--horizon", "30", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,mean_v,trigger_rate"
        assert len(lines) == 32
        k, mean_v, rate = lines[1].split(",")
        assert (k, mean_v, rate) == ("0", "20", "1")

    def test_trajectory_dump(self, tmp_path):
        out = tmp_path / "mc.csv"
        traj = tmp_path / "traj.csv"
        code = main([
            "simulate", "--rho1", "0.9", "--rho2", "0.45",
            "--runs", "2", "--horizon", "15",
            "--output", str(out), "--trajectory-csv", str(traj),
        ])
        assert code == 0
        lines = traj.read_text().splitlines()
        assert lines[0] == "k,x,u,gamma,N,F,C,v"
        assert len(lines) == 16
        fields = lines[1].split(",")
        assert fields[0] == "0"
        assert fields[1] == "20"

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        common = ["simulate", "--rho1", "0.9", "--rho2", "0.45",
                  "--runs", "10", "--horizon", "20", "--seed", "3"]
        main(common + ["--output", str(a)])
        main(common + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.csv"
        main(common[:-1] + ["4", "--output", str(c)])
        assert a.read_bytes() != c.read_bytes()

    def test_rejects_unnormalised_p(self, tmp_path, capsys):
        # the same rule as certify: p is never renormalised
        out = tmp_path / "mc.csv"
        code = main(["simulate", "--rho1", "0.9", "--rho2", "0.45", "--p", "2 2 2 2 2",
                     "--runs", "4", "--horizon", "20", "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: p ")
        assert not out.exists()

    def test_rejects_one_entry_p(self, tmp_path, capsys):
        # n_max = 0 fails the channel rule, named as p, before any eta check
        out = tmp_path / "mc.csv"
        code = main(["simulate", "--scheme", "A1", "--p", "1", "--rho1", "0.9",
                     "--runs", "4", "--horizon", "20", "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: p must be a 1-D vector of at least two entries")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("d", "nan"), ("d", "-1"), ("noise_std", "nan"), ("noise_std", "-1"),
    ])
    def test_rejects_bad_threshold_or_noise(self, key, value, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        code = main(["simulate", "--rho1", "0.9", "--rho2", "0.45", "--runs", "4",
                     "--horizon", "20", f"--{key}", value, "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be")
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--rho1", "-3", "--rho2", "0.45"], "rho1 must be finite and >= 0, got -3.0"),
        (["--rho1", "nan", "--rho2", "0.45"], "rho1 must be finite and >= 0, got nan"),
        (["--rho1", "0.9", "--rho2", "0.45", "--seed", "-1"], "seed must be >= 0, got -1"),
    ], ids=["negative rho1", "nan rho1", "negative seed"])
    def test_refuses_a_given_value_by_name(self, flags, message, tmp_path, capsys):
        # Before, rho1 = -3 and nan ran (as epsilon = -0.15 and nan) and wrote a CSV, and a
        # negative seed printed only numpy's "expected non-negative integer".
        out = tmp_path / "mc.csv"
        code = main(["simulate", *flags, "--runs", "4", "--horizon", "20", "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


DATA = Path(__file__).parent / "data"
A2 = ["--scheme", "A2", "--eta", "2", "--rho1", "0.9", "--rho2", "0.45"]

#: ``esac simulate`` runs captured with ``--seed 3``.  The trajectory files
#: come from the per-run loop over the immutable-buffer step functions
#: (before the batched engine and the one scalar stepper existed).  The
#: simulate files come from runs drawn in run order from one
#: ``default_rng(3)``; they were checked byte for byte against the run-order
#: reference of ``test_simulate.py``, and their run 0 is the trajectory
#: file's run.  Narrow calls take the per-run path, wide ones the batched
#: engine; the B1 runs have diverging runs.
A1 = ["--scheme", "A1", "--rho1", "0.9", "--horizon", "120"]
B1 = ["--scheme", "B1", "--rho1", "0.9", "--horizon", "200"]
B2 = ["--scheme", "B2", "--eta", "2", "--rho1", "0.9", "--rho2", "0.45", "--horizon", "120"]
NARROW, WIDE = ["--runs", "6"], ["--runs", "40"]
GOLDEN = {
    "a2_narrow": A2 + NARROW + ["--horizon", "120"],
    "a2_wide": A2 + WIDE + ["--horizon", "120"],
    "a1_narrow": A1 + NARROW,
    "a1_wide": A1 + WIDE,
    "b1_narrow": B1 + NARROW,
    "b1_wide": B1 + WIDE,
    "b2_narrow": B2 + NARROW,
    "b2_wide": B2 + WIDE,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_golden_bytes(name, tmp_path, capsys):
    out, traj = tmp_path / "mc.csv", tmp_path / "traj.csv"
    code = main(["simulate", *GOLDEN[name], "--seed", "3",
                 "--output", str(out), "--trajectory-csv", str(traj)])
    assert code == 0
    assert out.read_bytes() == (DATA / f"simulate_{name}.csv").read_bytes()
    assert traj.read_bytes() == (DATA / f"trajectory_{name}.csv").read_bytes()


#: ``esac sweep`` curves captured from the per-point code, one ``critical_alpha``
#: call per grid point: the two sweeps of the CI acceptance step, and the
#: two-law schemes at an epsilon strictly between 0 and 1.
SWEEP_GOLDEN = {
    "b1": ["--scheme", "B1", "--epsilon", "1"],
    "a2_eps0": ["--scheme", "A2", "--eta", "2", "--epsilon", "0"],
    "a2_eps05": ["--scheme", "A2", "--eta", "2", "--epsilon", "0.5"],
    "b2_eps05": ["--scheme", "B2", "--eta", "2", "--epsilon", "0.5"],
}


@pytest.mark.parametrize("name", sorted(SWEEP_GOLDEN))
def test_sweep_golden_bytes(name, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *SWEEP_GOLDEN[name], "--output", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"sweep_{name}.csv").read_bytes()


#: ``esac certify`` reports captured from the code that folded the channel by hand
#: (``fold_grants`` in ``cmd_certify``), with their exit codes: truncated and
#: untruncated buffers, both unbuffered schemes, a NotCertified run and a custom ``nu``.
CERTIFY_GOLDEN = {
    "a2_eta2": (["--scheme", "A2", "--eta", "2", "--alpha", "1.35", "--rho1", "0.9",
                 "--rho2", "0.45"], 0),
    "a2_eta3_lam2": (["--scheme", "A2", "--eta", "3", "--lambda", "2", "--alpha", "1.2",
                      "--rho1", "0.9", "--rho2", "0.45"], 0),
    "b2": (["--scheme", "B2", "--eta", "2", "--alpha", "1.2", "--rho1", "0.9",
            "--rho2", "0.45"], 0),
    "b1": (["--scheme", "B1", "--alpha", "1.05", "--rho1", "0.9"], 0),
    "a1_lam1": (["--scheme", "A1", "--lambda", "1", "--alpha", "1.1", "--rho1", "0.9"], 2),
    "a1_lam2_nu": (["--scheme", "A1", "--lambda", "2", "--alpha", "1.1", "--rho1", "0.9",
                    "--nu", "1 2 3 4 5"], 0),
}


@pytest.mark.parametrize("name", sorted(CERTIFY_GOLDEN))
def test_certify_golden_bytes(name, capsysbinary):
    args, code = CERTIFY_GOLDEN[name]
    assert main(["certify", *args]) == code
    assert capsysbinary.readouterr().out == (DATA / f"certify_{name}.txt").read_bytes()


@pytest.mark.parametrize("name", COMMANDS)
def test_every_command_has_help(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: esac {name} ")
    assert ("--trajectory-csv" in out) == (name == "simulate")


#: A run of each command that exits 0, and a value of each key that every command accepts.
RUNS = {
    "certify": ["--alpha", "1.35", "--rho1", "0.9", "--rho2", "0.45"],
    "sweep": ["--epsilon", "0.5"],
    "simulate": ["--rho1", "0.9", "--rho2", "0.45", "--runs", "4", "--horizon", "20"],
    "example1": [],
    "selftest": [],
}
VALUES = {"scheme": "A2", "eta": "2", "lambda": "2", "d": "1", "q": "0.5",
          "p": "0.2 0.2 0.2 0.2 0.2", "alpha": "1.01", "rho1": "0.9", "rho2": "0.45",
          "epsilon": "0.5", "horizon": "20", "runs": "3", "seed": "5", "nu": "1 1 1 1 1",
          "noise_std": "0.5"}


@pytest.mark.parametrize("key", _KEY_PARSERS)
@pytest.mark.parametrize("name", COMMANDS)
def test_each_command_takes_only_the_keys_it_reads(name, key, tmp_path, capsys):
    """A command takes ``--<key>`` exactly when the key table says that it reads the key.
    Any other key is refused as a flag, before anything runs or is written, and still
    accepted in a config file, which describes a whole run."""
    reads = name in _KEY_PARSERS[key][1]
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert (f"--{key} V" in capsys.readouterr().out) == reads
    if reads:
        return
    out = tmp_path / "out.csv"
    run = RUNS[name] + (["--output", str(out)] if name in _KEY_PARSERS["output"][1] else [])
    value = str(out) if key == "output" else VALUES[key]
    assert main([name, *run, f"--{key}", value]) == 1
    assert f"unrecognized arguments: --{key} " in capsys.readouterr().err
    assert not out.exists()
    if RUNS[name]:  # example1 and selftest read no key, so they take no --config
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {value}\n")
        assert main([name, "--config", str(config), *run]) == 0
        assert capsys.readouterr().err == ""


#: An out-of-range value of each real key.
OUT_OF_RANGE = {"d": "-1", "q": "1.5", "alpha": "-1", "rho1": "-3", "rho2": "-1",
                "epsilon": "2", "noise_std": "-1"}
UNREAD_REALS = [(name, key) for key, (parse, readers) in _KEY_PARSERS.items()
                if parse is _parse_float for name in RUNS if RUNS[name] and name not in readers]


@pytest.mark.parametrize("name, key", UNREAD_REALS, ids=[" ".join(k) for k in UNREAD_REALS])
def test_every_real_key_in_a_config_file_is_checked(name, key, tmp_path, capsys):
    """A config file describes a whole run, so each command checks every real key in it, as
    it checks every count and vector, also a key that it does not read.  Before, only the
    command that read a real key checked it: ``noise_std = -1`` passed certify."""
    assert set(OUT_OF_RANGE) == {k for k, (parse, _) in _KEY_PARSERS.items()
                                 if parse is _parse_float}
    out = tmp_path / "out.csv"
    run = RUNS[name] + (["--output", str(out)] if name in _KEY_PARSERS["output"][1] else [])
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {OUT_OF_RANGE[key]}\n")
    assert main([name, "--config", str(config), *run]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be ")
    assert not out.exists()


def test_settable_flag_count():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    counts = {name: sum(not isinstance(a, argparse._HelpAction) for a in p._actions)
              for name, p in sub.choices.items()}
    assert counts == {"certify": 12, "sweep": 10, "simulate": 16, "example1": 0, "selftest": 0}
    assert sum(counts.values()) == 38


@pytest.mark.parametrize("argv, message", [
    (["certify", *RUNS["certify"], "--runs", "3"], "unrecognized arguments: --runs 3"),
    (["certify", "--alpha"], "argument --alpha: expected one argument"),
    (["check"], "argument command: invalid choice: 'check'"),
    ([], "the following arguments are required: command"),
])
def test_usage_error_exits_1_not_2(argv, message, capsys):
    """argparse exits 2 on a usage error, the code of certify's NotCertified; the command
    line exits 1, as on any other error, and keeps argparse's message."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: esac")
    assert f"error: {message}" in captured.err


def test_example1_command(capsys):
    code = main(["example1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "A1:" in out and "A2:" in out
    assert "OK" in out


def test_python_m_esac(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["esac", "certify", "--alpha", "1.35",
                                      "--rho1", "0.9", "--rho2", "0.45"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("esac", run_name="__main__")
    assert exc.value.code == 0
    assert "CertifiedStable" in capsys.readouterr().out


def test_closed_stdout_pipe_is_a_quiet_end():
    # The reader closes the pipe before the command writes: exit 1, as on
    # SIGPIPE, with nothing on stderr.
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "esac", "certify", "--scheme", "B2", "--eta", "2", "--alpha", "1.2",
         "--rho1", "0.9", "--rho2", "0.45"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_config_file_flag(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 1.35\nrho1 = 0.9\nrho2 = 0.45\n")
    code = main(["certify", "--config", str(path)])
    assert code == 0
    code = main(["certify", "--config", str(tmp_path / "missing.cfg")])
    assert code == 1


def test_unreadable_output_path(tmp_path, capsys):
    code = main(["sweep", "--epsilon", "0.5",
                 "--output", str(tmp_path / "no_dir" / "x.csv")])
    assert code == 1
