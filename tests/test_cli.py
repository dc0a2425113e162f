import io
from pathlib import Path

import pytest

from esac.cli import ConfigError, RunConfig, cmd_certify, main, parse_config


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.scheme == "A2"
        assert cfg.eta == 2
        assert cfg.n_max == 4
        assert cfg.lam == 3  # minimum buffer size for A2, eta=2, n_max=4
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
            ("n_max = 3", "inconsistent"),
            ("runs = 0", "runs"),
            ("nu = 1 2", "nu"),
        ],
    )
    def test_rejections_name_the_problem(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)

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

    def test_labels_aligned(self):
        cfg = parse_config("alpha = 1.35\nrho1 = 0.9\nrho2 = 0.45")
        buf = io.StringIO()
        cmd_certify(cfg, out=buf)
        for line in buf.getvalue().splitlines():
            # every value column starts at character 18
            assert line[17] == " "
            assert line[18] != " "

    def test_warns_on_undersized_buffer(self):
        cfg = parse_config("alpha = 1.2\nrho1 = 0.9\nrho2 = 0.45\nlambda = 1")
        with pytest.warns(UserWarning, match="below the minimum"):
            cmd_certify(cfg, out=io.StringIO())

    def test_missing_alpha_is_config_error(self, capsys):
        code = main(["certify", "--rho1", "0.9", "--rho2", "0.45"])
        err = capsys.readouterr().err
        assert code == 1
        assert "alpha" in err

    def test_b_scheme_rejected(self, capsys):
        code = main(["certify", "--scheme", "B1", "--alpha", "1.2", "--rho1", "0.9"])
        assert code == 1


class TestSweepCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main([
            "sweep", "--scheme", "A1", "--rho1", "0.9", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rho1,alpha_star_closed,alpha_star_spectral"
        assert len(lines) == 20  # header + 19 grid points
        first = lines[1].split(",")
        assert float(first[0]) == 0.05
        assert abs(float(first[1]) - float(first[2])) < 1e-6

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


DATA = Path(__file__).parent / "data"
A2 = ["--scheme", "A2", "--eta", "2", "--rho1", "0.9", "--rho2", "0.45"]

#: ``esac simulate`` runs whose output files were captured with ``--seed 3``
#: from the per-run Monte Carlo loop over the immutable-buffer step functions
#: (before the batched engine and the one scalar stepper existed).  Narrow
#: calls take the per-run path, wide ones the batched engine; the B1 runs
#: have diverging runs.
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


def test_example1_command(capsys):
    code = main(["example1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "A1:" in out and "A2:" in out
    assert "OK" in out


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
