"""Command-line front end.

Subcommands (the keys of :data:`COMMANDS`)
------------------------------------------
certify    print a certification report; exit 0 if certified, 2 if not
sweep      write the boundary CSV (``rho1,alpha_star_closed,alpha_star_lower,alpha_star_upper``)
simulate   write the Monte Carlo mean-V CSV (``k,mean_v,trigger_rate``) and, with
           ``--trajectory-csv``, the seed run's CSV (``k,x,u,gamma,N,F,C,v``)
example1   print and verify the scripted three-step buffer traces
selftest   run the acceptance suite, one pass/fail line per criterion

Configuration comes from an optional ``key=value`` file (``#`` comments) of any keys, overridden
by ``--<key>`` for the keys a command reads (:data:`_KEY_PARSERS`).  Every key given is checked by
the library's rules, whether or not the command reads it.  Exit codes: 0 success (certified),
2 not certified, 1 usage, configuration or numerical error, or a closed stdout pipe.

Every CSV file is written by :func:`_write_csv`: numbers with 12 significant
digits and ``.`` decimal separator, ``\\n`` line endings, so identical
configuration and seed produce byte-identical files.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import acceptance
from .channel import ChannelModel
from .schemes import _REAL_RANGES, SCHEMES, _as_count, _as_real, resolve
from .simulate import PlantModel, SchemeConfig, example_system, monte_carlo, simulate_trajectory
from .stability import ContractionSpec, _as_weights, certify
from .sweep import BoundaryPoint, SweepSpec, boundary_curve


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters shared by all subcommands."""

    scheme: str = "A2"
    eta: int = 2
    lam: int | None = None  # buffer size; defaults to the scheme's minimum
    n_max: int | None = None  # resolved from p
    d: float = 1.0
    q: float = 0.5
    p: tuple = (0.2, 0.2, 0.2, 0.2, 0.2)
    alpha: float | None = None
    rho1: float | None = None
    rho2: float | None = None
    epsilon: float | None = None
    horizon: int = 200
    runs: int = 10000
    seed: int = 1
    nu: tuple | None = None
    noise_std: float = 1.0
    output: str | None = None


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configuration."""


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"malformed number {raw!r}") from None


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"malformed integer {raw!r}") from None


def _parse_vector(raw: str) -> tuple:
    return tuple(_parse_float(tok) for tok in raw.split())


_LOOP = ("certify", "sweep", "simulate")  # the commands that configure a loop
#: Key -> (parser, the commands that read it, and so the only ones that take ``--<key>``).
_KEY_PARSERS = {
    "scheme": (str, _LOOP),
    "eta": (_parse_int, _LOOP),
    "lambda": (_parse_int, _LOOP),  # sweep refuses one below the minimum
    "d": (_parse_float, ("certify", "simulate")),
    "q": (_parse_float, _LOOP),
    "p": (_parse_vector, _LOOP),
    "alpha": (_parse_float, ("certify",)),
    "rho1": (_parse_float, _LOOP),
    "rho2": (_parse_float, _LOOP),
    "epsilon": (_parse_float, _LOOP),
    "horizon": (_parse_int, ("simulate",)),
    "runs": (_parse_int, ("simulate",)),
    "seed": (_parse_int, ("simulate",)),
    "nu": (_parse_vector, ("certify",)),
    "noise_std": (_parse_float, ("simulate",)),
    "output": (str, ("sweep", "simulate")),
}
_KEY_TO_FIELD = {"lambda": "lam"}


def parse_config(text: str, overrides=()) -> RunConfig:
    """Build a :class:`RunConfig` from a key=value document plus overrides.

    ``overrides`` is an iterable of ``(key, value-string)`` pairs applied
    after the file; errors name the offending key and line.
    """
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        try:
            values[key] = _parse_key(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}, key {key!r}: {exc}") from None
    for key, raw in overrides:
        try:
            values[key] = _parse_key(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"flag {key!r}: {exc}") from None
    cfg = replace(RunConfig(), **{_KEY_TO_FIELD.get(k, k): v for k, v in values.items()})
    return _validate(cfg, explicit=set(values))


def _parse_key(key: str, raw: str):
    if key not in _KEY_PARSERS:
        raise ConfigError(f"unknown key {key!r} (known: {', '.join(sorted(_KEY_PARSERS))})")
    return _KEY_PARSERS[key][0](raw)


def _validate(cfg: RunConfig, explicit: set) -> RunConfig:
    try:
        for key in sorted(explicit & _REAL_RANGES.keys()):  # each real key given, read or not
            _as_real(getattr(cfg, key), key)
        n_max = ChannelModel(q=cfg.q, p=np.array(cfg.p)).n_max
        eta, lam, rho2 = resolve(cfg.scheme, cfg.eta, cfg.lam, n_max, cfg.rho1, cfg.rho2)
        horizon, runs = _as_count(cfg.horizon, "horizon"), _as_count(cfg.runs, "runs")
        _as_count(cfg.seed, "seed", least=0)
        if cfg.nu is not None:
            _as_weights(cfg.nu, n_max + 1)
    except ValueError as exc:  # each message names what it refuses
        raise ConfigError(str(exc)) from None
    if "rho2" in explicit and "epsilon" in explicit:
        raise ConfigError("give exactly one of rho2 and epsilon, not both")
    epsilon = cfg.epsilon
    if not SCHEMES[cfg.scheme].two_law:  # the coarse law runs in the fine law's place
        if epsilon not in (None, 1.0):
            raise ConfigError(f"scheme {cfg.scheme} runs the coarse law only: "
                              f"epsilon={epsilon} must be 1 or be left out")
        if cfg.rho2 not in (None, cfg.rho1):
            raise ConfigError(f"scheme {cfg.scheme} runs the coarse law only: "
                              f"rho2={cfg.rho2} must equal rho1={cfg.rho1} or be left out")
        epsilon = 1.0
    elif rho2 is None and epsilon is not None and cfg.rho1 is not None:
        # epsilon without rho1 is fine for sweep, which ranges over rho1
        rho2 = epsilon * cfg.rho1
    elif epsilon is None and rho2 is not None and cfg.rho1:
        epsilon = rho2 / cfg.rho1
    return replace(cfg, eta=eta, lam=lam, n_max=n_max, rho2=rho2, epsilon=epsilon,
                   horizon=horizon, runs=runs)


def _channel(cfg: RunConfig) -> ChannelModel:
    return ChannelModel(q=cfg.q, p=np.array(cfg.p))


def _require(cfg: RunConfig, *names):
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"{name} is required for this command")


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _write_csv(path: str, header, rows) -> None:
    """Write ``rows`` under the column names ``header``: floats through
    :func:`_fmt`, anything else through ``str``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    print(f"wrote {path}")


def cmd_certify(cfg: RunConfig) -> int:
    _require(cfg, "alpha", "rho1", "rho2")
    spec = ContractionSpec(alpha=cfg.alpha, rho1=cfg.rho1, rho2=cfg.rho2, eta=cfg.eta,
                           d_bound=cfg.d)
    report = certify(spec, _channel(cfg).l, nu=cfg.nu, buffer_size=cfg.lam)
    index_name = "psi" if SCHEMES[cfg.scheme].two_law else "omega"
    print(f"scheme            {cfg.scheme} (eta={cfg.eta}, n_max={cfg.n_max})")
    print(f"alpha/rho1/rho2   {_fmt(cfg.alpha)} / {_fmt(cfg.rho1)} / {_fmt(cfg.rho2)}")
    print(f"spectral radius   {_fmt(report.spectral_radius)}")
    if report.closed_form is not None:
        print(f"{'closed form ' + index_name:<18}{_fmt(report.closed_form)}")
    if report.certified:
        print(f"xi                {_fmt(report.xi)}")
        print(f"C1                {_fmt(report.c1)}")
        print(f"C2                {_fmt(report.c2)}")
    print(f"verdict           {report.verdict}")
    return 0 if report.certified else 2


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.epsilon is None:
        raise ConfigError("sweep requires epsilon (or rho1 with rho2)")
    if cfg.lam < (minimum := resolve(cfg.scheme, cfg.eta, None, cfg.n_max)[1]):
        raise ConfigError(f"sweep traces the untruncated buffer: lambda={cfg.lam} is below "
                          f"{cfg.scheme}'s minimum {minimum}; use certify for a truncated buffer")
    spec = SweepSpec(scheme=cfg.scheme, eta=cfg.eta, epsilon=cfg.epsilon,
                     channel=_channel(cfg), n_max=cfg.n_max)
    points = boundary_curve(spec)  # no file for a failed curve
    _write_csv(cfg.output or "sweep.csv", BoundaryPoint._fields, points)
    return 0


def _build_scheme_config(cfg: RunConfig) -> tuple[PlantModel, SchemeConfig]:
    _require(cfg, "rho1", "rho2")
    plant, kappa1, law_factory = example_system(cfg.rho1)
    return replace(plant, noise_std=cfg.noise_std), SchemeConfig(
        scheme=cfg.scheme, kappa1=kappa1, kappa2=law_factory(cfg.rho2), eta=cfg.eta,
        buffer_size=cfg.lam, d=cfg.d, q=cfg.q, p=cfg.p,
    )


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    plant, scheme_config = _build_scheme_config(cfg)
    result = monte_carlo(plant, scheme_config, cfg.horizon, cfg.runs, cfg.seed)
    _write_csv(cfg.output or "simulate.csv", ("k", "mean_v", "trigger_rate"),
               zip(range(cfg.horizon + 1), result.mean_v, result.trigger_rate))
    if result.divergent_runs:
        print(f"note: {result.divergent_runs} of {cfg.runs} runs diverged "
              "(last finite value carried forward)")
    if args.trajectory_csv is not None:
        t = simulate_trajectory(plant, scheme_config, cfg.horizon, cfg.seed)
        _write_csv(args.trajectory_csv, ("k", "x", "u", "gamma", "N", "F", "C", "v"),
                   zip(range(t.steps), t.x, t.u, t.gamma, t.n, t.fine, t.coarse, t.v))
    return 0


def cmd_example1() -> int:
    replay = acceptance.run_example1()
    for scheme in ("A1", "A2"):
        buffers, inputs = replay[0][scheme]
        print(f"{scheme}:")
        for k, (buf, u) in enumerate(zip(buffers, inputs)):
            print(f"  k={k}  u={_fmt(u)}  buffer=({', '.join(_fmt(v) for v in buf)})")
    ok = acceptance.criterion_example1(replay).passed
    print("verified against symbolic compositions: " + ("OK" if ok else "MISMATCH"))
    return 0 if ok else 1


def cmd_selftest() -> int:
    results = acceptance.run_all(verbose_print=print)
    return 0 if all(r.passed for r in results) else 1


#: Subcommand name -> (help text, runner): ``runner(cfg, args)`` returns the exit code.
COMMANDS = {
    "certify": ("certify one configuration analytically", lambda cfg, args: cmd_certify(cfg)),
    "sweep": ("write the stability-boundary CSV over rho1", lambda cfg, args: cmd_sweep(cfg)),
    "simulate": ("Monte Carlo closed-loop simulation, mean-V CSV", cmd_simulate),
    "example1": ("print and verify the scripted buffer traces", lambda cfg, args: cmd_example1()),
    "selftest": ("run the acceptance suite", lambda cfg, args: cmd_selftest()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esac",
        description="Certification and Monte Carlo validation of buffered "
        "event-triggered anytime control schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run, config=None)
        keys = [key for key, (_, readers) in _KEY_PARSERS.items() if name in readers]
        if keys:
            p.add_argument("--config", help="key=value configuration file")
        for key in keys:
            p.add_argument(f"--{key}", dest=f"key_{key}", metavar="V")
        if run is cmd_simulate:  # the one runner that reads a flag of its own
            p.add_argument("--trajectory-csv", metavar="PATH",
                           help="also dump the seed run's trajectory")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error exits 2, which is certify's NotCertified
        if exc.code != 2:  # --help
            raise
        return 1
    try:
        text = ""
        if args.config:
            with open(args.config) as fh:
                text = fh.read()
        overrides = [(key, raw) for key in _KEY_PARSERS  # a command has flags of its keys only
                     if (raw := getattr(args, f"key_{key}", None)) is not None]
        cfg = parse_config(text, overrides)
        code = args.run(cfg, args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the reader closed stdout: stop quietly, as on SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the flush at exit
        return 1
    except (ConfigError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
