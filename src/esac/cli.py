"""Command-line front end.

Subcommands
-----------
certify    print a certification report; exit 0 if certified, 2 if not
sweep      write the stability-boundary CSV (``rho1,alpha_star_closed,alpha_star_spectral``)
simulate   write the Monte Carlo mean-V CSV (``k,mean_v,trigger_rate``)
example1   print and verify the scripted three-step buffer traces
selftest   run the acceptance suite, one pass/fail line per criterion

Configuration comes from an optional ``key=value`` file (``#`` comments)
overridden by command-line flags of the same names.  Exit codes: 0 success
(certified), 2 not certified, 1 configuration or numerical error.

Numbers in CSV files are written with 12 significant digits, ``.`` decimal
separator and ``\\n`` line endings, so identical configuration and seed
produce byte-identical files.
"""
from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import acceptance
from .chain import min_buffer_size
from .channel import ChannelModel
from .schemes import ControlLaw, require_buffered, scheme_kind
from .simulate import PlantModel, SchemeConfig, example_system, monte_carlo, simulate_trajectory
from .stability import ContractionSpec, certify
from .sweep import SweepSpec, boundary_curve


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters shared by all subcommands."""

    scheme: str = "A2"
    eta: int = 2
    lam: int | None = None  # buffer size; defaults to the scheme's minimum
    n_max: int | None = None
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


_KEY_PARSERS = {
    "scheme": str,
    "eta": _parse_int,
    "lambda": _parse_int,
    "n_max": _parse_int,
    "d": _parse_float,
    "q": _parse_float,
    "p": _parse_vector,
    "alpha": _parse_float,
    "rho1": _parse_float,
    "rho2": _parse_float,
    "epsilon": _parse_float,
    "horizon": _parse_int,
    "runs": _parse_int,
    "seed": _parse_int,
    "nu": _parse_vector,
    "noise_std": _parse_float,
    "output": str,
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
    return _KEY_PARSERS[key](raw)


def _validate(cfg: RunConfig, explicit: set) -> RunConfig:
    try:
        buffered, two_law = scheme_kind(cfg.scheme)
        channel = ChannelModel(q=cfg.q, p=np.array(cfg.p))
    except ValueError as exc:  # message already names the scheme, q or p
        raise ConfigError(str(exc)) from None
    n_max = channel.n_max if cfg.n_max is None else cfg.n_max
    if n_max != channel.n_max:
        raise ConfigError(f"n_max={cfg.n_max} inconsistent with p of length {len(cfg.p)}")
    eta = cfg.eta if two_law else 1
    if not 1 <= eta <= n_max:
        raise ConfigError(f"eta must satisfy 1 <= eta <= n_max={n_max}, got {eta}")
    if "rho2" in explicit and "epsilon" in explicit:
        raise ConfigError("give exactly one of rho2 and epsilon, not both")
    rho2, epsilon = cfg.rho2, cfg.epsilon
    if not two_law:  # the coarse law runs in the fine law's place
        if epsilon not in (None, 1.0):
            raise ConfigError(f"scheme {cfg.scheme} runs the coarse law only: "
                              f"epsilon={epsilon} must be 1 or be left out")
        if rho2 not in (None, cfg.rho1):
            raise ConfigError(f"scheme {cfg.scheme} runs the coarse law only: "
                              f"rho2={rho2} must equal rho1={cfg.rho1} or be left out")
        rho2, epsilon = cfg.rho1, 1.0
    elif rho2 is None and epsilon is not None and cfg.rho1 is not None:
        # epsilon without rho1 is fine for sweep, which ranges over rho1
        rho2 = epsilon * cfg.rho1
    lam = cfg.lam
    if lam is None:
        lam = min_buffer_size(cfg.scheme, eta, n_max) if buffered else 1
    if cfg.horizon < 1 or cfg.runs < 1:
        raise ConfigError("horizon and runs must be >= 1")
    if cfg.nu is not None and (len(cfg.nu) != n_max + 1 or any(v <= 0 for v in cfg.nu)):
        raise ConfigError(f"nu must be {n_max + 1} strictly positive entries")
    return replace(cfg, eta=eta, lam=lam, n_max=n_max, rho2=rho2, epsilon=epsilon)


def _channel(cfg: RunConfig) -> ChannelModel:
    return ChannelModel(q=cfg.q, p=np.array(cfg.p))


def _require(cfg: RunConfig, *names):
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"{name} is required for this command")


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def cmd_certify(cfg: RunConfig, out=None) -> int:
    out = out if out is not None else sys.stdout
    minimum = min_buffer_size(cfg.scheme, cfg.eta, cfg.n_max)  # buffered schemes only
    _require(cfg, "alpha", "rho1", "rho2")
    if cfg.lam < minimum:
        warnings.warn(
            f"buffer size {cfg.lam} below the minimum {minimum}: the chain, and hence "
            "the certificate, does not describe this configuration",
            stacklevel=2,
        )
    spec = ContractionSpec(alpha=cfg.alpha, rho1=cfg.rho1, rho2=cfg.rho2, eta=cfg.eta,
                           d_bound=cfg.d)
    report = certify(spec, _channel(cfg).l, nu=cfg.nu)
    index_name = "omega" if cfg.eta == 1 else "psi"
    print(f"scheme            {cfg.scheme} (eta={cfg.eta}, n_max={cfg.n_max})", file=out)
    print(f"alpha/rho1/rho2   {_fmt(cfg.alpha)} / {_fmt(cfg.rho1)} / {_fmt(cfg.rho2)}", file=out)
    print(f"spectral radius   {_fmt(report.spectral_radius)}", file=out)
    if report.closed_form is not None:
        print(f"{'closed form ' + index_name:<18}{_fmt(report.closed_form)}", file=out)
    if report.certified:
        print(f"xi                {_fmt(report.xi)}", file=out)
        print(f"C1                {_fmt(report.c1)}", file=out)
        print(f"C2                {_fmt(report.c2)}", file=out)
    print(f"verdict           {report.verdict}", file=out)
    return 0 if report.certified else 2


def cmd_sweep(cfg: RunConfig) -> int:
    require_buffered(cfg.scheme)
    if cfg.epsilon is not None:
        epsilon = cfg.epsilon
    elif cfg.rho1 and cfg.rho2 is not None:
        epsilon = cfg.rho2 / cfg.rho1
    else:
        raise ConfigError("sweep requires epsilon (or rho1 with rho2)")
    spec = SweepSpec(scheme=cfg.scheme, eta=cfg.eta, epsilon=epsilon,
                     channel=_channel(cfg), n_max=cfg.n_max)
    path = cfg.output or "sweep.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("rho1,alpha_star_closed,alpha_star_spectral\n")
        for point in boundary_curve(spec):
            fh.write(f"{_fmt(point.rho1)},{_fmt(point.alpha_star_closed)},"
                     f"{_fmt(point.alpha_star_spectral)}\n")
    print(f"wrote {path}")
    return 0


def _build_scheme_config(cfg: RunConfig) -> tuple[PlantModel, SchemeConfig]:
    _require(cfg, "rho1", "rho2")
    plant_default, _, law_factory = example_system(cfg.rho1)
    plant = PlantModel(step=plant_default.step, noise_std=cfg.noise_std,
                       x0=plant_default.x0, lyapunov=plant_default.lyapunov)
    kappa1 = law_factory(cfg.rho1)
    kappa2 = law_factory(cfg.rho2)
    return plant, SchemeConfig(
        scheme=cfg.scheme, kappa1=kappa1, kappa2=kappa2, eta=cfg.eta,
        buffer_size=cfg.lam, d=cfg.d, q=cfg.q, p=cfg.p,
    )


def cmd_simulate(cfg: RunConfig, trajectory_csv: str | None = None) -> int:
    plant, scheme_config = _build_scheme_config(cfg)
    result = monte_carlo(plant, scheme_config, cfg.horizon, cfg.runs, cfg.seed)
    path = cfg.output or "simulate.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("k,mean_v,trigger_rate\n")
        for k in range(cfg.horizon + 1):
            fh.write(f"{k},{_fmt(result.mean_v[k])},{_fmt(result.trigger_rate[k])}\n")
    print(f"wrote {path}")
    if result.divergent_runs:
        print(f"note: {result.divergent_runs} of {cfg.runs} runs diverged "
              "(last finite value carried forward)")
    if trajectory_csv is not None:
        traj = simulate_trajectory(plant, scheme_config, cfg.horizon, cfg.seed)
        with open(trajectory_csv, "w", newline="\n") as fh:
            fh.write("k,x,u,gamma,N,F,C,v\n")
            for k in range(traj.steps):
                fh.write(
                    f"{k},{_fmt(traj.x[k])},{_fmt(traj.u[k])},{traj.gamma[k]},"
                    f"{traj.n[k]},{traj.fine[k]},{traj.coarse[k]},{_fmt(traj.v[k])}\n"
                )
        print(f"wrote {trajectory_csv}")
    return 0


def cmd_example1(out=None) -> int:
    out = out if out is not None else sys.stdout
    records, _ = acceptance.run_example1()
    for scheme in ("A1", "A2"):
        buffers, inputs = records[scheme]
        print(f"{scheme}:", file=out)
        for k, (buf, u) in enumerate(zip(buffers, inputs)):
            print(f"  k={k}  u={_fmt(u)}  buffer=({', '.join(_fmt(v) for v in buf)})", file=out)
    ok = acceptance.criterion_example1().passed
    print("verified against symbolic compositions: " + ("OK" if ok else "MISMATCH"), file=out)
    return 0 if ok else 1


def cmd_selftest() -> int:
    results = acceptance.run_all(verbose_print=print)
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esac",
        description="Certification and Monte Carlo validation of buffered "
        "event-triggered anytime control schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("certify", "certify one configuration analytically"),
        ("sweep", "write the stability-boundary CSV over rho1"),
        ("simulate", "Monte Carlo closed-loop simulation, mean-V CSV"),
        ("example1", "print and verify the scripted buffer traces"),
        ("selftest", "run the acceptance suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value configuration file")
        for key in _KEY_PARSERS:
            p.add_argument(f"--{key}", dest=f"key_{key}", metavar="V")
        if name == "simulate":
            p.add_argument("--trajectory-csv", metavar="PATH",
                           help="also dump the seed run's trajectory")
    return parser


def dispatch(command: str, cfg: RunConfig, trajectory_csv: str | None = None) -> int:
    """Run one subcommand against a resolved configuration."""
    if command == "certify":
        return cmd_certify(cfg)
    if command == "sweep":
        return cmd_sweep(cfg)
    if command == "simulate":
        return cmd_simulate(cfg, trajectory_csv=trajectory_csv)
    if command == "example1":
        return cmd_example1()
    if command == "selftest":
        return cmd_selftest()
    raise ConfigError(f"unknown command {command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = ""
        if getattr(args, "config", None):
            with open(args.config) as fh:
                text = fh.read()
        overrides = [
            (key, getattr(args, f"key_{key}"))
            for key in _KEY_PARSERS
            if getattr(args, f"key_{key}", None) is not None
        ]
        cfg = parse_config(text, overrides)
        return dispatch(args.command, cfg, getattr(args, "trajectory_csv", None))
    except (ConfigError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
