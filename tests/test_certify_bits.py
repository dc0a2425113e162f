"""Every bit of the certificate on random configurations.

``tests/data/certify_bits.json`` holds 60 configurations (A1, A2, B1 and B2; ``n_max``
1 to 12; buffer size ``None``, 1 or the minimum; default or random ``nu``; certified and
not) with every field of their ``certify`` report and of ``critical_alpha`` at one point
and on the 19-point default grid, all floats as ``float.hex`` strings and refusals as
``"<type>: <message>"``.  The six ``esac certify`` text reports print 12 digits; this file
pins the bits.  ``test_certificate_bits`` checks the ``certify`` report and
``test_boundary_bits`` both ``critical_alpha`` results.  No field depends on the LAPACK
build: the witnesses, closed forms, brackets and ``certify``'s ``spectral_radius`` (the root of
the chain's secular equation) come from recursions along the chain in IEEE float operations,
whose bits are the same on every BLAS kernel.  The file was written with numpy 2.4 on x86-64.

The file is written by ``PYTHONPATH=src python tests/test_certify_bits.py``, which should
be run only for a declared change of the certificate's output.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from esac.chain import min_buffer_size
from esac.channel import effective_availability
from esac.stability import ContractionSpec, CriticalAlpha, certify, critical_alpha
from esac.sweep import DEFAULT_RHO1_GRID

GOLDEN = Path(__file__).parent / "data" / "certify_bits.json"
REPORT_FIELDS = ("phi", "t_matrix", "spectral_radius", "closed_form", "zeta", "xi", "c1",
                 "c2", "verdict")


def _bits(value):
    """``value`` with each float as its hex string, arrays as nested lists."""
    if value is None or isinstance(value, str):
        return value
    a = np.asarray(value, dtype=float)
    return float(a).hex() if a.ndim == 0 else [_bits(v) for v in a]


def _outcome(fn, fields):
    try:
        result = fn()
    except (ValueError, ArithmeticError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {name: _bits(getattr(result, name)) for name in fields}


BOUNDARY_KEYS = ("critical_alpha_1", "critical_alpha_19")


def outputs(config, keys=("certify",) + BOUNDARY_KEYS) -> dict:
    """The ``certify`` report and both ``critical_alpha`` results of one configuration, or
    those of them that ``keys`` names."""
    scheme, eta, slots = config["scheme"], config["eta"], config["buffer_size"]
    alpha, rho1, rho2, d_bound, epsilon = (
        float.fromhex(config[k]) for k in ("alpha", "rho1", "rho2", "d_bound", "epsilon"))
    l = np.array([float.fromhex(v) for v in config["l"]])
    nu = None if config["nu"] is None else np.array([float.fromhex(v) for v in config["nu"]])
    spec = ContractionSpec(alpha=alpha, rho1=rho1, rho2=rho2, eta=eta, d_bound=d_bound)
    grid = np.array(DEFAULT_RHO1_GRID)
    calls = {
        "certify": (lambda: certify(spec, l, nu, slots), REPORT_FIELDS),
        "critical_alpha_1": (
            lambda: critical_alpha(scheme, eta, rho1, rho2, l, l.size - 1), CriticalAlpha._fields),
        "critical_alpha_19": (
            lambda: critical_alpha(scheme, eta, grid, epsilon * grid, l, l.size - 1),
            CriticalAlpha._fields),
    }
    return {key: _outcome(*calls[key]) for key in keys}


def draw_configs(count=60, seed=30) -> list[dict]:
    """``count`` configurations, the schemes in turn and ``n_max`` cycling through 1 .. 12."""
    rng = np.random.default_rng(seed)
    configs = []
    for i in range(count):
        scheme, n_max = ("A1", "A2", "B1", "B2")[i % 4], 1 + (i // 4) % 12
        two_law = scheme[1] == "2"
        eta = int(rng.integers(1, n_max + 1)) if two_law else 1
        rho1 = rng.uniform(0.01, 1.1)
        epsilon = rng.uniform(0.0, 1.0) if two_law else 1.0
        l = effective_availability(rng.uniform(0.05, 0.95), rng.dirichlet(np.ones(n_max + 1)))
        minimum = min_buffer_size(scheme, eta, n_max)
        slots = 1 if scheme[0] == "B" else (None, 1, minimum)[int(rng.integers(3))]
        configs.append({
            "scheme": scheme, "eta": eta, "buffer_size": slots,
            "alpha": _bits(rng.uniform(0.5, 2.5)), "rho1": _bits(rho1),
            "rho2": _bits(epsilon * rho1), "epsilon": _bits(epsilon),
            "d_bound": _bits(rng.uniform(0.5, 2.0)), "l": _bits(l),
            "nu": _bits(rng.uniform(0.5, 2.0, n_max + 1)) if rng.random() < 0.5 else None,
        })
    return configs


CASES = json.loads(GOLDEN.read_text())["configs"] if GOLDEN.exists() else []
IDS = [f"{i:02d}-{c['scheme']}" for i, c in enumerate(CASES)]


def test_golden_covers_the_promised_configurations():
    assert len(CASES) == 60
    assert {c["scheme"] for c in CASES} == {"A1", "A2", "B1", "B2"}
    assert {len(c["l"]) - 1 for c in CASES} == set(range(1, 13))
    assert {c["buffer_size"] for c in CASES if c["scheme"][0] == "A"} > {None, 1}
    assert {c["nu"] is None for c in CASES} == {True, False}
    verdicts = {c["outputs"]["certify"].get("verdict") for c in CASES}
    assert verdicts == {"CertifiedStable", "NotCertified"}


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_certificate_bits(case):
    assert outputs(case, ["certify"]) == {"certify": case["outputs"]["certify"]}


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_boundary_bits(case):
    assert outputs(case, BOUNDARY_KEYS) == {key: case["outputs"][key] for key in BOUNDARY_KEYS}


if __name__ == "__main__":
    configs = draw_configs()
    for config in configs:
        config["outputs"] = outputs(config)
    lines = ",\n".join(json.dumps(config) for config in configs)  # one configuration a line
    GOLDEN.write_text(f'{{"configs": [\n{lines}\n]}}\n')
