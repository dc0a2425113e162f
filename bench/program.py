"""Loading ``esac`` from this checkout and building the benchmark's set-up.

Shared by ``run.py`` and ``setup_probe.py``, so the set-up that ``setup_s``
times is the set-up every workload runs on.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The paper's three benchmark loops: two-law eta=2, two-law eta=3, one-law.
TAGS = ("Q1", "Q2", "Q3")


def load_esac():
    """Import ``esac`` from ``src/`` of this checkout and nowhere else."""
    if not (SRC / "esac" / "__init__.py").is_file():
        raise ImportError(f"esac sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import esac
    import esac.acceptance

    if Path(esac.__file__).resolve().parent != SRC / "esac":
        raise ImportError(f"esac was imported from {esac.__file__}, not from {SRC}")
    return esac


@dataclass(frozen=True)
class Setup:
    """Plant, loop configurations and certification families of Q1-Q3."""

    plant: object
    configs: dict  # tag -> SchemeConfig
    families: dict  # tag -> (scheme, eta, rho1, rho2)
    curves: dict  # tag -> SweepSpec over the default rho1 grid
    q: float
    p: tuple
    n_max: int


def build(esac) -> Setup:
    """Build everything the workloads need from the public API."""
    plant, _, _ = esac.example_system()
    configs = {tag: esac.acceptance.benchmark_scheme_config(tag) for tag in TAGS}
    families = {}
    for tag, config in configs.items():
        rho1 = config.kappa1.contraction
        rho2 = rho1 if config.kappa2 is None else config.kappa2.contraction
        families[tag] = (config.scheme, config.eta, rho1, rho2)
    q, p = configs["Q1"].q, tuple(configs["Q1"].p)
    channel = esac.ChannelModel(q=q, p=p)
    curves = {
        tag: esac.SweepSpec(scheme=scheme, eta=eta, epsilon=round(rho2 / rho1, 12),
                            channel=channel, n_max=channel.n_max)
        for tag, (scheme, eta, rho1, rho2) in families.items()
    }
    return Setup(plant=plant, configs=configs, families=families, curves=curves,
                 q=q, p=p, n_max=channel.n_max)
