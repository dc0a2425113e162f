"""The public surface: the names ``esac`` exports and the module attributes
that outside call-site tracing (``bench/tracing.py``) patches."""
import importlib

import pytest

import esac


def test_exported_names():
    assert sorted(esac.__all__) == [
        "BoundaryPoint",
        "Buffer",
        "CertificationReport",
        "ChannelModel",
        "ContractionSpec",
        "ControlLaw",
        "CriticalAlpha",
        "MonteCarloResult",
        "PlantModel",
        "SchemeConfig",
        "SweepSpec",
        "Trajectory",
        "block_schur_g1",
        "boundary_curve",
        "certification_matrix",
        "certify",
        "critical_alpha",
        "effective_availability",
        "example_system",
        "gain_diagonal",
        "min_buffer_size",
        "monte_carlo",
        "simulate_trajectory",
        "solve_certificate",
        "spectral_radius",
        "theorem1_bounds",
        "transition_matrix",
    ]
    assert len(esac.__all__) == 27
    for name in esac.__all__:
        assert hasattr(esac, name), name


def certify_q1():
    esac.certify(esac.ContractionSpec(alpha=1.35, rho1=0.9, rho2=0.45, eta=2),
                 esac.effective_availability(0.5, [0.2] * 5))


def sweep_a1():
    channel = esac.ChannelModel(q=0.5, p=[0.2] * 5)
    esac.boundary_curve(esac.SweepSpec("A1", 1, 1.0, channel, 4, rho1_grid=(0.9,)))


def simulate_narrow():
    plant, kappa1, _ = esac.example_system()
    config = esac.SchemeConfig(scheme="A1", kappa1=kappa1, kappa2=None, eta=1,
                               buffer_size=4, d=1.0, q=0.5, p=(0.2,) * 5)
    esac.monte_carlo(plant, config, horizon=5, runs=2, base_seed=1)


#: Module attributes that call-site tracing replaces, each with a public
#: call that must reach it: the package calls them through these module
#: globals, so a rename or a bypass silently zeroes a traced metric.
TRACED = [
    ("esac.stability", "transition_matrix", certify_q1),
    ("esac.stability", "spectral_radius", certify_q1),
    ("esac.stability", "solve_certificate", certify_q1),
    ("esac.sweep", "critical_alpha", sweep_a1),
    ("esac.simulate", "simulate_trajectory", simulate_narrow),
    ("esac.channel", "effective_availability", sweep_a1),
]


@pytest.mark.parametrize("module, name, call", TRACED, ids=[f"{m}.{n}" for m, n, _ in TRACED])
def test_traced_attribute_is_called(module, name, call, monkeypatch):
    module = importlib.import_module(module)
    inner = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    call()
    assert calls
