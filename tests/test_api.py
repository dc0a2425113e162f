"""The public surface: the names ``esac`` exports, the module attributes
that outside call-site tracing (``bench/tracing.py``) patches, and the
names each module imports."""
import ast
import importlib
from pathlib import Path

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
        "certify",
        "critical_alpha",
        "effective_availability",
        "example_system",
        "min_buffer_size",
        "monte_carlo",
        "simulate_trajectory",
        "solve_certificate",
        "spectral_radius",
        "transition_matrix",
    ]
    assert len(esac.__all__) == 24
    for name in esac.__all__:
        assert hasattr(esac, name), name


def certify_q1():
    esac.certify(esac.ContractionSpec(alpha=1.35, rho1=0.9, rho2=0.45, eta=2),
                 esac.effective_availability(0.5, [0.2] * 5))


def certify_b1():
    esac.certify(esac.ContractionSpec(alpha=1.05, rho1=0.9, rho2=0.9, eta=1),
                 esac.effective_availability(0.5, [0.2] * 5), buffer_size=1)


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
    ("esac.stability", "transition_matrix", certify_b1),  # the truncated chain
    ("esac.stability", "spectral_radius", certify_q1),
    ("esac.stability", "_structured_solve", certify_q1),  # certify's witness and closed form
    ("esac.sweep", "critical_alpha", sweep_a1),
    ("esac.simulate", "simulate_trajectory", simulate_narrow),
    ("esac.channel", "effective_availability", sweep_a1),
]


@pytest.mark.parametrize("module, name, call", TRACED, ids=[
    f"{m}.{n}" + (" truncated" if c is certify_b1 else "") for m, n, c in TRACED])
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


def test_no_unused_imports():
    unused = []
    for path in sorted(Path(esac.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # imports only to re-export
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                unused += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in used]
    assert unused == []


def test_engines_read_the_chain_of_the_config():
    """Both Monte Carlo engines step the chain that ``SchemeConfig`` resolves
    once: neither resolves the scheme or builds a chain itself."""
    tree = ast.parse(Path(esac.simulate.__file__).read_text())
    engines = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name in ("simulate_trajectory", "_run_batch")}
    assert len(engines) == 2
    for name, node in engines.items():
        called = {call.func.id for call in ast.walk(node)
                  if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
        assert not called & {"resolve", "jump_table", "law_of", "scheme_kind"}, name
