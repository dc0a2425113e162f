"""Monte Carlo check that the certificates mean something in closed loop.

Runs the benchmark plant under all three configurations.  The certified
one (two-law, eta=2, alpha=1.35 below its boundary) should settle to a
small mean Lyapunov value; the other two sit above their boundaries at
the same alpha and drift.  A noise-free batch is then compared step by
step against the certified expectation bound.

Runs in about a second (0.8 s on 2 vCPUs with Python 3.11 and numpy 2.4).
"""
import numpy as np

from esac import ContractionSpec, PlantModel, certify, example_system, monte_carlo
from esac.acceptance import benchmark_scheme_config
from esac.channel import effective_availability

RUNS = 2000
HORIZON = 200
SEED = 11

plant, _, _ = example_system()

print(f"{RUNS} runs, horizon {HORIZON}")
print("config            mean V at k=100   at k=200   trigger rate")
for tag, label in (("Q1", "A2 eta=2 (certified)"),
                   ("Q2", "A2 eta=3"),
                   ("Q3", "A1")):
    result = monte_carlo(plant, benchmark_scheme_config(tag), HORIZON, RUNS, SEED)
    print(f"{label:<22}{result.mean_v[100]:10.2f}{result.mean_v[200]:11.3g}"
          f"{result.overall_trigger_rate:12.3f}")

# noise-free: the geometric bound from the certificate must dominate
l = effective_availability(0.5, np.full(5, 0.2))
report = certify(ContractionSpec(alpha=1.35, rho1=0.9, rho2=0.45, eta=2), l)
quiet = PlantModel(step=plant.step, noise_std=0.0, x0=plant.x0, lyapunov=plant.lyapunov)
result = monte_carlo(quiet, benchmark_scheme_config("Q1"), HORIZON, RUNS, SEED)
ks = np.arange(HORIZON + 1)
bound = report.c1 * report.xi ** ks * plant.lyapunov(plant.x0) + report.c2
margin = (bound - result.mean_v).min()
print(f"\nnoise-free expectation bound: min margin {margin:.1f} "
      f"({'holds' if margin >= 0 else 'VIOLATED'})")
