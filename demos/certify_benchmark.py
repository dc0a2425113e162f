"""Certify the three benchmark configurations and the unbuffered baselines.

Walks the full pipeline once per configuration: build the effective
availability pmf, assemble the buffer chain and certification matrix,
check the Perron root, and (when certified) print the geometric bound
constants.  The boundary alpha* is printed with its bracket, whose ends
carry Collatz-Wielandt witnesses.  The unbuffered schemes B1 and B2 run
the same chain with one slot: ``certify``'s ``buffer_size`` moves each
grant's mass to the state that the one slot leaves.  The last block pushes
alpha past the boundary to show a refusal.
"""
import numpy as np

from esac import ChannelModel, ContractionSpec, certify, critical_alpha
from esac.schemes import resolve

channel = ChannelModel(q=0.5, p=np.full(5, 0.2))

CONFIGS = [
    ("A2", "two-law, eta=2", 2, 0.9, 0.45),
    ("A2", "two-law, eta=3", 3, 0.9, 0.45),
    ("A1", "one-law", 1, 0.9, 0.9),
    ("B1", "unbuffered one-law", 1, 0.9, 0.9),
    ("B2", "unbuffered two-law, eta=2", 2, 0.9, 0.45),
]

for scheme, name, eta, rho1, rho2 in CONFIGS:
    boundary = critical_alpha(scheme, eta, rho1, rho2, channel.l, channel.n_max)
    alpha = 1.35 if boundary.closed > 1.35 else round(boundary.closed - 0.01, 2)
    spec = ContractionSpec(alpha=alpha, rho1=rho1, rho2=rho2, eta=eta)
    slots = resolve(scheme, eta, None, channel.n_max)[1]  # the minimum size: 1 for B1 and B2
    report = certify(spec, channel.l, buffer_size=slots)
    print(f"{scheme} {name}  (rho1={rho1}, rho2={rho2}, lambda={slots})")
    print(f"  boundary alpha*     {boundary.closed:.6f}  "
          f"(witnessed in ({boundary.lower:.10f}, {boundary.upper:.10f}])")
    print(f"  tested at alpha     {alpha}")
    print(f"  spectral radius     {report.spectral_radius:.6f}")
    print(f"  verdict             {report.verdict}")
    if report.certified:
        print(f"  E(V(x_k)) <= {report.c1:.3f} * {report.xi:.6f}**k * V(x0) + {report.c2:.1f}")
    print()

# past the boundary the same machinery refuses
spec = ContractionSpec(alpha=1.40, rho1=0.9, rho2=0.45, eta=2)
report = certify(spec, channel.l)
print(f"alpha=1.40 (above the eta=2 boundary): {report.verdict}, "
      f"radius {report.spectral_radius:.4f}, index {report.closed_form:.4f}")
