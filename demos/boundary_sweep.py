"""Stability-boundary curves over the coarse-law contraction.

For each scheme the boundary open-loop bound alpha* is computed on the
default rho1 grid with rho2 = epsilon * rho1.  Each closed-form value lies
in a bracket whose ends carry Collatz-Wielandt witnesses, so the largest
half-width bounds the error of every entry of the table.
"""
import numpy as np

from esac import ChannelModel, SweepSpec, boundary_curve

channel = ChannelModel(q=0.5, p=np.full(5, 0.2))

curves = {
    "A2 eta=2": SweepSpec("A2", 2, 0.5, channel, 4),
    "A2 eta=3": SweepSpec("A2", 3, 0.5, channel, 4),
    "A1      ": SweepSpec("A1", 1, 1.0, channel, 4),
}

results = {name: boundary_curve(spec) for name, spec in curves.items()}

print("rho1    " + "".join(f"{name:>12}" for name in curves))
grid = [pt.rho1 for pt in next(iter(results.values()))]
for i, rho1 in enumerate(grid):
    row = "".join(f"{results[name][i].alpha_star_closed:12.5f}" for name in curves)
    print(f"{rho1:.2f}  {row}")

worst = max(pt.discrepancy for pts in results.values() for pt in pts)
print(f"\nlargest proven |alpha*_closed - alpha*| across all points: {worst:.2e}")

# the curves decrease in rho1 (weaker coarse law, less tolerable growth)
# and the finer fine law (smaller epsilon) buys strictly more headroom
tight = boundary_curve(SweepSpec("A2", 2, 0.3, channel, 4, rho1_grid=(0.9,)))[0]
loose = next(pt for pt in results["A2 eta=2"] if pt.rho1 == 0.9)
print(f"at rho1=0.9: epsilon=0.3 gives alpha*={tight.alpha_star_closed:.5f}, "
      f"epsilon=0.5 gives {loose.alpha_star_closed:.5f}")
