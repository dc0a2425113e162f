"""Step the buffered schemes by hand through a fixed three-step scenario.

The environment is scripted instead of sampled: a grant of 3 units, then
no computation (buffer shift), then a grant of 2 units.  Printing the
buffer after each step makes the difference between the one-law and
two-law refill rules visible; the verdict is the library's own
scripted-scenario check.  Exits with status 1 when a trace differs from its
symbolic composition.
"""
import sys

from esac.acceptance import criterion_example1, run_example1
from esac.schemes import Buffer, ControlLaw

records, _ = run_example1()

SCRIPT = [(1, 3), (1, 0), (1, 2)]
for scheme, caption in (("A1", "one coarse prediction per unit"),
                        ("A2", "units split into fine (cost 2) then coarse")):
    buffers, inputs = records[scheme]
    print(f"{scheme} ({caption})")
    for k, ((gamma, n), buf, u) in enumerate(zip(SCRIPT, buffers, inputs)):
        event = f"grant N={n}" if n else "no computation"
        cells = ", ".join(f"{v:9.4f}" for v in buf)
        print(f"  k={k}  {event:<16} u={u:9.4f}   buffer after: [{cells}]")
    print()
verdict = criterion_example1()
print(f"traces match their symbolic compositions exactly: {verdict.passed}\n")

# the same stepper also works on a standalone toy problem
double = ControlLaw(lambda x: 2.0 * x)
negate = ControlLaw(lambda x: -x)
buf = Buffer(4)
u = buf.step(1.0, gamma=1, n=5, kappa1=double, kappa2=negate, eta=2,
             f=lambda x, u: 0.5 * x + u)
print(f"toy plant x'=0.5x+u, grant of 5 units at eta=2: "
      f"u={u}, buffer={tuple(buf.values)}, (fine, coarse)={buf.counts}")
if not verdict.passed:
    sys.exit("a scripted trace differs from its symbolic composition")
