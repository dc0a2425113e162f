"""Call-site tracing for the benchmark's traced run.

The tracer wraps public names of the ``esac`` modules (and the plant and law
callables the benchmark builds) from outside the package, so the package
itself carries no instrumentation.  Every wrapped call adds its duration to
its caller's child time, which gives each name a self time: its own
duration minus the part covered by wrapped calls beneath it.

Per-step calls (scheme steps, plant and law evaluations, chain builds,
spectral radii) are aggregated into a call count, total time and self time
per name, which keeps memory bounded.  Calls named in ``SPAN_NAMES`` (one
Monte Carlo batch, trajectory, certification, boundary curve or critical
alpha) are also kept as full spans with their parent span, and every call
is also aggregated per scope, the name of its nearest enclosing span (so the
chain builds inside ``critical_alpha`` are told from those inside
``certify``).

The wrapper's own cost is measured once per tracer (``calibrate``) and taken
out of the reported times: per call, ``inner_s`` falls inside the call's own
timed interval and ``outer_s`` inside its caller's.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

#: Names recorded as individual spans as well as aggregated.
SPAN_NAMES = frozenset({
    "simulate.monte_carlo",
    "simulate.simulate_trajectory",
    "stability.certify",
    "sweep.boundary_curve",
    "sweep.critical_alpha",
})

#: (module, attribute, traced name) patched for the duration of a traced run.
#: The package resolves these names through its module globals at call time,
#: so patching the attribute intercepts the internal calls too.  A name that
#: a later version no longer defines is skipped and reports a zero count.
MODULE_PATCHES = (
    ("esac.simulate", "simulate_trajectory", "simulate.simulate_trajectory"),
    ("esac.simulate", "a1_step", None),
    ("esac.simulate", "a2_step", None),
    ("esac.simulate", "b_step", None),
    ("esac.stability", "spectral_radius", "stability.spectral_radius"),
    ("esac.stability", "transition_matrix", "chain.transition_matrix"),
    ("esac.stability", "psi_a2", "stability.psi_a2"),
    ("esac.stability", "omega_a1", "stability.omega_a1"),
    ("esac.stability", "solve_certificate", "stability.solve_certificate"),
    ("esac.sweep", "critical_alpha", "sweep.critical_alpha"),
    ("esac.channel", "effective_availability", "channel.effective_availability"),
)


def step_branch(gamma, n) -> str:
    """Scheme branch taken for the environment outcome ``(gamma, n)``."""
    if gamma == 2:
        return "schemes.clear"
    if gamma == 1 and n > 0:
        return "schemes.refill"
    return "schemes.shift"


class Tracer:
    """Aggregated call statistics and spans of one traced run."""

    def __init__(self):
        # (scope, name) -> [calls, total_s, self_s, direct child calls, all descendant calls]
        self.scoped: dict[tuple, list] = {}
        self.spans: list[tuple] = []  # (span_id, parent_id, name, start_s, end_s)
        self.consumed = 0  # scheme steps whose input came from a law evaluation
        self.inner_s = self.outer_s = 0.0
        # per active call: [child_s, span_id, children, descendants, scope, scope of children]
        self._stack: list[list] = []
        self._origin = time.perf_counter()

    def calibrate(self, calls: int = 20_000, repeats: int = 5):
        """Measure the wrapper's cost per call with a loop of no-op calls."""
        inner, outer = [], []
        for _ in range(repeats):
            probe = Tracer()
            child = probe.wrap(lambda: None, "child")

            def loop():
                for _ in range(calls):
                    child()

            probe.wrap(loop, "parent")()
            stats = probe.stats()
            inner.append(stats["child"][1] / calls)
            outer.append((stats["parent"][2] - inner[-1]) / calls)
        self.inner_s, self.outer_s = sorted(inner)[repeats // 2], sorted(outer)[repeats // 2]

    def stats(self) -> dict:
        """Statistics per name, summed over scopes."""
        totals = {}
        for (_, name), stat in self.scoped.items():
            total = totals.setdefault(name, [0, 0.0, 0.0, 0, 0])
            for i, value in enumerate(stat):
                total[i] += value
        return totals

    def corrected(self, stat) -> tuple:
        """``(calls, total_s, self_s)`` of a statistic, less the wrapper's cost."""
        calls, total, own, children, descendants = stat
        return (calls,
                max(0.0, total - self.inner_s * calls - (self.inner_s + self.outer_s) * descendants),
                max(0.0, own - self.inner_s * calls - self.outer_s * children))

    def _enter(self, name: str) -> list:
        scope = self._stack[-1][5] if self._stack else None
        span_id = None
        if name in SPAN_NAMES:
            span_id = len(self.spans)
            self.spans.append(None)  # reserved; filled on exit
        frame = [0.0, span_id, 0, 0, scope, scope if span_id is None else name]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, t0: float, t1: float):
        stack = self._stack
        stack.pop()
        dt = t1 - t0
        if stack:
            parent = stack[-1]
            parent[0] += dt
            parent[2] += 1
            parent[3] += 1 + frame[3]
        key = (frame[4], name)
        stat = self.scoped.get(key)
        if stat is None:
            stat = self.scoped[key] = [0, 0.0, 0.0, 0, 0]
        stat[0] += 1
        stat[1] += dt
        stat[2] += dt - frame[0]
        stat[3] += frame[2]
        stat[4] += frame[3]
        if frame[1] is not None:
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            self.spans[frame[1]] = (frame[1], parent, name,
                                    t0 - self._origin, t1 - self._origin)

    def wrap(self, fn, name: str):
        """Return ``fn`` timed under ``name``."""
        perf = time.perf_counter

        def traced(*args, **kwargs):
            frame = self._enter(name)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, frame, t0, perf())

        return traced

    def wrap_step(self, fn):
        """Return a scheme step function timed under its branch name.

        All step functions take ``(.., .., gamma, n, ...)``.  A step counts as
        consuming a prediction when its input came from a law evaluation: a
        buffered step that leaves a nonempty buffer (the applied head was a
        stored entry), or a buffer-free step that applied a law.
        """
        perf = time.perf_counter

        def traced(*args, **kwargs):
            name = step_branch(args[2], args[3])
            frame = self._enter(name)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, t0, perf())
            if name != "schemes.clear":
                if isinstance(result, tuple):
                    buf = result[1]
                    self.consumed += buf.fine_count + buf.coarse_count > 0
                else:
                    self.consumed += name == "schemes.refill"
            return result

        return traced

    @contextmanager
    def patched(self, modules):
        """Patch ``MODULE_PATCHES`` in ``modules`` (name -> module) and restore."""
        saved = []
        try:
            for module_name, attr, name in MODULE_PATCHES:
                module = modules[module_name]
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap_step(fn) if name is None else self.wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
