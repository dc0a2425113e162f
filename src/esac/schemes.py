"""The E-SAC schemes: their table, the one rule of what they run with, their stepper.

:data:`SCHEMES` maps each scheme to ``(buffered, two_law)``, and :func:`resolve` is
the one lookup of a name: every other module reads the table after it has checked the name.
``B1`` and ``B2`` apply a control law directly when measurement and
processor are available and output zero otherwise.  ``A1`` and ``A2``
maintain a buffer of tentative future inputs: surplus processing units are
spent forward-iterating the plant model to predict future states and
precompute inputs for them.  When no computation arrives the buffer is
shifted (head consumed); when the trigger is silent the buffer is cleared
and the input fixed to zero.  The two-law schemes fill the buffer with the
fine law first: ``N`` granted units split into ``N // eta`` fine entries
followed by ``N % eta`` coarse entries.

All four are one buffer run with the ``(eta, slots, fine law)`` that only :func:`resolve`
checks and derives, and :meth:`Buffer.step` takes them.  It stores every entry of a grant
and is the scripted and reference stepper: both engines of :mod:`esac.simulate` step the
buffer's chain state (:mod:`esac.chain`) instead.  A count (``eta``, a buffer size,
``n_max``, a horizon, runs) is an integer >= 1 by :func:`_as_count`, its one check: a numpy
integer counts as the equal ``int``, and ``2.0`` or ``True`` is refused by a ``ValueError``
naming it.  A real number (a gain, ``d_bound``, ``q``, ``d``, ``noise_std``, ``x0``, ``epsilon``)
has one check too, :func:`_as_real`, against its one range in :data:`_REAL_RANGES`.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple


class SchemeKind(NamedTuple):
    buffered: bool
    two_law: bool


#: Whether each scheme keeps a buffer and whether it runs two laws.
SCHEMES = {
    "A1": SchemeKind(buffered=True, two_law=False),
    "A2": SchemeKind(buffered=True, two_law=True),
    "B1": SchemeKind(buffered=False, two_law=False),
    "B2": SchemeKind(buffered=False, two_law=True),
}

_BIG = math.nextafter(math.inf, 0.0)  # the largest float, so "<= _BIG" refuses inf and NaN
#: Each real parameter's range ``least <= value <= most`` (which NaN fails) and its words.
_REAL_RANGES = {"x0": (-_BIG, _BIG, "be finite"), "d": (0.0, math.inf, "be >= 0"),
                **dict.fromkeys(("alpha", "rho1", "rho2", "d_bound", "noise_std"),
                                (0.0, _BIG, "be finite and >= 0")),
                **dict.fromkeys(("q", "epsilon"), (0.0, 1.0, "be in [0, 1]")),
                "rho1 grid": (5e-324, 1 - 2**-53, "lie strictly inside (0, 1)")}  # next to 0, 1


def _as_count(value, name: str, most: int | None = None, least: int = 1) -> int:
    """``value`` as an ``int`` from ``least`` to ``most`` (``None``: no bound), else ValueError."""
    try:
        if isinstance(value, bool):  # an int subclass, but a flag, not a count
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < least or most is not None and count > most:
        rule = f"be >= {least}" if most is None else f"satisfy {least} <= {name} <= n_max={most}"
        raise ValueError(f"{name} must {rule}, got {count}")
    return count


def _as_real(value, name: str):
    """``value`` if real and in ``name``'s range, a numpy one as ``.item()``, else ValueError."""
    if type(value) is not float:  # a real number: a Python or numpy int or float, or a 0-d array
        flag = isinstance(value, bool) or getattr(value, "dtype", None) == bool  # compares as 0, 1
        if flag or not (isinstance(value, (int, float))
                        or getattr(value, "ndim", 1) == 0 and value.dtype.kind in "iuf"):
            raise ValueError(f"{name} must be a real number{', not a flag' * flag}, got {value!r}")
        value = value.item() if hasattr(value, "dtype") else value
    least, most, rule = _REAL_RANGES[name]
    if not least <= value <= most:
        raise ValueError(f"{name} must {rule}, got {value}")
    return value


def resolve(scheme: str, eta: int, buffer_size: int | None, n_max: int,
            coarse=None, fine=None) -> tuple:
    """``(eta, slots, fine)`` that run ``scheme`` on grants of up to ``n_max`` units.

    ``n_max``, ``eta`` and ``buffer_size`` are counts (:func:`_as_count`), ``eta <= n_max``
    for a two-law scheme (else its fine law never runs), and ``buffer_size=None`` is the
    smallest size from which the chain stops changing.  A one-law scheme runs ``coarse`` (a
    law or a contraction) as its fine law with ``eta = 1``; an unbuffered scheme has one slot.
    """
    kind = SCHEMES.get(scheme)
    if kind is None:
        raise ValueError(f"unknown scheme {scheme!r}: expected one of {', '.join(SCHEMES)}")
    n_max = _as_count(n_max, "n_max")  # a processor that never computes fits no eta or size
    eta = _as_count(eta, "eta", n_max if kind.two_law else None)
    if not kind.two_law:
        eta, fine = 1, coarse
    if buffer_size is None:  # the most entries, n // eta + n % eta, that a grant computes
        buffer_size = max(sum(divmod(n, eta)) for n in range(n_max + 1))
    else:
        buffer_size = _as_count(buffer_size, "buffer_size (lambda)")
    return eta, buffer_size if kind.buffered else 1, fine


@dataclass(frozen=True)
class ControlLaw:
    """A deterministic state-feedback law.

    ``contraction`` is the Lyapunov contraction factor the law achieves on
    the plant it was designed for; it is carried for bookkeeping and not
    used by the stepper.  ``evaluate`` must also work elementwise on
    a float array, giving each element its scalar value, because the
    batched Monte Carlo engine in :mod:`esac.simulate` calls it on arrays.
    """

    evaluate: Callable
    contraction: float | None = None

    def __call__(self, x):
        return self.evaluate(x)


class Buffer:
    """Mutable fixed-size buffer of tentative inputs with fine/coarse counts.

    The first ``fine_count`` stored values were produced by the fine law,
    the next ``coarse_count`` by the coarse law; remaining slots are zero.
    """

    __slots__ = ("values", "fine_count", "coarse_count")

    def __init__(self, size: int):
        self.values = [0.0] * _as_count(size, "buffer size")
        self.fine_count = 0
        self.coarse_count = 0

    @property
    def counts(self) -> tuple[int, int]:
        return (self.fine_count, self.coarse_count)

    def step(self, x, gamma: int, n: int, kappa1: ControlLaw, kappa2: ControlLaw,
             eta: int, f):
        """Advance the buffer by one step and return the input to apply.

        ``gamma`` is 1 for a received measurement, 0 for a lost one and 2
        for a silent trigger; ``n`` is the number of granted units.  A grant
        overwrites the buffer with ``n // eta`` fine-law entries followed by
        ``n % eta`` coarse-law entries, truncated at the buffer size (fine
        entries kept first); each entry is the law applied to the state
        that the prediction model ``f(x, u)`` forward-iterates from ``x``.
        No grant shifts the buffer (head consumed, zero enters last), and a
        silent trigger clears it and applies zero.  It checks nothing.
        """
        values = self.values
        if gamma == 1 and n:
            fine, coarse = divmod(n, eta)
            size = len(values)
            count = min(fine + coarse, size)
            fine = min(fine, count)
            u = values[0] = (kappa2 if fine else kappa1).evaluate(x)
            for j in range(1, count):
                x = f(x, u)  # no prediction follows the last entry: it is never read
                u = values[j] = (kappa2 if j < fine else kappa1).evaluate(x)
            for j in range(count, size):
                values[j] = 0.0
            self.fine_count = fine
            self.coarse_count = count - fine
            return values[0]
        if gamma == 2:
            for j in range(len(values)):
                values[j] = 0.0
            self.fine_count = self.coarse_count = 0
            return 0.0
        del values[0]
        values.append(0.0)
        if self.fine_count:
            self.fine_count -= 1
        elif self.coarse_count:
            self.coarse_count -= 1
        return values[0]
