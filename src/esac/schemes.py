"""The E-SAC schemes: their table, the one rule of what they run with, their stepper.

:data:`SCHEMES` maps each scheme to ``(buffered, two_law)``, and every other
module reads names through :func:`scheme_kind`.
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
naming it.  A real number (a gain, ``d_bound``, ``q``, ``d``, ``noise_std``, ``x0``) is never
a flag either: :func:`_refuse_flag` refuses ``True`` or ``numpy.True_`` there by name.
"""
from __future__ import annotations

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


def scheme_kind(scheme: str) -> SchemeKind:
    """``(buffered, two_law)`` of ``scheme``; ``ValueError`` for an unknown name."""
    try:
        return SCHEMES[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}: expected one of "
                         f"{', '.join(SCHEMES)}") from None


def _as_count(value, name: str, most: int | None = None) -> int:
    """``value`` as an ``int`` from 1 to ``most`` (``n_max``, or ``None``), else ValueError."""
    try:
        if isinstance(value, bool):  # an int subclass, but a flag, not a count
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < 1 or most is not None and count > most:
        rule = "be >= 1" if most is None else f"satisfy 1 <= {name} <= n_max={most}"
        raise ValueError(f"{name} must {rule}, got {count}")
    return count


def _refuse_flag(value, name: str):
    """Raise ValueError if ``value``, read as a real number, is a ``bool`` or has a bool dtype
    (``numpy.bool_``, a 0-d bool array)."""
    if isinstance(value, bool) or getattr(value, "dtype", None) == bool:
        raise ValueError(f"{name} must be a real number, not a flag, got {value!r}")


def resolve(scheme: str, eta: int, buffer_size: int | None, n_max: int,
            coarse=None, fine=None) -> tuple:
    """``(eta, slots, fine)`` that run ``scheme`` on grants of up to ``n_max`` units.

    ``n_max``, ``eta`` and ``buffer_size`` are counts (:func:`_as_count`), ``eta <= n_max``
    for a two-law scheme (else its fine law never runs), and ``buffer_size=None`` is the
    smallest size from which the chain stops changing.  A one-law scheme runs ``coarse`` (a
    law or a contraction) as its fine law with ``eta = 1``; an unbuffered scheme has one slot.
    """
    kind = scheme_kind(scheme)
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
