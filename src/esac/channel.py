"""Channel and processor-availability statistics.

The sensor transmits only on trigger; a transmission succeeds with
probability ``q``.  Given a successful transmission, the processor grants
``j`` processing units with probability ``p[j]``.  Folding the dropout into
the no-computation event gives the effective availability pmf ``l``:

    l[0] = p[0]*q + (1 - q)        (no new computation this step)
    l[j] = p[j]*q,  j >= 1         (j units granted)

``l`` drives the buffer-content Markov chain.

One rule says what a valid channel is, and every layer (the certificate,
the simulator's :class:`~esac.simulate.SchemeConfig` and the command line)
checks it here: ``q`` is a real number in [0, 1] (:func:`esac.schemes._as_real`, which
refuses a flag, a string, ``None`` or an array by name), and ``p`` is a
vector of at least two entries (``n_max >= 1``: a processor that can never
compute has no loop to certify) in [0, 1] that sums to one within
``PMF_SUM_TOL``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .schemes import _as_real

#: Tolerance for validating that a probability vector sums to one.  Vectors
#: outside this tolerance are rejected, never silently renormalised.
PMF_SUM_TOL = 1e-9


def _as_pmf(v, name: str) -> np.ndarray:
    """``v`` as a float pmf: 1-D with at least two entries, entries in [0, 1],
    sum within ``PMF_SUM_TOL`` of one.  The range test also refuses NaN and
    infinities."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError(f"{name} must be a 1-D vector of at least two entries "
                         f"(n_max >= 1), got shape {v.shape}")
    if not (v.min() >= 0.0 and v.max() <= 1.0):
        raise ValueError(f"{name} entries must lie in [0, 1], got {v}")
    total = float(v.sum())  # a Python float, so that its repr is a plain number
    if abs(total - 1.0) > PMF_SUM_TOL:
        raise ValueError(f"{name} must sum to 1 within {PMF_SUM_TOL}, got sum {total!r}")
    return v


def effective_availability(q: float, p) -> np.ndarray:
    """Fold dropout probability into the processor pmf.

    Parameters
    ----------
    q : float
        Probability of successful transmission given a trigger, in [0, 1].
    p : array_like
        Processor-availability pmf ``p[0..n_max]``, ``n_max >= 1``: entries
        in [0, 1], summing to one.

    Returns
    -------
    numpy.ndarray
        Effective pmf ``l`` of the same length, summing to one.
    """
    l = _as_real(q, "q") * _as_pmf(p, "p")
    l[0] += 1.0 - q
    return l


@dataclass(frozen=True, eq=False)
class ChannelModel:
    """Dropout probability, processor pmf and derived effective pmf.

    ``l`` is computed from ``q`` and ``p`` on construction and should not be
    supplied by the caller.  Compared and hashed by identity, as arrays have no
    single truth value.
    """

    q: float
    p: np.ndarray
    l: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = np.array(self.p, dtype=float)  # a copy: the caller's array stays writeable
        l = effective_availability(self.q, p)
        p.flags.writeable = False
        l.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "l", l)

    @property
    def n_max(self) -> int:
        """Largest number of processing units the processor can grant."""
        return self.p.size - 1
