"""Buffer-content Markov chain of the anytime control schemes.

During triggered periods the buffer content is summarised by the pair
``(F, C)``: the number of fine-law and coarse-law tentative inputs stored.
State ``i`` (zero-based) is ``(i // eta, i % eta)``, giving ``n_max + 1``
states in total.  On each triggered step the buffer is either overwritten
by a fresh computation of ``N = n`` units (probability ``l[n]``), landing in
the state of :func:`grant_targets`, or, when no computation arrives
(probability ``l[0]``), shifted by :func:`shift_targets`: the head is
consumed, so 0 stays empty, a coarse-only state ``i < eta`` moves to
``i - 1`` and a state with a fine head to ``i - eta``.

A grant of ``n`` units lands in state ``n`` unless the buffer truncates it:
:func:`transition_matrix` is the chain of a buffer that never does, and of
any buffer, such as the one slot of ``B1`` and ``B2``, given
:func:`fold_grants` of ``l``.  Both Monte Carlo engines in
:mod:`esac.simulate` move each run's state ``i`` by the same two tables.
"""
from __future__ import annotations

import numpy as np

from .channel import PMF_SUM_TOL, _as_prob_vector
from .schemes import scheme_kind


def _validate_effective_pmf(l) -> np.ndarray:
    l = _as_prob_vector(l, "l")
    if np.any(l < 0.0) or np.any(l > 1.0):
        raise ValueError("l entries must lie in [0, 1]")
    total = l.sum()
    if abs(total - 1.0) > PMF_SUM_TOL:
        raise ValueError(f"l must sum to 1 within {PMF_SUM_TOL}, got sum {total!r}")
    if l.size < 2:
        raise ValueError("l must have length n_max + 1 >= 2")
    return l


def shift_targets(states: int, eta: int) -> list[int]:
    """The state that a shift leads to from each state ``0 .. states - 1``:
    the head entry is consumed."""
    return [max(i - (1 if i < eta else eta), 0) for i in range(states)]


def grant_targets(states: int, eta: int, slots: int) -> list[int]:
    """The state that a grant of each ``n = 0 .. states - 1`` units leads to in
    a ``slots``-slot buffer: ``min(n // eta, slots)`` fine entries, then coarse
    ones up to the slot count, as :meth:`esac.schemes.Buffer.step` cuts it."""
    fine = [min(n // eta, slots) for n in range(states)]
    return [f * eta + min(n % eta, slots - f) for n, f in enumerate(fine)]


def fold_grants(l, eta: int, slots: int) -> np.ndarray:
    """``l`` with each grant's mass moved to its state in a ``slots``-slot
    buffer: :func:`transition_matrix` of the result is that buffer's chain."""
    return np.bincount(grant_targets(len(l), eta, slots), weights=l, minlength=len(l))


def transition_matrix(l, eta: int) -> np.ndarray:
    """Read-only ``(n_max + 1) x (n_max + 1)`` triggered-period transition matrix.

    Row ``i``: entry ``l[j]`` in column ``j`` for every ``j >= 1`` (a fresh
    computation overwrites the buffer), plus ``l[0]`` mass on the state
    that a shift of ``i`` leads to.
    """
    l = _validate_effective_pmf(l)
    if eta < 1:
        raise ValueError(f"eta must be >= 1, got {eta}")
    pi = np.tile(l, (l.size, 1))
    pi[:, 0] = 0.0
    for i, j in enumerate(shift_targets(l.size, eta)):
        pi[i, j] += l[0]
    pi.flags.writeable = False
    return pi


def min_buffer_size(scheme: str, eta: int, n_max: int) -> int:
    """Smallest buffer size from which the chain, and so the boundary, stops
    changing: the most entries, ``n // eta + n % eta``, that a grant of
    ``n <= n_max`` units computes (``eta = 1`` for a one-law scheme), or the
    one slot of an unbuffered scheme."""
    kind = scheme_kind(scheme)
    eta = eta if kind.two_law else 1
    return kind.slots(max(sum(divmod(n, eta)) for n in range(n_max + 1)))
