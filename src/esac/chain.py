"""Buffer-content Markov chain of the anytime control schemes.

During triggered periods the buffer content is summarised by the pair
``(F, C)``: the number of fine-law and coarse-law tentative inputs stored.
State ``i`` (zero-based) is ``(i // eta, i % eta)``, giving ``n_max + 1``
states in total.  Each triggered step draws one mode, and
:func:`jump_table` says where each mode leads from each state: with no
computation (probability ``l[0]``) the head is consumed, which moves a
state by the cost of the law that :func:`law_of` gives its head; a fresh
computation of ``N = n`` units (probability ``l[n]``) overwrites the buffer.

A grant of ``n`` units lands in state ``n`` unless the buffer truncates it:
:func:`transition_matrix` is the chain of a buffer that never does, and of
any buffer, such as the one slot of ``B1`` and ``B2``, given
:func:`fold_grants` of ``l``.  Both Monte Carlo engines in
:mod:`esac.simulate` move each run's state ``i`` by the same table and
apply the law :func:`law_of` gives it, whose gain the certificate's Phi holds.
"""
from __future__ import annotations

import numpy as np

from .channel import _as_pmf
from .schemes import resolve


def law_of(states: int, eta: int) -> list[int]:
    """The law that heads each state: 0 (none) in the empty state 0, 1 (coarse)
    in ``1 .. eta - 1`` and 2 (fine) from ``eta`` on."""
    return [(i > 0) + (i >= eta) for i in range(states)]


def jump_table(states: int, eta: int, slots: int) -> list[list[int]]:
    """Where a triggered step leads from each state ``i = 0 .. states - 1``:
    ``table[i][0]`` with no computation, which consumes the head entry and
    its cost (0, 1 or ``eta`` by :func:`law_of`), and ``table[i][n]`` after a
    grant of ``n`` units to a ``slots``-slot buffer: ``min(n // eta, slots)``
    fine entries, then coarse ones up to the slot count, as
    :meth:`esac.schemes.Buffer.step` cuts it."""
    fine = [min(n // eta, slots) for n in range(1, states)]
    grants = [f * eta + min(n % eta, slots - f) for n, f in enumerate(fine, 1)]
    return [[i - (0, 1, eta)[law], *grants] for i, law in enumerate(law_of(states, eta))]


def fold_grants(l, eta: int, slots: int) -> np.ndarray:
    """``l`` with each grant's mass moved to its state in a ``slots``-slot
    buffer: :func:`transition_matrix` of the result is that buffer's chain."""
    return np.bincount(jump_table(len(l), eta, slots)[0], weights=l, minlength=len(l))


def transition_matrix(l, eta: int) -> np.ndarray:
    """Read-only ``(n_max + 1) x (n_max + 1)`` triggered-period transition matrix.

    Row ``i``: entry ``l[j]`` in column ``j`` for every ``j >= 1`` (a fresh
    computation overwrites the buffer), plus ``l[0]`` mass on the state
    that no computation leads to from ``i`` (column 0 of :func:`jump_table`).
    """
    l = _as_pmf(l, "l")
    if eta < 1:
        raise ValueError(f"eta must be >= 1, got {eta}")
    pi = np.tile(l, (l.size, 1))
    pi[:, 0] = 0.0
    for i, row in enumerate(jump_table(l.size, eta, l.size)):
        pi[i, row[0]] += l[0]
    pi.flags.writeable = False
    return pi


def min_buffer_size(scheme: str, eta: int, n_max: int) -> int:
    """Smallest buffer size from which the chain, and so the boundary, stops
    changing, as :func:`esac.schemes.resolve` derives it."""
    return resolve(scheme, eta, None, n_max)[1]
