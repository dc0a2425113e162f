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
:func:`transition_matrix` takes the slot count of a buffer that does, such as
the one slot of ``B1`` and ``B2``, and none for one that never does.  Both
Monte Carlo engines in :mod:`esac.simulate` move each run's state ``i`` by the
table that :class:`esac.simulate.SchemeConfig` builds once and apply the law
:func:`law_of` gives it, whose gain the certificate's Phi holds.
"""
from __future__ import annotations

import numpy as np

from .channel import _as_pmf
from .schemes import _as_count


def law_of(states: int, eta: int) -> list[int]:
    """The law that heads each state: 0 (none) in the empty state 0, 1 (coarse)
    in ``1 .. eta - 1`` and 2 (fine) from ``eta`` on."""
    return [(i > 0) + (i >= eta) for i in range(states)]


def _shift_column(states: int, eta: int) -> list[int]:
    # Column 0 of jump_table: no computation consumes the head and its cost.
    return [i - (0, 1, eta)[law] for i, law in enumerate(law_of(states, eta))]


def _grant_row(states: int, eta: int, slots: int) -> list[int]:
    # Row 0 of jump_table: where a grant of n = 0 .. states - 1 units leads.
    fine = [min(n // eta, slots) for n in range(states)]
    return [f * eta + min(n % eta, slots - f) for n, f in enumerate(fine)]


def jump_table(states: int, eta: int, slots: int) -> list[list[int]]:
    """Where a triggered step leads from each state ``i = 0 .. states - 1``:
    ``table[i][0]`` with no computation, which consumes the head entry and
    its cost (0, 1 or ``eta`` by :func:`law_of`), and ``table[i][n]`` after a
    grant of ``n`` units to a ``slots``-slot buffer: ``min(n // eta, slots)``
    fine entries, then coarse ones up to the slot count, as
    :meth:`esac.schemes.Buffer.step` cuts it.  All three arguments are counts
    (:func:`esac.schemes._as_count`)."""
    states, eta = _as_count(states, "states"), _as_count(eta, "eta")
    slots = _as_count(slots, "slots")
    grants = _grant_row(states, eta, slots)[1:]
    return [[shift, *grants] for shift in _shift_column(states, eta)]


def transition_matrix(l, eta: int, slots: int | None = None) -> np.ndarray:
    """Read-only ``(n_max + 1) x (n_max + 1)`` triggered-period transition matrix
    of a ``slots``-slot buffer (a count; ``None`` for one that never truncates a grant).

    Row ``i``: the mass ``l[n]`` of each grant ``n >= 1`` on its state (row 0 of
    :func:`jump_table`), plus ``l[0]`` mass on the state that no computation
    leads to from ``i`` (column 0 of :func:`jump_table`).
    """
    l, eta = _as_pmf(l, "l"), _as_count(eta, "eta")
    if slots is not None:  # each grant's mass moves to its state in the buffer
        l = np.bincount(_grant_row(l.size, eta, _as_count(slots, "slots")), l, l.size)
    n = l.size
    pi = np.zeros((n, n))
    pi[:, 1:] = l[1:]
    pi.ravel()[np.arange(0, n * n, n) + _shift_column(n, eta)] += l[0]  # row i's shift entry
    pi.flags.writeable = False
    return pi

