"""Buffer-content Markov chain of the anytime control schemes.

During triggered periods the buffer content is summarised by the pair
``(F, C)``: the number of fine-law and coarse-law tentative inputs stored.
State ``i`` (zero-based) is ``(i // eta, i % eta)``, giving ``n_max + 1``
states in total.  On each triggered step the buffer is either overwritten
by a fresh computation of ``N = j`` units (probability ``l[j]``, landing in
state ``j``) or, when no computation arrives (probability ``l[0]``),
shifted: the head entry is consumed.  The empty state 0 stays empty, a
coarse-only state ``i < eta`` moves to ``i - 1``, and a state whose head is
a fine entry moves to ``i - eta`` (:func:`shift_targets`).

The transition matrix is built directly from this rule; by construction
every row sums to one exactly.  The batched Monte Carlo engine in
:mod:`esac.simulate` keeps each run's buffer as its state ``i`` and shifts
it by the same rule.
"""
from __future__ import annotations

import numpy as np

from .channel import PMF_SUM_TOL, _as_prob_vector
from .schemes import require_buffered


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
    """Buffer size for which the chain describes the buffered scheme exactly.

    The chain ignores the physical buffer size; it is valid whenever the
    buffer never truncates a computed sequence, which holds at this size:
    the most entries, ``n // eta`` fine plus ``n % eta`` coarse, that a
    grant of ``n <= n_max`` units computes, with ``eta = 1`` for a one-law
    scheme.
    """
    if not require_buffered(scheme):
        eta = 1
    return max(sum(divmod(n, eta)) for n in range(n_max + 1))
