"""Buffer-content Markov chain of the anytime control schemes.

During triggered periods the buffer content is summarised by the pair
``(F, C)``: the number of fine-law and coarse-law tentative inputs stored.
State ``i`` (zero-based) is ``(i // eta, i % eta)``, giving ``n_max + 1``
states in total.  On each triggered step the buffer is either overwritten
by a fresh computation of ``N = j`` units (probability ``l[j]``, landing in
state ``j``) or, when no computation arrives (probability ``l[0]``),
shifted: the head entry is consumed.  The empty state 0 stays empty, a
coarse-only state ``i < eta`` moves to ``i - 1``, and a state whose head is
a fine entry moves to ``i - eta``.

The transition matrix is built directly from this rule; by construction
every row sums to one exactly.
"""
from __future__ import annotations

import numpy as np

from .channel import PMF_SUM_TOL, _as_prob_vector


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
    for i in range(l.size):
        pi[i, max(i - (1 if i < eta else eta), 0)] += l[0]
    pi.flags.writeable = False
    return pi


def min_buffer_size(scheme: str, eta: int, n_max: int) -> int:
    """Smallest buffer size for which the chain describes the scheme exactly.

    The chain ignores the physical buffer size; it is valid whenever the
    buffer never truncates a computed sequence.
    """
    if scheme == "A1":
        return n_max
    if scheme == "A2":
        return n_max // eta + (eta - 1)
    raise ValueError(f"unknown buffered scheme {scheme!r}")
