"""Executable per-step logic of the anytime control algorithms.

Four variants are implemented.  ``B1`` and ``B2`` apply a control law
directly when measurement and processor are available and output zero
otherwise.  ``A1`` and ``A2`` maintain a buffer of tentative future inputs:
surplus processing units are spent forward-iterating the plant model to
predict future states and precompute inputs for them.  When no computation
arrives the buffer is shifted (head consumed); when the trigger is silent
the buffer is cleared and the input fixed to zero.

``A2`` fills the buffer with the fine law first: ``N`` granted units split
into ``N // eta`` fine entries followed by ``N % eta`` coarse entries.

All steps are pure: they take a buffer value and return a new one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class ControlLaw:
    """A deterministic state-feedback law with its processing cost.

    ``contraction`` is the Lyapunov contraction factor the law achieves on
    the plant it was designed for; it is carried for bookkeeping and not
    used by the step functions.  ``evaluate`` must also work elementwise on
    a float array, giving each element its scalar value, because the
    batched Monte Carlo engine in :mod:`esac.simulate` calls it on arrays.
    """

    evaluate: Callable
    cost_units: int = 1
    contraction: float | None = None

    def __post_init__(self):
        if self.cost_units < 1:
            raise ValueError(f"cost_units must be >= 1, got {self.cost_units}")

    def __call__(self, x):
        return self.evaluate(x)


@dataclass(frozen=True)
class Buffer:
    """Fixed-size buffer of tentative inputs with fine/coarse counts.

    The first ``fine_count`` stored values were produced by the fine law,
    the next ``coarse_count`` by the coarse law; remaining slots are zero.
    """

    values: tuple
    fine_count: int
    coarse_count: int

    def __post_init__(self):
        if self.fine_count < 0 or self.coarse_count < 0:
            raise ValueError("counts must be nonnegative")
        if self.fine_count + self.coarse_count > len(self.values):
            raise ValueError("counts exceed buffer size")

    @classmethod
    def empty(cls, size: int) -> "Buffer":
        if size < 1:
            raise ValueError(f"buffer size must be >= 1, got {size}")
        return cls(values=(0.0,) * size, fine_count=0, coarse_count=0)

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def counts(self) -> tuple[int, int]:
        return (self.fine_count, self.coarse_count)

    @property
    def head(self):
        return self.values[0]


def shift(b: Buffer) -> Buffer:
    """Consume the buffer head: remaining entries move up, zero enters last."""
    values = b.values[1:] + (0.0,)
    if b.fine_count > 0:
        return Buffer(values, b.fine_count - 1, b.coarse_count)
    if b.coarse_count > 0:
        return Buffer(values, b.fine_count, b.coarse_count - 1)
    return Buffer(values, 0, 0)


def _check_env(gamma: int, n: int):
    if gamma not in (0, 1, 2):
        raise ValueError(f"gamma must be 0, 1 or 2, got {gamma}")
    if gamma != 1 and n != 0:
        raise ValueError(f"no processing units can be granted when gamma={gamma}, got N={n}")


def _predict(x, laws, f, limit: int) -> list:
    # Forward-iterate the plant model, applying each law in sequence;
    # entries beyond the buffer capacity can never be consumed and are
    # dropped from the tail.
    values = []
    chi = x
    for law in laws[:limit]:
        u = law(chi)
        values.append(u)
        chi = f(chi, u)
    return values


def _refill(b: Buffer, values: list, fine: int) -> Buffer:
    padded = tuple(values) + (0.0,) * (b.size - len(values))
    fine = min(fine, len(values))
    return Buffer(padded, fine, len(values) - fine)


def a1_step(b: Buffer, x, gamma: int, n: int, kappa1: ControlLaw, f) -> tuple:
    """One step of the one-law buffered scheme.

    Returns ``(u, new_buffer)``.  A grant of ``n`` units produces ``n``
    coarse predictions overwriting the buffer; no grant shifts; an
    untriggered step clears the buffer and outputs zero.
    """
    _check_env(gamma, n)
    if gamma == 2:
        return 0.0, Buffer.empty(b.size)
    if gamma == 1 and n > 0:
        values = _predict(x, [kappa1] * n, f, b.size)
        nb = _refill(b, values, fine=len(values))
        return nb.head, nb
    nb = shift(b)
    return nb.head, nb


def a2_step(b: Buffer, x, gamma: int, n: int, kappa1: ControlLaw, kappa2: ControlLaw,
            eta: int, f) -> tuple:
    """One step of the two-law buffered scheme.

    A grant of ``n`` units is split into ``n // eta`` fine-law entries
    followed by ``n % eta`` coarse-law entries, predicted by forward
    iteration and truncated at the buffer size (fine entries kept first).
    Shift and clear branches are as in :func:`a1_step`.
    """
    if eta < 1:
        raise ValueError(f"eta must be >= 1, got {eta}")
    _check_env(gamma, n)
    if gamma == 2:
        return 0.0, Buffer.empty(b.size)
    if gamma == 1 and n > 0:
        tau, m = divmod(n, eta)
        values = _predict(x, [kappa2] * tau + [kappa1] * m, f, b.size)
        nb = _refill(b, values, fine=tau)
        return nb.head, nb
    nb = shift(b)
    return nb.head, nb


def b_step(variant: str, x, gamma: int, n: int, kappa1: ControlLaw,
           kappa2: ControlLaw | None, eta: int):
    """One step of the buffer-free schemes.

    ``B1`` applies the coarse law whenever at least one unit is granted.
    ``B2`` applies the fine law when ``n >= eta``, the coarse law when
    ``0 < n < eta``, zero otherwise.
    """
    _check_env(gamma, n)
    if variant == "B1":
        return kappa1(x) if gamma == 1 and n >= 1 else 0.0
    if variant == "B2":
        if gamma != 1 or n == 0:
            return 0.0
        if n >= eta:
            return kappa2(x)
        return kappa1(x)
    raise ValueError(f"unknown buffer-free variant {variant!r}")
