"""Stochastic stability certification for the anytime schemes.

The certification matrix is ``T = Phi @ Pi`` where ``Phi`` is the diagonal of
per-state Lyapunov gain bounds and ``Pi`` the transition matrix of the chain of
a buffer with :func:`certify`'s ``buffer_size`` slots, both built in one place
for :func:`certify` and :func:`critical_alpha`.  The verdict rests on a witness
anyone can check: the solution ``zeta`` of ``(I - T) zeta = nu`` with
``zeta > 0`` and ``T zeta < (1 - SCHUR_TOL) zeta`` entry-wise, which by the
Collatz-Wielandt bound proves the Perron root of ``T`` below 1.  It certifies a
geometric bound ``E{V(x_k)} <= C1 * xi**k * E{V(x_0)} + C2`` on the expected
Lyapunov value.  The Perron root itself is reported from
``numpy.linalg.eigvals``.

The closed-form index (``CertificationReport.closed_form``) is the Schur
complement of ``T`` at the empty-buffer state: ``psi`` for the two-law
scheme A2 and, with ``eta = 1`` and ``rho2 = rho1``, ``omega`` for the
one-law scheme A1.  Given contractions < 1 it is < 1 exactly when ``T``
is Schur stable, and it is linear in the open-loop bound alpha, which
yields the critical alpha in closed form; :func:`critical_alpha` brackets
it by two witnesses.

Malformed input raises ``ValueError``, a missing witness
``numpy.linalg.LinAlgError`` (a ``ValueError`` subclass), and a bracket
that fails its check ``ArithmeticError``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain import law_of, transition_matrix
from .schemes import _as_count, _as_real, resolve

#: Margin of Schur verdicts: a witness must prove spectral radius <= 1 - SCHUR_TOL.
SCHUR_TOL = 1e-9

CERTIFIED = "CertifiedStable"
NOT_CERTIFIED = "NotCertified"


@dataclass(frozen=True)
class ContractionSpec:
    """Per-mode Lyapunov growth/contraction bounds of a scheme.

    ``alpha`` bounds open-loop growth (empty buffer), ``rho1`` the coarse law and ``rho2``
    the fine law, whose cost ``eta`` is a count (:func:`esac.schemes._as_count`) kept as an
    ``int``.  ``alpha`` also bounds the deterministic (untriggered) mode, which applies zero
    input: it is the ``sigma_open`` of Theorem 1's offset ``c2``.  ``d_bound`` is the Lyapunov
    ceiling inside the trigger region; the lower Lyapunov envelope is not carried here.
    """

    alpha: float
    rho1: float
    rho2: float
    eta: int
    d_bound: float = 1.0

    def __post_init__(self):
        fields = vars(self)  # stored as the rule returns them; cheaper than object.__setattr__
        for name in ("alpha", "rho1", "rho2", "d_bound"):
            fields[name] = _as_real(fields[name], name)
        object.__setattr__(self, "eta", _as_count(self.eta, "eta"))
        if self.rho2 > self.rho1:
            raise ValueError(
                f"fine law must contract at least as fast as coarse: "
                f"rho2={self.rho2} > rho1={self.rho1}"
            )
        if self.rho2 == self.rho1 and self.eta > 1:
            warnings.warn("rho2 == rho1: fine law is no better than coarse", stacklevel=2)


@dataclass(frozen=True, eq=False)
class CertificationReport:
    """Outcome of certifying one scheme configuration.

    ``closed_form`` is the scalar index (psi or omega) and is only present
    when both contractions are < 1.  ``zeta`` (the stability witness),
    ``xi``, ``c1``, ``c2`` are present only when the verdict is certified.
    """

    phi: np.ndarray
    t_matrix: np.ndarray
    spectral_radius: float
    closed_form: float | None
    zeta: np.ndarray | None
    xi: float | None
    c1: float | None
    c2: float | None
    verdict: str

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED


def _certification(l, eta, slots, alpha, rho1, rho2) -> tuple[np.ndarray, np.ndarray]:
    # Phi's diagonal [alpha, rho1, rho2][law_of] and T = Phi Pi of the slots-slot buffer's chain
    # (None: a buffer that never truncates).  (G,) gains give (G, n) phi and a (G, n, n) stack.
    pi = transition_matrix(l, eta, slots)
    phi = np.array([alpha, rho1, rho2])[law_of(len(pi), _as_count(eta, "eta", len(pi) - 1))]
    return phi, phi.T[..., None] * pi


def _nonnegative_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not m.size:
        raise ValueError("matrix must have at least one entry, got shape (0, 0)")
    if not (m.min() >= 0.0 and m.max() < math.inf):  # one min and one max; NaN fails both
        raise ValueError("matrix must be entry-wise finite and nonnegative")
    return m


def spectral_radius(m) -> float:
    """Perron root of a nonnegative square matrix: its largest eigenvalue modulus."""
    return float(np.abs(np.linalg.eigvals(_nonnegative_square(m))).max())


def _as_weights(nu, size: int) -> np.ndarray:
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (size,) or not (nu.min() > 0.0 and nu.max() < math.inf):
        raise ValueError(f"nu must be {size} strictly positive finite entries")
    return nu


def solve_certificate(t, nu) -> np.ndarray:
    """Solve ``(I - T) zeta = nu`` and check that ``zeta`` is a stability witness.

    ``T`` must be finite and nonnegative, ``nu`` ``len(T)`` strictly positive
    finite entries (else ``ValueError``).  The solution is accepted only when
    ``zeta > 0`` and ``T zeta < (1 - SCHUR_TOL) zeta`` entry-wise; by the
    Collatz-Wielandt bound that proves ``rho(T) <= 1 - SCHUR_TOL``.
    Otherwise, a singular ``I - T`` included, raises ``LinAlgError``.
    """
    t = _nonnegative_square(t)
    nu = _as_weights(nu, len(t))
    zeta = np.linalg.solve(np.eye(len(t)) - t, nu)
    if not ((zeta > 0.0).all() and (t @ zeta < (1.0 - SCHUR_TOL) * zeta).all()):
        raise np.linalg.LinAlgError("T is not Schur stable: no positive witness zeta")
    return zeta


def _theorem1_bounds(zeta: np.ndarray, nu, sigma_open: float,
                     d_bound: float) -> tuple[float, float, float]:
    # Theorem 1's (xi, c1, c2), as Python floats, from a witness zeta > 0 that solve_certificate
    # accepted for the weights nu it checked: xi = 1 - min(nu)/max(zeta), c1 = max(zeta)/min(zeta).
    # xi still rounds to 1 when an entry of nu is tiny against zeta (1e-20 with rho2 = 0).
    z_min, z_max = float(zeta.min()), float(zeta.max())
    xi = 1.0 - float(np.min(nu)) / z_max
    if not (0.0 <= xi < 1.0):
        raise ValueError(f"inconsistent certificate: xi={xi} outside [0, 1)")
    c1 = z_max / z_min
    d_bar = max(z_min * d_bound, abs(z_max * sigma_open - xi * z_min) * d_bound)
    c2 = d_bar / (z_min * (1.0 - xi))
    return xi, c1, c2


def _schur_index(t: np.ndarray, r=1.0) -> tuple:
    # Schur complement of T at its first row and column, at r: t00 + t01 z with
    # z = (r I - t11)^{-1} t10; then T with row 0 scaled by r / index maps [1; z] to r [1; z].
    # T may be a stack (..., n, n), r broadcasts on it; solve's b has a's rank, as numpy 1.x needs.
    a = np.asarray(r)[..., None, None] * np.eye(t.shape[-1] - 1) - t[..., 1:, 1:]
    z = np.linalg.solve(a, t[..., 1:, :1][(None,) * (a.ndim - t.ndim)])
    return t[..., 0, 0] + (t[..., :1, 1:] @ z)[..., 0, 0], z[..., 0]


def block_schur_g1(h) -> tuple[float, bool]:
    """Schur test via the scalar Schur complement at the (1,1) entry.

    Splits ``h`` into a 1x1 top-left block ``X``, row ``Y``, column ``Z`` and trailing block
    ``M``; requires ``h`` finite and nonnegative, the lemma's hypothesis (checked by
    :func:`spectral_radius`'s rule), and ``M`` with inf-norm < 1 and ``trace(M @ M) < 1``.
    Returns ``(g1, verdict)`` where ``g1 = (1 - X) - Y (I - M)^{-1} Z`` and the verdict
    ``g1 > SCHUR_TOL`` holds exactly when ``h`` is Schur stable.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 2:
        raise ValueError(f"h must be square of size >= 2, got shape {h.shape}")
    m = _nonnegative_square(h)[1:, 1:]
    if not np.linalg.norm(m, ord=np.inf) < 1.0:
        raise ValueError("trailing block must have inf-norm < 1")
    if not np.trace(m @ m) < 1.0:
        raise ValueError("trailing block must satisfy trace(M @ M) < 1")
    g1 = 1.0 - _schur_index(h)[0]
    return g1, g1 > SCHUR_TOL


class CriticalAlpha(NamedTuple):
    """Closed-form boundary open-loop bound inside a witnessed bracket."""

    closed: float
    lower: float
    upper: float
    lower_witness: np.ndarray
    upper_witness: np.ndarray

    @property
    def discrepancy(self) -> float:
        """Proven bound on ``|closed - alpha*|``: both lie in ``(lower, upper]``."""
        return max(self.closed - self.lower, self.upper - self.closed)


def critical_alpha(scheme: str, eta: int, rho1, rho2, l, n_max: int) -> CriticalAlpha:
    """Open-loop bound at which the stability certificate crosses 1.

    ``rho1``, ``rho2`` broadcast as in a numpy ufunc, through one chain and one stack of solves:
    scalars give floats, ``G``-point grids ``(G,)`` bounds and ``(G, n_max + 1)`` witnesses.
    :func:`esac.schemes.resolve` gives ``(eta, slots, rho2)``: the smallest untruncated buffer.
    Only row 0 of ``T`` carries alpha, so ``T(alpha)`` is ``T(1)`` with that
    row scaled, and ``T(r / index(r))`` maps ``[1; z(r)]`` to ``r [1; z(r)]``
    (see ``_schur_index``).  ``closed`` is ``r = 1``.  ``upper`` is
    ``r = 1 + SCHUR_TOL``: ``w = [1; z(r)] >= 0`` with ``T w >= w`` proves the
    Perron root >= 1.  ``lower`` is ``r = 1 - SCHUR_TOL``: ``w = (I - T)^{-1} 1``
    with ``w > 0`` and ``T w < w`` proves it < 1 (Collatz-Wielandt bounds).
    Raises ``ValueError`` when ``n_max != len(l) - 1``, ``resolve`` refuses, ``rho1`` and
    ``rho2`` do not broadcast, a point is no valid ``ContractionSpec`` or ``l[0] = 0``, and
    ``ArithmeticError`` when a check fails; the first failing point in grid order names it.
    """
    if n_max != len(l) - 1:
        raise ValueError(f"n_max={n_max} does not match the channel: l has {len(l)} entries")
    eta, slots, rho2 = resolve(scheme, eta, None, n_max, rho1, rho2)
    rho1, rho2 = np.broadcast_arrays(rho1, rho2)  # in their own dtypes: a flag stays a flag
    for name, rho in (("rho1", rho1), ("rho2", rho2)):  # "< 1" below reads real numbers only
        for r in rho.ravel().tolist() if rho.dtype != float else ():  # float64 entries are real
            _as_real(r, name)
    shape, rho1, rho2 = rho1.shape, rho1.ravel().astype(float), rho2.ravel().astype(float)
    for r1, r2 in zip(rho1.tolist(), rho2.tolist()):  # each point's scalar checks, in order
        if not (r1 < 1.0 and r2 < 1.0):
            raise ValueError("critical_alpha requires rho1 < 1 and rho2 < 1")
        ContractionSpec(alpha=1.0, rho1=r1, rho2=r2, eta=eta)
    t_one = _certification(l, eta, slots, np.ones(rho1.size), rho1, rho2)[1]
    r = np.array([1.0, 1.0 + SCHUR_TOL, 1.0 - SCHUR_TOL])[:, None]
    index, z = _schur_index(t_one, r)
    if not np.all(index[0] > 0.0):  # 0 exactly when l[0] = 0: no state returns to state 0
        raise ValueError("l[0] = 0: the Perron root of T does not depend on alpha, "
                         "so there is no stability boundary")
    closed, upper, lower = r / index
    up = np.ones((rho1.size, n_max + 1, 1))
    up[:, 1:, 0] = z[1]
    t_low, t_up = t_one.copy(), t_one  # T(lower), T(upper): row 0 scaled
    t_low[:, 0] *= lower[:, None]
    t_up[:, 0] *= upper[:, None]
    low = np.linalg.solve(np.eye(n_max + 1) - t_low, np.ones((rho1.size, n_max + 1, 1)))
    ok = (lower < closed) & (closed < upper) & np.all(
        (low > 0.0) & (t_low @ low < low) & (up >= 0.0) & (t_up @ up >= up), axis=(1, 2))
    if not ok.all():
        first = closed[np.argmin(ok)]
        raise ArithmeticError(f"no witnessed bracket around the closed-form alpha*={first}")
    low, up = (w.reshape(shape + (n_max + 1,)) for w in (low, up))
    return CriticalAlpha(*(a.reshape(shape)[()] for a in (closed, lower, upper)), low, up)


def certify(spec: ContractionSpec, l, nu=None, buffer_size=None) -> CertificationReport:
    """Run the full certification pipeline for one configuration.

    Builds the chain of a ``buffer_size``-slot buffer (a count; ``None`` for one that never
    truncates a grant) from ``l`` and the gain diagonal from ``spec``, and solves for the
    witness ``zeta`` with ``nu`` (default all-ones): the verdict is NotCertified exactly when
    :func:`solve_certificate` raises ``LinAlgError``, and its ``ValueError`` for a malformed
    ``nu`` passes through.  The report also carries the Perron root of ``T``, the
    closed-form index where defined, and Theorem 1's constants ``xi``, ``c1`` and ``c2``,
    computed from the accepted witness alone.  A ``nu`` so small against ``zeta`` that ``xi``
    rounds to 1 raises ``ValueError`` ("inconsistent certificate").
    """
    slots = None if buffer_size is None else _as_count(buffer_size, "buffer_size")
    phi, t = _certification(l, spec.eta, slots, spec.alpha, spec.rho1, spec.rho2)
    closed_form = _schur_index(t)[0] if spec.rho1 < 1.0 and spec.rho2 < 1.0 else None

    nu = np.ones(len(t)) if nu is None else nu
    try:
        zeta = solve_certificate(t, nu)
    except np.linalg.LinAlgError:  # no witness, including a singular I - T
        zeta = xi = c1 = c2 = None
    else:
        xi, c1, c2 = _theorem1_bounds(zeta, nu, spec.alpha, spec.d_bound)
    return CertificationReport(
        phi=phi,
        t_matrix=t,
        spectral_radius=spectral_radius(t),
        closed_form=closed_form,
        zeta=zeta,
        xi=xi,
        c1=c1,
        c2=c2,
        verdict=NOT_CERTIFIED if zeta is None else CERTIFIED,
    )
