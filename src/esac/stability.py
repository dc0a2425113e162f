"""Stochastic stability certification for the anytime schemes.

The certification matrix is ``T = Phi @ Pi`` where ``Phi`` is the diagonal of
per-state Lyapunov gain bounds and ``Pi`` the transition matrix of the chain of
a buffer with :func:`certify`'s ``buffer_size`` slots, both built in one place
for :func:`certify` and :func:`critical_alpha`.  The verdict rests on a witness
anyone can check: the solution ``zeta`` of ``(I - T) zeta = nu`` with
``zeta > 0`` and ``T zeta < (1 - SCHUR_TOL) zeta`` entry-wise, which by the
Collatz-Wielandt bound proves the Perron root of ``T`` below 1.  It certifies a
geometric bound ``E{V(x_k)} <= C1 * xi**k * E{V(x_0)} + C2`` on the expected
Lyapunov value.

Every grant overwrites the buffer, so ``Pi = l0 P + 1 g^T``: ``P`` is the shift map, ``l0``
the no-computation mass and ``g = [0, l[1:]]`` (folded for a truncated buffer) the grant
masses that every row carries.  :func:`certify` and :func:`critical_alpha` take their witnesses
and the closed-form index from one forward recursion along ``P`` and one Sherman-Morrison step,
and :func:`certify` the Perron root from the secular equation of ``T = l0 Phi P + phi g^T``, so
LAPACK runs only in :func:`spectral_radius`, :func:`solve_certificate` and :func:`block_schur_g1`.

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

from .chain import _shift_column, law_of, transition_matrix
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
            raise ValueError(f"fine law must contract at least as fast as coarse: "
                             f"rho2={self.rho2} > rho1={self.rho1}")
        if self.rho2 == self.rho1 and self.eta > 1:
            warnings.warn("rho2 == rho1: fine law is no better than coarse", stacklevel=2)


@dataclass(frozen=True, eq=False)
class CertificationReport:
    """Outcome of certifying one scheme configuration.

    ``closed_form`` is the scalar index (psi or omega) and is only present when both
    contractions are < 1.  ``zeta`` (the stability witness), ``xi``, ``c1``, ``c2`` are present
    only when the verdict is certified.  ``spectral_radius`` is the Perron root of ``t_matrix``
    from the chain's secular equation, with no eigenvalue solver, to about 1e-14 of ``max(phi)``.
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


def _certification(l, eta, slots, alpha, rho1, rho2) -> tuple[np.ndarray, ...]:
    # Pi of the slots-slot buffer's chain (None: a buffer that never truncates), Phi's diagonal
    # [alpha, rho1, rho2][law_of] and T = Phi Pi.  (G,) gains give (n, G) phi and a (G, n, n) stack.
    pi = transition_matrix(l, eta, slots)
    phi = np.array([alpha, rho1, rho2])[law_of(len(pi), _as_count(eta, "eta", len(pi) - 1))]
    return pi, phi, phi.T[..., None] * pi


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
    if not _witnessed(t, zeta):
        raise np.linalg.LinAlgError("T is not Schur stable: no positive witness zeta")
    return zeta


def _witnessed(t: np.ndarray, zeta: np.ndarray) -> bool:
    # The check every certificate passes: zeta > 0 and T zeta < (1 - SCHUR_TOL) zeta on the float T.
    return bool((zeta > 0.0).all() and (t @ zeta < (1.0 - SCHUR_TOL) * zeta).all())


def _structured_solve(row0: list, phi: list, nu: list, shift: list) -> tuple:
    # (I - T) zeta = nu and the Schur index alpha (l0 + g.z) at state 0 from row 0 of Pi (l0, g):
    # (I - l0 Phi P)^{-1} of T[1:, 0] (u), phi (v), nu (a) below state 0, then Sherman-Morrison on
    # g, in Python floats.  zeta is None when d = 1 - g.v <= 0 or index >= 1, as rho(T) >= 1 then.
    n, l0, alpha = len(phi), row0[0], phi[0]
    u, v, a, gu, gv, ga = [1.0] * n, [0.0] * n, [0.0] * n, 0.0, 0.0, 0.0
    for i in range(1, n):
        s, lf, g = shift[i], l0 * phi[i], row0[i]
        u[i], v[i], a[i] = lf * u[s], phi[i] + lf * v[s], nu[i] + lf * a[s]
        gu, gv, ga = gu + g * u[i], gv + g * v[i], ga + g * a[i]
    d = 1.0 - gv
    index = alpha * (l0 + gu / d) if d > 0.0 else math.inf
    if not index < 1.0:
        return index, None
    zeta0 = (nu[0] + alpha * ga / d) / (1.0 - index)
    c = (ga + gu * zeta0) / d
    return index, np.array([zeta0] + [a[i] + u[i] * zeta0 + v[i] * c for i in range(1, n)])


def _perron_root(row0: list, phi: list, shift: list) -> float:
    # T = A + phi g^T >= A = l0 Phi P, lower triangular along P with spectrum {l0 alpha, 0}: by the
    # matrix determinant lemma rho(T) = max(l0 alpha, r*), r* the root on (l0 alpha, max phi] of
    # f(r) = g.b(r) = 1, b = (r I - A)^{-1} phi, where f > 0 falls and is convex.  Newton on 1/f in
    # a bisection bracket.  f = 0, or f has a pole at l0 alpha (at 0 by 1 / r if alpha = 0), as a
    # zero gain on a shift path is its state's own (rho2 = 0; coarse states shift to coarse ones).
    n, l0, top = len(phi), row0[0], max(phi)
    if l0 == 0.0 or top <= l0 * phi[0]:  # T = phi g^T, or rho(A) = max phi bounds rho(T)
        return l0 * phi[0] if l0 else sum(g * p for g, p in zip(row0[1:], phi[1:]))
    phi = [p / top for p in phi]  # T / max phi, whose root lies in (l0 alpha / max phi, 1]
    alpha, low, b, db = phi[0], l0 * phi[0], [0.0] * n, [0.0] * n
    lo, hi, r, tol = low, 1.0, 1.0, 2.0 ** -52
    while True:  # f, f' at r: b_0 = alpha / (r - l0 alpha), b_i = phi_i (1 + l0 b_shift(i)) / r
        b[0], db[0] = alpha / (r - low), -alpha / (r - low) / (r - low)
        f = df = 0.0
        for i, s, p, g in zip(range(1, n), shift[1:], phi[1:], row0[1:]):
            b[i] = bi = p * (1.0 + l0 * b[s]) / r
            db[i] = dbi = (p * l0 * db[s] - bi) / r
            f, df = f + g * bi, df + g * dbi
        if f == 0.0 or f >= 1.0 and r == 1.0:  # no root above l0 alpha, or the root is max phi
            return top * (r if f else low)
        lo, hi = (r, hi) if f >= 1.0 else (lo, r)
        step = r + f * (f - 1.0) / -df  # Newton on 1/f
        if abs(step - r) <= tol or hi - lo <= tol or f >= 1.0 and not step > r:
            return top * r  # converged, or rounding stops a rise from the left
        r = step if lo < step < hi else lo + 0.5 * (hi - lo)


def _theorem1_bounds(zeta, nu, sigma_open: float, d_bound: float) -> tuple[float, float, float]:
    # Theorem 1's (xi, c1, c2), as Python floats, from a witness zeta that passed _witnessed for
    # the weights nu it solves for: xi = 1 - min(nu)/max(zeta), c1 = max(zeta)/min(zeta).
    # xi still rounds to 1 when an entry of nu is tiny against zeta (1e-20 with rho2 = 0).
    z_min, z_max = float(min(zeta)), float(max(zeta))
    xi = 1.0 - float(min(nu)) / z_max
    if not (0.0 <= xi < 1.0):
        raise ValueError(f"inconsistent certificate: xi={xi} outside [0, 1)")
    c1 = z_max / z_min
    d_bar = max(z_min * d_bound, abs(z_max * sigma_open - xi * z_min) * d_bound)
    c2 = d_bar / (z_min * (1.0 - xi))
    return xi, c1, c2


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
    g1 = float(1.0 - (h[0, 0] + h[0, 1:] @ np.linalg.solve(np.eye(len(m)) - m, h[1:, 0])))
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

    ``rho1``, ``rho2`` broadcast as in a numpy ufunc, through one chain: scalars give floats,
    ``G``-point grids ``(G,)`` bounds and ``(G, n_max + 1)`` witnesses with each point's scalar
    bits.  :func:`esac.schemes.resolve` gives ``(eta, slots, rho2)``: the smallest untruncated
    buffer.  Only row 0 of ``T`` carries alpha, so ``T(alpha)`` is ``T(1)`` with that row scaled,
    and ``T(r / index(r))`` maps ``[1; z(r)]`` to ``r [1; z(r)]``: :func:`certify`'s recursion at
    ``phi / r`` gives ``z(r) = (r I - T11)^{-1} T10`` and the Schur index ``l0 + g.z(r)``.
    ``closed`` is ``r = 1``.  ``upper`` is ``r = 1 + SCHUR_TOL``: ``w = [1; z(r)] >= 0`` with
    ``T w >= w`` proves the Perron root >= 1.  ``lower`` is ``r = 1 - SCHUR_TOL``: ``w > 0`` with
    ``T w < w`` proves it < 1 (Collatz-Wielandt bounds), for ``w = [1; z(r)]`` or, where a zero
    in ``z`` (``rho2 = 0``) or rounding fails that check, ``w = (I - T)^{-1} 1`` by the recursion.
    Raises ``ValueError`` when ``n_max != len(l) - 1``, ``resolve`` refuses, ``rho1`` and
    ``rho2`` do not broadcast, a point is no valid ``ContractionSpec`` or ``l[0] = 0``, and
    ``ArithmeticError`` when a check fails; the first failing point in grid order names it.  When
    ``T`` restricted to the non-empty states (``T11``) has a Perron root of at least
    ``1 - SCHUR_TOL``, no alpha >= 0 has a witness with that margin, so the check fails there.
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
    pi, phi, t_one = _certification(l, eta, slots, np.ones(rho1.size), rho1, rho2)
    n, l0, shift = n_max + 1, pi[0, 0], _shift_column(n_max + 1, eta)
    r = np.array([1.0, 1.0 + SCHUR_TOL, 1.0 - SCHUR_TOL])[:, None]
    f = phi[:, None] / r  # (n, 3, G); uv holds _structured_solve's u and v at phi / r
    lf, uv = l0 * f, np.zeros((n, 2) + f.shape[1:])
    uv[0, 0] = 1.0
    for i in range(1, n):
        np.multiply(lf[i], uv[shift[i]], out=uv[i])
        uv[i, 1] += f[i]
    gu, gv = (pi[0, 1:, None, None, None] * uv[1:]).sum(axis=0)  # in state order, no BLAS
    index = l0 + (c := gu / (1.0 - gv))  # c = g.z, with z = u + v c
    if not np.all(index[0] > 0.0):  # 0 exactly when l[0] = 0: no state returns to state 0
        raise ValueError("l[0] = 0: the Perron root of T does not depend on alpha, "
                         "so there is no stability boundary")
    closed, upper, lower = r / index
    up, low = (uv[:, 0] + uv[:, 1] * c)[:, 1:].transpose(1, 2, 0)[..., None].copy()  # [1; z]
    t_low, t_up = t_one.copy(), t_one  # T(lower), T(upper): row 0 scaled
    t_low[:, 0], t_up[:, 0] = t_low[:, 0] * lower[:, None], t_up[:, 0] * upper[:, None]
    for solved in (False, True):  # where [1; z] fails (a zero in z, or rounding): (I - T)^{-1} 1
        ok = (lower < closed) & (closed < upper) & np.all(
            (low > 0.0) & (t_low @ low < low) & (up >= 0.0) & (t_up @ up >= up), axis=(1, 2))
        if solved or ok.all():
            break
        for k in np.flatnonzero(~ok).tolist():  # from certify's recursion; None leaves [1; z]
            zeta = _structured_solve(pi[0].tolist(), [lower[k].item(), *phi[1:, k].tolist()],
                                     [1.0] * n, shift)[1]
            low[k, :, 0] = low[k, :, 0] if zeta is None else zeta
    if not ok.all():
        first = closed[np.argmin(ok)]
        raise ArithmeticError(f"no witnessed bracket around the closed-form alpha*={first}")
    low, up = (w.reshape(shape + (n_max + 1,)) for w in (low, up))
    return CriticalAlpha(*(a.reshape(shape)[()] for a in (closed, lower, upper)), low, up)


def certify(spec: ContractionSpec, l, nu=None, buffer_size=None) -> CertificationReport:
    """Run the full certification pipeline for one configuration.

    Builds the chain of a ``buffer_size``-slot buffer (a count; ``None`` for one that never
    truncates a grant) from ``l`` and the gain diagonal from ``spec``, and solves
    ``(I - T) zeta = nu`` (``nu`` default all-ones) from the chain's structure: NotCertified
    exactly when ``zeta`` fails :func:`solve_certificate`'s witness check or the structure proves
    the Perron root >= 1; a ``nu`` that it refuses raises ``ValueError``.  The report also has
    the Perron root of ``T``, the closed-form index where defined, and Theorem 1's ``xi``, ``c1``
    and ``c2``, from the accepted witness alone.  A ``nu`` so small against ``zeta`` that ``xi``
    rounds to 1 raises ``ValueError`` ("inconsistent certificate").
    """
    slots = None if buffer_size is None else _as_count(buffer_size, "buffer_size")
    pi, phi, t = _certification(l, spec.eta, slots, spec.alpha, spec.rho1, spec.rho2)
    nu = [1.0] * len(t) if nu is None else _as_weights(nu, len(t)).tolist()
    row0, gains, shift = pi[0].tolist(), phi.tolist(), _shift_column(len(t), spec.eta)
    index, zeta = _structured_solve(row0, gains, nu, shift)
    if zeta is not None and _witnessed(t, zeta):
        xi, c1, c2 = _theorem1_bounds(zeta, nu, spec.alpha, spec.d_bound)
    else:
        zeta = xi = c1 = c2 = None
    return CertificationReport(
        phi=phi,
        t_matrix=t,
        spectral_radius=_perron_root(row0, gains, shift),
        closed_form=index if spec.rho1 < 1.0 and spec.rho2 < 1.0 else None,
        zeta=zeta,
        xi=xi,
        c1=c1,
        c2=c2,
        verdict=NOT_CERTIFIED if zeta is None else CERTIFIED,
    )
