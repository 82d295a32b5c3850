"""PT-deformed Calogero-Moser-Sutherland systems.

Implements the deformed Hamiltonian H = p^2/2 + (1/2) sum ghat_a^2 V(a.q)
+ i mu.p - mu^2/2 with mu(q) = (1/2) sum gtilde_a f(a.q) a, its classical
flow on complexified phase space, and, for the A series, the Lax pair used
for the integrability checks.  The Lax matrices are built straight from
the roots in the defining representation of A: root e_i - e_j is the
matrix unit E_ij, and the Cartan part is a diagonal.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field

import numpy as np

from . import _stepping
from .errors import CapabilityError, ConfigurationError, SingularConfigError, require_finite
from .rootsys import RootSystem

SINGULAR_GUARD = 1e-6
# families whose Lax pair closes; Lax and charge requests for others refuse
LAX_FAMILIES = ("A",)
# local error tolerance, relative and absolute, of `integrate_trajectory`
TRAJECTORY_TOL = 1e-12


class PotentialKind(enum.Enum):
    """Pair potential V = f^2 with f odd: 1/x, 1/sin x or 1/sinh x."""

    RATIONAL = "rational"
    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"

    def f(self, x):
        return self.f_fprime(x)[0]

    def f_fprime(self, x):
        """(f(x), f'(x)) from one sin or sinh (and cos or cosh) evaluation."""
        x = np.asarray(x)
        if self is PotentialKind.RATIONAL:
            return 1.0 / x, -1.0 / x**2
        if self is PotentialKind.TRIGONOMETRIC:
            s = np.sin(x)
            return 1.0 / s, -np.cos(x) / s**2
        s = np.sinh(x)
        return 1.0 / s, -np.cosh(x) / s**2

    def hyperplane_distance(self, x):
        """Distance of the real part of a.q from the singular set."""
        x = np.asarray(x).real
        if self is PotentialKind.TRIGONOMETRIC:
            return np.abs(x - np.pi * np.rint(x / np.pi))
        return np.abs(x)


@dataclass(frozen=True)
class OrbitCouplings:
    """Hermitian (g) and deformation (gtilde) couplings per Weyl orbit.

    A long coupling left as None takes the short value.
    """

    g_short: float = 0.0
    g_long: float | None = None
    gtilde_short: float = 0.0
    gtilde_long: float | None = None

    def __post_init__(self):
        # a NaN force never trips the solver's step-size stop
        require_finite(**{k: v for k, v in vars(self).items() if v is not None})

    def per_root(self, rs: RootSystem):
        """(g, gtilde) per root of `rs`; long roots take the long values when set."""
        g_long = self.g_short if self.g_long is None else self.g_long
        gt_long = self.gtilde_short if self.gtilde_long is None else self.gtilde_long
        return (np.where(rs.long, g_long, self.g_short),
                np.where(rs.long, gt_long, self.gtilde_short))


def effective_couplings(c: OrbitCouplings, rs: RootSystem):
    """Squared couplings ghat^2 = g^2 + |alpha|^2 gtilde^2 / 2 per root.

    The factor 1/2 goes with the convention used throughout this module:
    potential sums run over the full root set while mu carries its 1/2
    prefactor, so the sums of the mu-squared identity effectively run
    over positive roots.  With this choice the deformed Hamiltonian
    written with ghat and the -mu^2/2 term coincides exactly with the
    bilinear i mu.p form for the rational potential.  ghat^2 may be
    negative.
    """
    g, gt = c.per_root(rs)
    return g**2 + 0.5 * rs.length_sq * gt**2


@dataclass(frozen=True)
class CMSSystem:
    root_system: RootSystem
    potential: PotentialKind
    couplings: OrbitCouplings
    q: np.ndarray
    p: np.ndarray
    # read-only per-root couplings, built from root_system and couplings
    g: np.ndarray = field(init=False, repr=False, compare=False)
    gtilde: np.ndarray = field(init=False, repr=False, compare=False)
    ghat_sq: np.ndarray = field(init=False, repr=False, compare=False)
    ghat: np.ndarray = field(init=False, repr=False, compare=False)
    # the roots as complex rows, so that products with complex vectors cast nothing
    roots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._place(self.q, self.p)
        g, gtilde = self.couplings.per_root(self.root_system)
        ghat_sq = effective_couplings(self.couplings, self.root_system)
        for name, a in [("g", g), ("gtilde", gtilde), ("ghat_sq", ghat_sq),
                        ("ghat", np.sqrt(ghat_sq.astype(complex))),
                        ("roots", self.root_system.roots.astype(complex))]:
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def dim(self):
        return self.root_system.dim

    def _place(self, q, p):
        object.__setattr__(self, "q", np.asarray(q, dtype=complex))
        object.__setattr__(self, "p", np.asarray(p, dtype=complex))
        if self.q.shape != (self.root_system.dim,) or self.p.shape != self.q.shape:
            raise ConfigurationError("q, p must have the root representation dimension")

    def at(self, q, p):
        """The same system at (q, p), sharing this one's per-root couplings."""
        new = copy.copy(self)
        new._place(q, p)
        return new


def _check_nonsingular(sys: CMSSystem, q=None):
    """a.q for every root, refusing points near a singular hyperplane.

    The one place that evaluates a.q: each public function calls it once
    and evaluates f (and f') once from its result.
    """
    aq = sys.roots @ (sys.q if q is None else q)
    d = sys.potential.hyperplane_distance(aq)
    # d[argmin] is d.min(), NaN included, at a fraction of a reduction's cost
    i = d.argmin()
    if d[i] < SINGULAR_GUARD:
        raise SingularConfigError(
            f"configuration within {d[i]:.2e} of the singular hyperplane of "
            f"root {sys.root_system.roots[i]}"
        )
    return aq


def _mu(sys: CMSSystem, f):
    """mu = (1/2) sum_a gtilde_a f(a.q) a from f at a checked point."""
    return 0.5 * ((sys.gtilde * f) @ sys.roots)


def verify_mu_identity(sys: CMSSystem):
    """|mu^2 - (1/2) sum_a |a|^2 gtilde_a^2 V(a.q)|.

    The sum runs over all roots, so with its 1/2 it is the sum over
    positive roots (V being even), the normalization under which the
    identity is exact.  It is exact for the rational potential only; for
    the other potentials the returned residual is generically large.
    """
    rs = sys.root_system
    f = sys.potential.f(_check_nonsingular(sys))
    mu = _mu(sys, f)
    rhs = 0.5 * (rs.length_sq * sys.gtilde**2 * f**2).sum()
    return float(abs(mu @ mu - rhs))


def _hamiltonian(sys: CMSSystem, p, f, mu):
    """(H, (1/2) sum ghat^2 V) from f(a.q) and mu at a checked point."""
    pot = 0.5 * (sys.ghat_sq * f**2).sum()
    return 0.5 * (p @ p) + pot + 1j * (mu @ p) - 0.5 * (mu @ mu), pot


def hamiltonian(sys: CMSSystem):
    """Deformed Hamiltonian p^2/2 + (1/2) sum ghat^2 V + i mu.p - mu^2/2."""
    f = sys.potential.f(_check_nonsingular(sys))
    return _hamiltonian(sys, sys.p, f, _mu(sys, f))[0]


def hamiltonian_undeformed_form(sys: CMSSystem):
    """The bilinear form p^2/2 + (1/2) sum g^2 V + i mu.p (no mu^2 term).

    Coincides with `hamiltonian` for the rational potential, where the
    mu-identity turns the -mu^2/2 term into the coupling redefinition.
    """
    f = sys.potential.f(_check_nonsingular(sys))
    mu = _mu(sys, f)
    pot = 0.5 * (sys.g ** 2 * f**2).sum()
    return 0.5 * (sys.p @ sys.p) + pot + 1j * (mu @ sys.p)


def shifted_equivalence(sys: CMSSystem):
    """|H_mu - h_Cal(q, p + i mu; ghat)|, the momentum-shift identity.

    h_Cal is the Hermitian Calogero-type Hamiltonian with redefined
    couplings evaluated at complex momentum; the residual is an algebraic
    zero for all three potentials.
    """
    f = sys.potential.f(_check_nonsingular(sys))
    mu = _mu(sys, f)
    h, pot = _hamiltonian(sys, sys.p, f, mu)
    shifted = sys.p + 1j * mu
    return float(abs(h - (0.5 * (shifted @ shifted) + pot)))


def _force(sys: CMSSystem, f, fp):
    """-grad U with U = (1/2) sum ghat^2 f(a.q)^2, from f and f' at a checked point."""
    return -((sys.ghat_sq * (f * fp)) @ sys.roots)


def _flow(sys: CMSSystem, p, f, fp):
    """(qdot, pdot, qddot) from f and f' at a checked point.

    mu is a gradient, so H = (p + i mu)^2/2 + U and the flow is
    qdot = p + i mu, qddot = -grad U.  pdot = qddot - i J qdot with
    J = d mu / dq, summed per root as (1/2) sum gtilde f' (a.qdot) a so
    that J is never formed.
    """
    roots = sys.roots
    qdot = p + 1j * _mu(sys, f)
    qddot = _force(sys, f, fp)
    pdot = qddot - 0.5j * ((sys.gtilde * fp * (roots @ qdot)) @ roots)
    return qdot, pdot, qddot


def equations_of_motion(sys: CMSSystem):
    """(qdot, pdot) of the complexified flow of `hamiltonian`."""
    qdot, pdot, _ = _flow(sys, sys.p, *sys.potential.f_fprime(_check_nonsingular(sys)))
    return qdot, pdot


@dataclass
class Trajectory:
    times: np.ndarray
    q: np.ndarray            # (n_rec, dim) complex
    p: np.ndarray
    energy: np.ndarray       # H along the flow
    completed: bool
    error: str | None = None
    # the stepper's right-hand-side evaluations, accepted and rejected steps
    nfev: int = 0
    n_accepted: int = 0
    n_rejected: int = 0


def integrate_trajectory(sys: CMSSystem, dt, n_steps, record_every=1):
    """Adaptive DOP853 on (q, qdot) up to t = n_steps * dt.

    The flow is qdot = p + i mu, qddot = -grad U (see `_flow`); each step
    keeps its local error below TRAJECTORY_TOL, relative and absolute.
    Records at t = 0, every record_every * dt and at the end come from
    the solver's dense output, in one batch per accepted step, and carry
    p = qdot - i mu(q).  A step, or a record, that nears a singular
    hyperplane, or a step size that collapses, ends the run with
    `completed=False`; the records up to the last accepted step whose
    batch was recorded are kept and `error` names the time they reach.
    The trajectory also carries the stepper's counts of evaluations and
    of accepted and rejected steps.
    """
    if not 0 < dt < np.inf or n_steps < 0 or record_every < 1:
        raise ConfigurationError(
            f"need finite dt > 0, n_steps >= 0 and record_every >= 1, got dt={dt}, "
            f"n_steps={n_steps}, record_every={record_every}")
    d = sys.dim
    stops = [0.0] + [(k + 1) * dt for k in range(n_steps)
                     if (k + 1) % record_every == 0 or k == n_steps - 1]

    def rhs(t, y):
        aq = _check_nonsingular(sys, y[:d])
        out = np.empty(2 * d, dtype=complex)
        out[:d] = y[d:]
        out[d:] = _force(sys, *sys.potential.f_fprime(aq))
        return out

    records = []                        # (t, q, p, H) rows

    def record(ts, ys):
        batch = []
        for t, y in zip(ts.tolist(), ys):
            q = y[:d]
            f = sys.potential.f(_check_nonsingular(sys, q))
            mu = _mu(sys, f)
            p = y[d:] - 1j * mu
            batch.append((t, q, p, _hamiltonian(sys, p, f, mu)[0]))
        records.extend(batch)           # none of the batch if a row was singular

    try:
        mu = _mu(sys, sys.potential.f(_check_nonsingular(sys)))
    except SingularConfigError as exc:
        stop = _stepping.Stop(0.0, None, exc)
    else:
        stop = _stepping.integrate(rhs, np.concatenate([sys.q, sys.p + 1j * mu]), stops,
                                   TRAJECTORY_TOL, TRAJECTORY_TOL, np.inf, record, None)
    ts, qs, ps, es = zip(*records) if records else ([], [], [], [])
    return Trajectory(np.array(ts), np.array(qs), np.array(ps), np.array(es),
                      completed=stop.error is None,
                      error=None if stop.error is None
                      else f"stopped at t = {stop.t}: {stop.error}",
                      nfev=stop.nfev, n_accepted=stop.n_accepted,
                      n_rejected=stop.n_rejected)


# ---------------------------------------------------------------------------
# Lax pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaxPair:
    L: np.ndarray
    M: np.ndarray
    m: np.ndarray            # diagonal of M


def _matrix_units(sys: CMSSystem):
    """(rows, cols) of E_a per root in the defining representation of A.

    Root e_i - e_j is the matrix unit E_ij, so every off-diagonal entry
    belongs to exactly one root.
    """
    roots = sys.root_system.roots
    return roots.argmax(1), roots.argmin(1)


def _root_matrix(units, diagonal, c):
    """diag(diagonal) + sum_a c_a E_a."""
    out = np.diag(diagonal)
    out[units] = c
    return out


def _require_lax(sys: CMSSystem):
    if sys.root_system.family not in LAX_FAMILIES:
        raise CapabilityError(f"no closed Lax pair for family {sys.root_system.family}: "
                              f"Lax pairs and charges exist for {LAX_FAMILIES} only")


def _lax(sys: CMSSystem):
    """(L, M, m, Ldot) at the system's phase-space point, each built once.

    L = diag(xi) + i sum_a ghat_a f(a.q) E_a with xi = p + i mu, which is
    qdot.  M = diag(m) + i sum_a ghat_a f'(a.q) E_a, with m = w - mean w
    and w_i = i sum ghat_a f(a.q)^2 over the roots e_i - e_j, summed in
    root order (the mean, a multiple of 1 that commutes with L, would only
    add norm to m).  Ldot comes from the chain rule; its diagonal is
    qddot = -grad U.
    """
    _require_lax(sys)
    aq = _check_nonsingular(sys)
    ghat = sys.ghat
    f, fp = sys.potential.f_fprime(aq)
    qdot, _, qddot = _flow(sys, sys.p, f, fp)
    units = _matrix_units(sys)
    c = 1j * ghat * f
    w = np.zeros(sys.dim, dtype=complex)
    np.add.at(w, units[0], c * f)
    m = w - w.mean()
    aqdot = sys.roots @ qdot
    return (_root_matrix(units, qdot, c), _root_matrix(units, m, 1j * ghat * fp), m,
            _root_matrix(units, qddot, 1j * ghat * fp * aqdot))


def lax_pair(sys: CMSSystem):
    """Assemble (L, M) at the system's phase-space point."""
    L, M, m, _ = _lax(sys)
    return LaxPair(L=L, M=M, m=m)


def lax_residual(sys: CMSSystem):
    """Frobenius norm of Ldot - [L, M] with Ldot from the chain rule."""
    L, M, _, Ldot = _lax(sys)
    return float(np.linalg.norm(Ldot - (L @ M - M @ L)))


def conserved_charges(sys: CMSSystem, k_max):
    """Charges I_k = tr(L^k)/2 for k = 1..k_max, for LAX_FAMILIES only."""
    _require_lax(sys)
    if k_max < 1:
        raise ConfigurationError("k_max must be >= 1")
    f = sys.potential.f(_check_nonsingular(sys))
    L = _root_matrix(_matrix_units(sys), sys.p + 1j * _mu(sys, f), 1j * sys.ghat * f)
    out = []
    Lk = np.eye(L.shape[0], dtype=complex)
    for _ in range(k_max):
        Lk = Lk @ L
        out.append(complex(np.trace(Lk)) / 2.0)
    return out


def basu_mallick_kundu_form(ell, omega, g, gtilde, q, p):
    """Direct coordinate evaluation of the deformed rational model.

    H = p^2/2 + omega^2/2 sum q_i^2 + g^2/2 sum_{i!=k} (q_i-q_k)^-2
        + i gtilde sum_{i!=k} p_i/(q_i-q_k),  with q, p in R^(ell+1).
    """
    q = np.asarray(q, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if q.shape != (ell + 1,) or p.shape != q.shape:
        raise ConfigurationError("q, p must have length ell+1")
    dq = q[:, None] - q[None, :]
    off = ~np.eye(ell + 1, dtype=bool)
    if np.abs(dq[off]).min() < SINGULAR_GUARD:
        raise SingularConfigError("coincident coordinates")
    h = 0.5 * (p @ p) + 0.5 * omega**2 * (q @ q)
    h = h + 0.5 * g**2 * (1.0 / dq[off] ** 2).sum()
    h = h + 1j * gtilde * ((p[:, None] / np.where(off, dq, np.inf))[off]).sum()
    return complex(h)

