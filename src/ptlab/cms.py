"""PT-deformed Calogero-Moser-Sutherland systems.

Implements the deformed Hamiltonian H = p^2/2 + (1/2) sum ghat_a^2 V(a.q)
+ i mu.p - mu^2/2 with mu(q) = (1/2) sum gtilde_a f(a.q) a, its classical
flow on complexified phase space, and the Lax-pair machinery used for the
integrability checks.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, SingularConfigError
from .rootsys import CartanWeylBasis, RootSystem

SINGULAR_GUARD = 1e-6


class PotentialKind(enum.Enum):
    """Pair potential V = f^2 with f odd: 1/x, 1/sin x or 1/sinh x."""

    RATIONAL = "rational"
    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"

    def f(self, x):
        x = np.asarray(x)
        if self is PotentialKind.RATIONAL:
            return 1.0 / x
        if self is PotentialKind.TRIGONOMETRIC:
            return 1.0 / np.sin(x)
        return 1.0 / np.sinh(x)

    def fprime(self, x):
        x = np.asarray(x)
        if self is PotentialKind.RATIONAL:
            return -1.0 / x**2
        if self is PotentialKind.TRIGONOMETRIC:
            return -np.cos(x) / np.sin(x) ** 2
        return -np.cosh(x) / np.sinh(x) ** 2

    def V(self, x):
        return self.f(x) ** 2

    def Vprime(self, x):
        return 2.0 * self.f(x) * self.fprime(x)

    def hyperplane_distance(self, x):
        """Distance of the real part of a.q from the singular set."""
        x = np.real(np.asarray(x, dtype=complex))
        if self is PotentialKind.TRIGONOMETRIC:
            return np.abs(x - np.pi * np.round(x / np.pi))
        return np.abs(x)


@dataclass(frozen=True)
class OrbitCouplings:
    """Hermitian (g) and deformation (gtilde) couplings per Weyl orbit."""

    g_short: float = 0.0
    g_long: float | None = None
    gtilde_short: float = 0.0
    gtilde_long: float | None = None

    def g(self, orbit):
        if orbit == "long" and self.g_long is not None:
            return self.g_long
        return self.g_short

    def gtilde(self, orbit):
        if orbit == "long" and self.gtilde_long is not None:
            return self.gtilde_long
        return self.gtilde_short


def effective_couplings(c: OrbitCouplings, rs: RootSystem):
    """Squared couplings ghat^2 = g^2 + |alpha|^2 gtilde^2 / 2 per orbit.

    The factor 1/2 goes with the convention used throughout this module:
    potential sums run over the full root set while mu carries its 1/2
    prefactor, so the orbit sums of the mu-squared identity effectively
    run over positive roots.  With this choice the deformed Hamiltonian
    written with ghat and the -mu^2/2 term coincides exactly with the
    bilinear i mu.p form for the rational potential.

    Returns {"short": ghat_s^2, "long": ghat_l^2}; the long entry is
    present only when the system has long roots.  ghat^2 may be negative.
    """
    out = {}
    for orbit in ("short", "long"):
        idx = rs.long_roots if orbit == "long" else rs.short_roots
        if not idx:
            continue
        a2 = rs.orbit_length_sq(orbit)
        out[orbit] = c.g(orbit) ** 2 + 0.5 * a2 * c.gtilde(orbit) ** 2
    return out


@dataclass(frozen=True)
class CMSSystem:
    root_system: RootSystem
    potential: PotentialKind
    couplings: OrbitCouplings
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=complex))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=complex))
        if self.q.shape != (self.root_system.dim,) or self.p.shape != self.q.shape:
            raise ValueError("q, p must have the root representation dimension")

    @property
    def dim(self):
        return self.root_system.dim

    def at(self, q, p):
        """The same system at (q, p); the per-root coupling arrays carry over."""
        moved = replace(self, q=np.asarray(q, dtype=complex), p=np.asarray(p, dtype=complex))
        if "_root_couplings" in self.__dict__:
            moved.__dict__["_root_couplings"] = self._root_couplings
        return moved

    @functools.cached_property
    def _root_couplings(self):
        """Read-only (g, gtilde, ghat^2, ghat) per root, built once per system."""
        rs, c = self.root_system, self.couplings
        eff = effective_couplings(c, rs)
        orbits = [rs.orbit_of(i) for i in range(rs.n_roots)]
        ghat_sq = np.array([eff[o] for o in orbits])
        arrays = (np.array([c.g(o) for o in orbits]),
                  np.array([c.gtilde(o) for o in orbits]),
                  ghat_sq, np.sqrt(ghat_sq.astype(complex)))
        for a in arrays:
            a.flags.writeable = False
        return arrays


def _check_nonsingular(sys: CMSSystem, q=None):
    """a.q for every root, refusing points near a singular hyperplane.

    The one place that evaluates a.q: each public function calls it once
    and evaluates f (and f') once from its result.
    """
    q = sys.q if q is None else np.asarray(q, dtype=complex)
    aq = sys.root_system.roots @ q
    d = sys.potential.hyperplane_distance(aq)
    if d.min() < SINGULAR_GUARD:
        i = int(np.argmin(d))
        raise SingularConfigError(
            f"configuration within {d.min():.2e} of the singular hyperplane of "
            f"root {sys.root_system.roots[i]}"
        )
    return aq


def _momentum(sys: CMSSystem, p):
    return sys.p if p is None else np.asarray(p, dtype=complex)


def _mu(sys: CMSSystem, f):
    """mu = (1/2) sum_a gtilde_a f(a.q) a from f at a checked point."""
    return 0.5 * ((sys._root_couplings[1] * f) @ sys.root_system.roots)


def mu_vector(sys: CMSSystem, q=None):
    """Deformation vector mu = (1/2) sum_a gtilde_a f(a.q) a."""
    return _mu(sys, sys.potential.f(_check_nonsingular(sys, q)))


def verify_mu_identity(sys: CMSSystem):
    """|mu^2 - sum over orbits of |a|^2 gtilde^2 sum_{a>0} V(a.q)|.

    The orbit sums run over positive roots (half the full root set, V
    being even), which is the normalization under which the identity is
    exact.  It is exact for the rational potential only; for the other
    potentials the returned residual is generically large.
    """
    rs = sys.root_system
    f = sys.potential.f(_check_nonsingular(sys))
    mu = _mu(sys, f)
    V = f**2
    rhs = 0.0
    for orbit in ("short", "long"):
        idx = sorted(rs.long_roots if orbit == "long" else rs.short_roots)
        if not idx:
            continue
        a2 = rs.orbit_length_sq(orbit)
        gt = sys.couplings.gtilde(orbit)
        rhs = rhs + 0.5 * a2 * gt**2 * V[idx].sum()
    return float(abs(mu @ mu - rhs))


def _hamiltonian(sys: CMSSystem, aq, p):
    """(H, mu, (1/2) sum ghat^2 V) at a checked point, from one f(a.q)."""
    f = sys.potential.f(aq)
    mu = _mu(sys, f)
    pot = 0.5 * (sys._root_couplings[2] * f**2).sum()
    return 0.5 * (p @ p) + pot + 1j * (mu @ p) - 0.5 * (mu @ mu), mu, pot


def hamiltonian(sys: CMSSystem, q=None, p=None):
    """Deformed Hamiltonian p^2/2 + (1/2) sum ghat^2 V + i mu.p - mu^2/2."""
    return _hamiltonian(sys, _check_nonsingular(sys, q), _momentum(sys, p))[0]


def hamiltonian_undeformed_form(sys: CMSSystem, q=None, p=None):
    """The bilinear form p^2/2 + (1/2) sum g^2 V + i mu.p (no mu^2 term).

    Coincides with `hamiltonian` for the rational potential, where the
    mu-identity turns the -mu^2/2 term into the coupling redefinition.
    """
    f = sys.potential.f(_check_nonsingular(sys, q))
    p = _momentum(sys, p)
    mu = _mu(sys, f)
    pot = 0.5 * (sys._root_couplings[0] ** 2 * f**2).sum()
    return 0.5 * (p @ p) + pot + 1j * (mu @ p)


def shifted_equivalence(sys: CMSSystem):
    """|H_mu - h_Cal(q, p + i mu; ghat)|, the momentum-shift identity.

    h_Cal is the Hermitian Calogero-type Hamiltonian with redefined
    couplings evaluated at complex momentum; the residual is an algebraic
    zero for all three potentials.
    """
    h, mu, pot = _hamiltonian(sys, _check_nonsingular(sys), sys.p)
    shifted = sys.p + 1j * mu
    return float(abs(h - (0.5 * (shifted @ shifted) + pot)))


def _flow(sys: CMSSystem, p, f, fp):
    """(J, qdot, pdot) from f and f' at a checked point; J = d mu / dq.

    V' = 2 f f' gives the potential gradient from the same evaluation.
    """
    roots = sys.root_system.roots
    _, gtilde, ghat_sq, _ = sys._root_couplings
    mu = _mu(sys, f)
    J = 0.5 * ((roots.T * (gtilde * fp)) @ roots)
    qdot = p + 1j * mu
    grad_pot = (ghat_sq * (f * fp)) @ roots
    pdot = -grad_pot - 1j * (J @ p) + J @ mu
    return J, qdot, pdot


def equations_of_motion(sys: CMSSystem, q=None, p=None):
    """(qdot, pdot) of the complexified flow of `hamiltonian`."""
    aq = _check_nonsingular(sys, q)
    _, qdot, pdot = _flow(sys, _momentum(sys, p), sys.potential.f(aq),
                          sys.potential.fprime(aq))
    return qdot, pdot


@dataclass
class Trajectory:
    times: np.ndarray
    q: np.ndarray            # (n_rec, dim) complex
    p: np.ndarray
    energy: np.ndarray       # H along the flow
    completed: bool
    error: str | None = None


def integrate_trajectory(sys: CMSSystem, dt, n_steps, record_every=1):
    """Fixed-step RK4 on complexified phase space.

    Aborts cleanly when the flow approaches a singular hyperplane and
    returns the partial trajectory with `completed=False`.
    """
    if not dt > 0 or n_steps < 0 or record_every < 1:
        raise ConfigurationError(
            f"need dt > 0, n_steps >= 0 and record_every >= 1, got dt={dt}, "
            f"n_steps={n_steps}, record_every={record_every}")
    d = sys.dim
    y = np.concatenate([sys.q, sys.p]).astype(complex)

    def rhs(y):
        qd, pd = equations_of_motion(sys, y[:d], y[d:])
        return np.concatenate([qd, pd])

    ts, qs, ps, es = [], [], [], []

    def record(t, y):
        ts.append(t)
        qs.append(y[:d].copy())
        ps.append(y[d:].copy())
        es.append(hamiltonian(sys, y[:d], y[d:]))

    try:
        record(0.0, y)
        for k in range(n_steps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if (k + 1) % record_every == 0 or k == n_steps - 1:
                record((k + 1) * dt, y)
    except SingularConfigError as exc:
        return Trajectory(np.array(ts), np.array(qs), np.array(ps),
                          np.array(es), completed=False, error=str(exc))
    return Trajectory(np.array(ts), np.array(qs), np.array(ps),
                      np.array(es), completed=True)


# ---------------------------------------------------------------------------
# Lax pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaxPair:
    L: np.ndarray
    M: np.ndarray
    m: np.ndarray            # Cartan vector of M, in the basis-root frame


def _step_sum(basis: CartanWeylBasis, xi, c):
    """xi.H + sum_a c_a E_a over the stacked Cartan and step matrices."""
    return (np.einsum("k,kij->ij", xi, basis.cartan)
            + np.einsum("a,aij->ij", c, basis.step))


def _lax(sys: CMSSystem, basis: CartanWeylBasis):
    """(L, M, m, Ldot) at the system's phase-space point, each built once.

    L = xi.H + i sum_a ghat_a f(a.q) E_a with xi = p + i mu, which is
    qdot.  M = m.H + S with S = i sum_a ghat_a f'(a.q) E_a; its Cartan
    vector m solves, in the least-squares sense, the vanishing of the
    E_a components of Ldot - [L, M].  Ldot comes from the chain rule
    along the flow.
    """
    aq = _check_nonsingular(sys)
    ghat = sys._root_couplings[3]
    f, fp = sys.potential.f(aq), sys.potential.fprime(aq)
    J, qdot, pdot = _flow(sys, sys.p, f, fp)
    c = 1j * ghat * f
    L = _step_sum(basis, qdot, c)
    S = np.einsum("a,aij->ij", 1j * ghat * fp, basis.step)
    aqdot = sys.root_system.roots @ qdot
    Ldot = _step_sum(basis, pdot + 1j * (J @ qdot), 1j * ghat * fp * aqdot)
    R0 = Ldot - (L @ S - S @ L)
    b = -np.einsum("ij,aji->a", R0, basis.step[basis.negative])
    m, *_ = np.linalg.lstsq(c[:, None] * basis.basis_roots, b, rcond=None)
    M = np.einsum("k,kij->ij", m, basis.cartan) + S
    return L, M, m, Ldot


def lax_pair(sys: CMSSystem, basis: CartanWeylBasis):
    """Assemble (L, M) at the system's phase-space point."""
    L, M, m, _ = _lax(sys, basis)
    return LaxPair(L=L, M=M, m=m)


def lax_residual(sys: CMSSystem, basis: CartanWeylBasis):
    """Frobenius norm of Ldot - [L, M] with Ldot from the chain rule."""
    L, M, _, Ldot = _lax(sys, basis)
    return float(np.linalg.norm(Ldot - (L @ M - M @ L)))


def conserved_charges(sys: CMSSystem, basis: CartanWeylBasis, k_max):
    """Charges I_k = tr(L^k)/2 for k = 1..k_max."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    f = sys.potential.f(_check_nonsingular(sys))
    L = _step_sum(basis, sys.p + 1j * _mu(sys, f),
                  1j * sys._root_couplings[3] * f)
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
        raise ValueError("q, p must have length ell+1")
    dq = q[:, None] - q[None, :]
    off = ~np.eye(ell + 1, dtype=bool)
    if np.abs(dq[off]).min() < SINGULAR_GUARD:
        raise SingularConfigError("coincident coordinates")
    h = 0.5 * (p @ p) + 0.5 * omega**2 * (q @ q)
    h = h + 0.5 * g**2 * (1.0 / dq[off] ** 2).sum()
    h = h + 1j * gtilde * ((p[:, None] / np.where(off, dq, np.inf))[off]).sum()
    return complex(h)

