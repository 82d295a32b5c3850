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

from .errors import SingularConfigError
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
        return replace(self, q=np.asarray(q, dtype=complex), p=np.asarray(p, dtype=complex))

    # per-root coupling arrays ------------------------------------------------
    @functools.cached_property
    def _root_couplings(self):
        """Read-only (g, gtilde, ghat^2) per root, built once per system."""
        rs, c = self.root_system, self.couplings
        eff = effective_couplings(c, rs)
        orbits = [rs.orbit_of(i) for i in range(rs.n_roots)]
        arrays = (np.array([c.g(o) for o in orbits]),
                  np.array([c.gtilde(o) for o in orbits]),
                  np.array([eff[o] for o in orbits]))
        for a in arrays:
            a.flags.writeable = False
        return arrays

    def g_per_root(self):
        return self._root_couplings[0]

    def gtilde_per_root(self):
        return self._root_couplings[1]

    def ghat_sq_per_root(self):
        return self._root_couplings[2]

    def ghat_per_root(self):
        return np.sqrt(self.ghat_sq_per_root().astype(complex))


def _check_nonsingular(sys: CMSSystem, q=None):
    q = sys.q if q is None else np.asarray(q, dtype=complex)
    aq = sys.root_system.roots @ q
    d = sys.potential.hyperplane_distance(aq)
    if d.min() < SINGULAR_GUARD:
        i = int(np.argmin(d))
        raise SingularConfigError(
            f"configuration within {d.min():.2e} of the singular hyperplane of "
            f"root {sys.root_system.roots[i]}"
        )
    return q


def mu_vector(sys: CMSSystem, q=None):
    """Deformation vector mu = (1/2) sum_a gtilde_a f(a.q) a."""
    q = _check_nonsingular(sys, q)
    rs = sys.root_system
    aq = rs.roots @ q
    w = sys.gtilde_per_root() * sys.potential.f(aq)
    return 0.5 * (w @ rs.roots)


def mu_jacobian(sys: CMSSystem, q=None):
    """d mu_k / d q_j = (1/2) sum_a gtilde_a f'(a.q) a_k a_j (symmetric)."""
    q = _check_nonsingular(sys, q)
    rs = sys.root_system
    aq = rs.roots @ q
    w = sys.gtilde_per_root() * sys.potential.fprime(aq)
    return 0.5 * np.einsum("a,ak,aj->kj", w, rs.roots, rs.roots)


def verify_mu_identity(sys: CMSSystem):
    """|mu^2 - sum over orbits of |a|^2 gtilde^2 sum_{a>0} V(a.q)|.

    The orbit sums run over positive roots (half the full root set, V
    being even), which is the normalization under which the identity is
    exact.  It is exact for the rational potential only; for the other
    potentials the returned residual is generically large.
    """
    rs = sys.root_system
    q = _check_nonsingular(sys)
    mu = mu_vector(sys)
    lhs = mu @ mu
    aq = rs.roots @ q
    Vaq = sys.potential.V(aq)
    rhs = 0.0
    for orbit in ("short", "long"):
        idx = sorted(rs.long_roots if orbit == "long" else rs.short_roots)
        if not idx:
            continue
        a2 = rs.orbit_length_sq(orbit)
        gt = sys.couplings.gtilde(orbit)
        rhs = rhs + 0.5 * a2 * gt**2 * Vaq[idx].sum()
    return float(abs(lhs - rhs))


def hamiltonian(sys: CMSSystem, q=None, p=None):
    """Deformed Hamiltonian p^2/2 + (1/2) sum ghat^2 V + i mu.p - mu^2/2."""
    q = _check_nonsingular(sys, q)
    p = sys.p if p is None else np.asarray(p, dtype=complex)
    rs = sys.root_system
    aq = rs.roots @ q
    mu = mu_vector(sys, q)
    pot = 0.5 * (sys.ghat_sq_per_root() * sys.potential.V(aq)).sum()
    return 0.5 * (p @ p) + pot + 1j * (mu @ p) - 0.5 * (mu @ mu)


def hamiltonian_undeformed_form(sys: CMSSystem, q=None, p=None):
    """The bilinear form p^2/2 + (1/2) sum g^2 V + i mu.p (no mu^2 term).

    Coincides with `hamiltonian` for the rational potential, where the
    mu-identity turns the -mu^2/2 term into the coupling redefinition.
    """
    q = _check_nonsingular(sys, q)
    p = sys.p if p is None else np.asarray(p, dtype=complex)
    rs = sys.root_system
    aq = rs.roots @ q
    mu = mu_vector(sys, q)
    pot = 0.5 * (sys.g_per_root() ** 2 * sys.potential.V(aq)).sum()
    return 0.5 * (p @ p) + pot + 1j * (mu @ p)


def shifted_equivalence(sys: CMSSystem):
    """|H_mu - h_Cal(q, p + i mu; ghat)|, the momentum-shift identity.

    h_Cal is the Hermitian Calogero-type Hamiltonian with redefined
    couplings evaluated at complex momentum; the residual is an algebraic
    zero for all three potentials.
    """
    q = _check_nonsingular(sys)
    rs = sys.root_system
    aq = rs.roots @ q
    mu = mu_vector(sys)
    shifted = sys.p + 1j * mu
    h_cal = 0.5 * (shifted @ shifted) + 0.5 * (sys.ghat_sq_per_root() * sys.potential.V(aq)).sum()
    return float(abs(hamiltonian(sys) - h_cal))


def equations_of_motion(sys: CMSSystem, q=None, p=None):
    """(qdot, pdot) of the complexified flow of `hamiltonian`.

    One singularity check and one evaluation of f and f' at a.q serve
    mu, its Jacobian and the potential gradient (V' = 2 f f').
    """
    q = _check_nonsingular(sys, q)
    p = sys.p if p is None else np.asarray(p, dtype=complex)
    roots = sys.root_system.roots
    _, gtilde, ghat_sq = sys._root_couplings
    aq = roots @ q
    f = sys.potential.f(aq)
    fp = sys.potential.fprime(aq)
    mu = 0.5 * ((gtilde * f) @ roots)
    J = 0.5 * ((roots.T * (gtilde * fp)) @ roots)
    qdot = p + 1j * mu
    grad_pot = (ghat_sq * (f * fp)) @ roots
    pdot = -grad_pot - 1j * (J @ p) + J @ mu
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
    if dt <= 0:
        raise ValueError("dt must be positive")
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


def _lax_parts(sys: CMSSystem, basis: CartanWeylBasis, q=None, p=None):
    q = _check_nonsingular(sys, q)
    p = sys.p if p is None else np.asarray(p, dtype=complex)
    rs = sys.root_system
    aq = rs.roots @ q
    ghat = sys.ghat_per_root()
    f = sys.potential.f(aq)
    fp = sys.potential.fprime(aq)
    mu = mu_vector(sys, q)
    xi = p + 1j * mu
    L = np.einsum("k,kij->ij", xi, basis.cartan)
    S = np.zeros_like(L)
    for k in range(rs.n_roots):
        L = L + 1j * ghat[k] * f[k] * basis.step[k]
        S = S + 1j * ghat[k] * fp[k] * basis.step[k]
    return L, S, xi


def _lax_m_vector(sys, basis, q=None, p=None):
    """Cartan vector m of M, fixed by closure of the step-operator part.

    Solves, in the least-squares sense, the linear system obtained by
    requiring the E_alpha components of Ldot - [L, M] to vanish.
    """
    q = _check_nonsingular(sys, q)
    p = sys.p if p is None else np.asarray(p, dtype=complex)
    rs = sys.root_system
    L, S, xi = _lax_parts(sys, basis, q, p)
    Ldot = _lax_Ldot(sys, basis, q, p)
    R0 = Ldot - (L @ S - S @ L)
    aq = rs.roots @ q
    ghat = sys.ghat_per_root()
    f = sys.potential.f(aq)
    nc = basis.cartan.shape[0]
    A = np.zeros((rs.n_roots, nc), dtype=complex)
    b = np.zeros(rs.n_roots, dtype=complex)
    for k in range(rs.n_roots):
        c_k = 1j * ghat[k] * f[k]
        A[k] = c_k * basis.basis_roots[k]
        b[k] = -np.trace(R0 @ basis.step[rs.negative_index(k)])
    m, *_ = np.linalg.lstsq(A, b, rcond=None)
    return m


def _lax_Ldot(sys, basis, q, p):
    rs = sys.root_system
    qdot, pdot = equations_of_motion(sys, q, p)
    J = mu_jacobian(sys, q)
    xidot = pdot + 1j * (J @ qdot)
    aq = rs.roots @ q
    aqdot = rs.roots @ qdot
    ghat = sys.ghat_per_root()
    fp = sys.potential.fprime(aq)
    Ldot = np.einsum("k,kij->ij", xidot, basis.cartan)
    for k in range(rs.n_roots):
        Ldot = Ldot + 1j * ghat[k] * fp[k] * aqdot[k] * basis.step[k]
    return Ldot


def lax_pair(sys: CMSSystem, basis: CartanWeylBasis):
    """Assemble (L, M) at the system's phase-space point."""
    L, S, _ = _lax_parts(sys, basis)
    m = _lax_m_vector(sys, basis)
    M = np.einsum("k,kij->ij", m, basis.cartan) + S
    return LaxPair(L=L, M=M, m=m)


def lax_residual(sys: CMSSystem, basis: CartanWeylBasis):
    """Frobenius norm of Ldot - [L, M] with Ldot from the chain rule."""
    pair = lax_pair(sys, basis)
    Ldot = _lax_Ldot(sys, basis, sys.q, sys.p)
    comm = pair.L @ pair.M - pair.M @ pair.L
    return float(np.linalg.norm(Ldot - comm))


def conserved_charges(sys: CMSSystem, basis: CartanWeylBasis, k_max):
    """Charges I_k = tr(L^k)/2 for k = 1..k_max."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    L, _, _ = _lax_parts(sys, basis)
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

