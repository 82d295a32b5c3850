"""Partner potentials from a nodeless ground state.

Given samples of a (possibly complex) ground-state wavefunction psi on a
uniform grid, builds the superpotential W = -psi'/psi, the partner
potentials V_-= psi''/psi and V_+ = 2(psi'/psi)^2 - psi''/psi, the
discretized partner Hamiltonians, and the first-order charge
Q = d/dx + W that intertwines them.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NodeError, require_finite
from .gridops import band_matvec, derivative, eigenpairs_near, schrodinger_bands

NODE_REL_TOL = 1e-12

# rows at each edge that `verify_intertwining` leaves out; a grid keeps one more
EDGE_ROWS = 12
MIN_SAMPLES = 2 * EDGE_ROWS + 1


@dataclass(frozen=True)
class GridWavefunction:
    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        if not self.dx > 0:
            raise ConfigurationError("dx must be positive")
        if self.values.size < MIN_SAMPLES:
            raise ConfigurationError(f"need at least {MIN_SAMPLES} samples")
        if not np.isfinite(self.values).all():
            raise ConfigurationError("wavefunction samples must be finite")

    @property
    def n(self):
        return self.values.size

    @property
    def x(self):
        return self.x0 + self.dx * np.arange(self.n)

    @classmethod
    def from_callable(cls, f, window, n):
        if n < MIN_SAMPLES:
            raise ConfigurationError(f"need at least {MIN_SAMPLES} samples")
        x = np.linspace(window[0], window[1], n)
        return cls(x0=x[0], dx=x[1] - x[0], values=np.asarray(f(x), dtype=complex))

    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.dx))


@dataclass
class SuperPartnerPair:
    x0: float
    dx: float
    W: np.ndarray
    V_minus: np.ndarray
    V_plus: np.ndarray
    E_m: complex = 0.0

    @property
    def x(self):
        return self.x0 + self.dx * np.arange(self.W.size)

    @property
    def w(self):
        return self.W.real

    @property
    def w_hat(self):
        return self.W.imag

    @property
    def eps_hat_m(self):
        return float(np.imag(self.E_m))


def _check_nodeless(psi: GridWavefunction):
    a = np.abs(psi.values)
    thr = NODE_REL_TOL * a.max()
    above = a >= thr
    idx = np.nonzero(above)[0]
    lo, hi = idx[0], idx[-1]
    bad = np.nonzero(~above[lo:hi + 1])[0]
    if bad.size:
        xb = psi.x[lo + bad[0]]
        raise NodeError(f"wavefunction vanishes inside the working window at x = {xb:g}")


def superpotential_from_groundstate(psi: GridWavefunction, E_m=0.0):
    """Build W and the partner potentials from a nodeless ground state.

    Derivatives use 4th-order central stencils; the construction is
    invariant under psi -> c psi since only ratios psi'/psi enter.  A psi
    that underflows is refused where V_+, which holds both ratios, is not finite.
    """
    require_finite(E_m=E_m)
    _check_nodeless(psi)
    dpsi = derivative(psi.values, psi.dx, order=1)
    d2psi = derivative(psi.values, psi.dx, order=2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = dpsi / psi.values
        V_minus = d2psi / psi.values
        V_plus = 2.0 * r**2 - V_minus
    bad = ~np.isfinite(V_plus)
    if bad.any():
        raise ConfigurationError(f"W or V_(-+) is not finite at x = {psi.x[bad.argmax()]:g}: "
                                 "the ground state underflows there")
    return SuperPartnerPair(x0=psi.x0, dx=psi.dx, W=-r,
                            V_minus=V_minus, V_plus=V_plus, E_m=complex(E_m))


@dataclass(frozen=True)
class DiscretizedHamiltonian:
    """-d^2/dx^2 + V in the band storage of `gridops`."""
    bands: np.ndarray

    def _shift(self):
        """min Re V, the interior row sum (the stencil annihilates
        constants); -Lap is positive definite, so the shift lies left of
        the whole spectrum."""
        w = self.bands.shape[0] // 2
        return (self.bands[w].real + 2.0 * self.bands[w + 1:, 0].real.sum()).min()

    def eigensystem(self, k=20):
        """The k lowest eigenpairs by real part (vectors as columns)."""
        ev, vec = eigenpairs_near(self.bands, k, self._shift(), vectors=True)
        order = np.argsort(ev.real)
        return ev[order], vec[:, order]

    def eigenvalues(self, k=20):
        """The k lowest eigenvalues, sorted by real part; no eigenvectors
        are computed."""
        ev = eigenpairs_near(self.bands, k, self._shift())
        return ev[np.argsort(ev.real)]


def build_partner_hamiltonians(pair: SuperPartnerPair):
    """Partner Hamiltonians -Lap + V_(-+) + E_m at 4th order, Dirichlet boundaries."""
    E_m = complex(pair.E_m)
    return tuple(DiscretizedHamiltonian(schrodinger_bands(V + E_m, pair.dx))
                 for V in (pair.V_minus, pair.V_plus))


def _probe_states(x):
    """Deterministic smooth wavepackets vanishing near the window edges."""
    a, b = x[0], x[-1]
    span = b - a
    probes = []
    for c, width, kk in [(0.5, 0.08, 0.0), (0.35, 0.10, 3.0), (0.65, 0.12, 5.0),
                         (0.45, 0.06, 8.0), (0.55, 0.09, 2.0)]:
        x0 = a + c * span
        s = width * span
        probes.append(np.exp(-((x - x0) / s) ** 2 / 2) * np.exp(2j * np.pi * kk * (x - a) / span))
    return probes


def verify_intertwining(pair: SuperPartnerPair, conjugate=False):
    """Interior residual of Q H_- - H_+ Q (or Qtilde H_+ - H_- Qtilde).

    The defect operator is applied to a fixed family of smooth probe
    states (raw matrix norms are dominated by grid-scale frequencies the
    stencils do not resolve) and normalized by the action of H_- - E_m on
    the probe, so the value is grid-independent up to discretization
    error and, as E_m cancels from the defect, independent of E_m.
    Q and H act on the probes directly (`derivative`, `band_matvec`).
    The `EDGE_ROWS` boundary rows at each end are excluded.  The
    operators are 4th order, and so is the convergence of the residual
    under grid refinement.
    """
    H_minus, H_plus = build_partner_hamiltonians(pair)
    sign, first, second = ((-1.0, H_plus, H_minus) if conjugate
                           else (1.0, H_minus, H_plus))

    def charge(u):
        return sign * derivative(u, pair.dx, order=1) + pair.W * u

    sl = slice(EDGE_ROWS, pair.W.size - EDGE_ROWS)
    worst = 0.0
    for u in _probe_states(pair.x):
        r = charge(band_matvec(first.bands, u)) - band_matvec(second.bands, charge(u))
        h_u = band_matvec(H_minus.bands, u) - pair.E_m * u
        den = np.linalg.norm(h_u[sl]) + np.linalg.norm(u[sl])
        worst = max(worst, np.linalg.norm(r[sl]) / den)
    return float(worst)


@dataclass
class MappedState:
    wavefunction: GridWavefunction
    annihilated: bool


def map_wavefunction(pair: SuperPartnerPair, phi: GridWavefunction):
    """Apply Q = d/dx + W to an eigenvector of H_-.

    Acting on the generating ground state itself, Q annihilates; this is
    reported through the `annihilated` flag rather than as an error.
    """
    qphi = derivative(phi.values, phi.dx, order=1) + pair.W * phi.values
    mapped = GridWavefunction(x0=phi.x0, dx=phi.dx, values=qphi)
    annihilated = mapped.norm() < 1e-6 * phi.norm()
    return MappedState(wavefunction=mapped, annihilated=annihilated)


class SpectralCase(enum.Enum):
    ISOSPECTRAL_QUARTET = "quartet"
    TRIPLET_PLUS = "triplet+"
    TRIPLET_MINUS = "triplet-"
    DOUBLET = "doublet"


def classify_case(pair: SuperPartnerPair):
    """Classify the isospectral pattern from the split W = w + i w_hat.

    Doublet: w_hat zero to 1e-10 (relative to 1 + max |W|).  Triplet(+-):
    the pointwise relation w = (-+ w_hat' - eps_hat)/(2 w_hat) holds to
    1e-8 for the respective sign (the plus sign is checked first; a
    constant nonzero w_hat with eps_hat = 0 and w = 0 satisfies both).
    Anything else is a quartet.  The 8 samples nearest each edge are
    left out.
    """
    sl = slice(8, pair.W.size - 8)
    w, what = pair.w[sl], pair.w_hat[sl]
    scale = 1.0 + np.abs(pair.W[sl]).max()
    if np.abs(what).max() < 1e-10 * scale:
        return SpectralCase.DOUBLET
    if np.abs(what).min() < 1e-10 * scale:
        warnings.warn("w_hat has zeros but is not identically zero; "
                      "triplet relation undefined there - classifying as quartet")
        return SpectralCase.ISOSPECTRAL_QUARTET
    whatp = derivative(pair.w_hat, pair.dx, order=1).real[sl]
    for sign, case in ((+1.0, SpectralCase.TRIPLET_PLUS),
                       (-1.0, SpectralCase.TRIPLET_MINUS)):
        rhs = (-sign * whatp - pair.eps_hat_m) / (2.0 * what)
        if np.abs(w - rhs).max() < 1e-8 * scale:
            return case
    return SpectralCase.ISOSPECTRAL_QUARTET
