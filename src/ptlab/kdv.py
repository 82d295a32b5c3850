"""Deformed KdV flows on a periodic grid.

Two one-parameter deformations of the KdV equation are evolved side by
side.  The `bender` flow deforms the nonlinear term,

    u_t = i u (i u_x)^eps - u_xxx,

while the `fring` flow keeps the nonlinear term and derives the
dispersion from the deformed Hamiltonian density, giving

    u_t = -u u_x - i eps (eps - 1) (i u_x)^(eps - 2) u_x x^2
          - eps (i u_x)^(eps - 1) u_xxx.

Both reduce to ordinary KdV at eps = 1.  Spatial derivatives are
spectral (FFT); time stepping is RK4 with an integrating factor for the
stiff linear dispersion.  Fractional powers of (i u_x) use the principal
branch, and evolution aborts with BranchError when the base crosses the
cut for non-integer eps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, BranchError, ConfigurationError

_BLOWUP_FACTOR = 1e6


class Flow(enum.Enum):
    BENDER = "bender"
    FRING = "fring"


@dataclass(frozen=True)
class KdVField:
    """Periodic field sample: u(x) on n points of [0, L)."""
    L: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        if self.L <= 0:
            raise ConfigurationError("period L must be positive")
        if self.values.size < 16:
            raise ConfigurationError("need at least 16 samples")

    @property
    def n(self):
        return self.values.size

    @property
    def x(self):
        return np.linspace(0.0, self.L, self.n, endpoint=False)

    @property
    def k(self):
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.L / self.n)

    def deriv(self, order=1):
        return np.fft.ifft((1j * self.k) ** order * np.fft.fft(self.values))

    def with_values(self, values):
        return KdVField(L=self.L, values=values)

    @classmethod
    def from_callable(cls, f, L, n):
        x = np.linspace(0.0, L, n, endpoint=False)
        return cls(L=L, values=np.asarray(f(x), dtype=complex))


def _ipow(base, p, where):
    """Principal-branch power of (i u_x)-type bases with cut detection."""
    if float(p) == int(p):
        return base ** int(p)
    neg = (base.real < 0) & (np.abs(base.imag) < 1e-13 * (1 + np.abs(base.real)))
    if np.any(neg):
        raise BranchError("fractional power base touched the negative real axis",
                          where=where)
    return base ** p


def rhs_bender(field: KdVField, eps):
    ux = field.deriv(1)
    uxxx = field.deriv(3)
    return 1j * field.values * _ipow(1j * ux, eps, "bender nonlinearity") - uxxx


def rhs_fring(field: KdVField, eps):
    u = field.values
    ux = field.deriv(1)
    uxx = field.deriv(2)
    uxxx = field.deriv(3)
    base = 1j * ux
    t1 = -u * ux
    t2 = -1j * eps * (eps - 1.0) * _ipow(base, eps - 2.0, "fring curvature term") * uxx**2
    t3 = -eps * _ipow(base, eps - 1.0, "fring dispersion term") * uxxx
    return t1 + t2 + t3


_RHS = {Flow.BENDER: rhs_bender, Flow.FRING: rhs_fring}


# ---------------------------------------------------------------------------
# conserved functionals
# ---------------------------------------------------------------------------

def mass(field: KdVField):
    return complex(np.mean(field.values) * field.L)


def momentum(field: KdVField):
    return complex(np.mean(field.values ** 2) * field.L / 2.0)


def energy(field: KdVField, eps):
    """Integral of the flow-generating density -u^3/6 - (i u_x)^(eps+1)/(eps+1).

    Both flows conserve their Hamiltonian; for the `fring` flow this
    density generates the evolution exactly, u_t = d/dx (dH/du).
    """
    u = field.values
    ux = field.deriv(1)
    dens = -(u ** 3) / 6.0 - _ipow(1j * ux, eps + 1.0, "energy density") / (eps + 1.0)
    return complex(np.mean(dens) * field.L)


def hamiltonian_density_literal(field: KdVField, eps):
    """Pointwise density u^3 - (i u_x)^(eps+1)/(1+eps), used for reality
    scans; this textbook-looking combination is not the conserved one."""
    u = field.values
    ux = field.deriv(1)
    return u ** 3 - _ipow(1j * ux, eps + 1.0, "literal density") / (1.0 + eps)


def energy_reality_check(field: KdVField, eps, tol=1e-10):
    """Is the spatial integral of the literal density real at tolerance?"""
    dens = hamiltonian_density_literal(field, eps)
    val = complex(np.mean(dens) * field.L)
    return abs(val.imag) < tol * (1.0 + abs(val.real)), val


@dataclass
class ChargeMonitor:
    times: list = field(default_factory=list)
    M: list = field(default_factory=list)
    P: list = field(default_factory=list)
    E: list = field(default_factory=list)

    def record(self, t, f: KdVField, eps):
        self.times.append(float(t))
        self.M.append(mass(f))
        self.P.append(momentum(f))
        self.E.append(energy(f, eps))

    def drift(self):
        out = {}
        for name, vals in (("M", self.M), ("P", self.P), ("E", self.E)):
            v = np.asarray(vals)
            out[name] = float(np.abs(v - v[0]).max()) if len(v) else 0.0
        return out


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

@dataclass
class Evolution:
    times: np.ndarray
    snapshots: list              # list of KdVField
    monitor: ChargeMonitor
    completed: bool


def _has_linear_dispersion(flow, eps):
    """True when the flow contains the linear term -u_xxx.

    The `bender` deformation keeps it for every eps; the `fring`
    deformation replaces it by -eps (i u_x)^(eps-1) u_xxx, which is
    linear only at eps = 1.
    """
    return flow is Flow.BENDER or float(eps) == 1.0


def evolve(field: KdVField, flow, eps, t_final, dt, n_snapshots=11,
           monitor_stride=10):
    """Integrating-factor RK4 evolution of one deformed flow.

    When the flow carries the linear dispersion -u_xxx, that part is
    integrated exactly in Fourier space (factor exp(i k^3 t)) and RK4
    handles the remaining nonlinear terms; flows whose dispersion is
    itself nonlinear are stepped by plain RK4.  Raises BlowUpError (with
    the last completed time) when the solution magnitude grows by more
    than 1e6 over the initial one.
    """
    if isinstance(flow, str):
        flow = Flow(flow)
    if dt == 0 or t_final / dt <= 0:
        raise ConfigurationError("t_final and dt must be nonzero with the same sign")
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ConfigurationError("t_final must be an integer number of steps")
    k = field.k
    use_if = _has_linear_dispersion(flow, eps)
    # u_t = -u_xxx evolves modes as exp(+i k^3 t); the frame variable is
    # v = exp(-i k^3 t) u_hat
    ik3 = -1j * k ** 3 if use_if else np.zeros_like(k)
    u0_scale = np.abs(field.values).max() + 1e-300

    snap_every = max(1, n_steps // max(1, n_snapshots - 1))
    mon = ChargeMonitor()
    mon.record(0.0, field, eps)
    snaps = [field]
    times = [0.0]

    v = np.fft.fft(field.values)
    t = 0.0

    def N(vhat, tau):
        """Stepped RHS in the (possibly moving) integrating-factor frame."""
        u = np.fft.ifft(np.exp(-ik3 * tau) * vhat)
        f = field.with_values(u)
        g = _RHS[flow](f, eps)
        if use_if:
            g = g + f.deriv(3)     # the -u_xxx part lives in the factor
        return np.exp(ik3 * tau) * np.fft.fft(g)

    completed = True
    for step in range(n_steps):
        try:
            k1 = N(v, t)
            k2 = N(v + 0.5 * dt * k1, t + 0.5 * dt)
            k3_ = N(v + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = N(v + dt * k3_, t + dt)
        except BranchError as err:
            raise BranchError(f"{err} at t = {t:g}", where=err.where) from None
        v = v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3_ + k4)
        t = (step + 1) * dt
        u = np.fft.ifft(np.exp(-ik3 * t) * v)
        if not np.all(np.isfinite(u)) or np.abs(u).max() > _BLOWUP_FACTOR * u0_scale:
            raise BlowUpError(f"solution blew up at t = {t:g}", t_last=step * dt)
        cur = field.with_values(u)
        if (step + 1) % monitor_stride == 0 or step == n_steps - 1:
            mon.record(t, cur, eps)
        if (step + 1) % snap_every == 0 or step == n_steps - 1:
            snaps.append(cur)
            times.append(t)

    return Evolution(times=np.asarray(times), snapshots=snaps,
                     monitor=mon, completed=completed)


# ---------------------------------------------------------------------------
# symmetry checks
# ---------------------------------------------------------------------------

def pt_reflect(field: KdVField):
    """x -> -x together with complex conjugation (antilinear reflection)."""
    vals = np.conj(field.values[::-1])
    vals = np.roll(vals, 1)        # keep the x = 0 sample fixed on the grid
    return field.with_values(vals)


def pt_covariance_defect(field: KdVField, flow, eps, t_final, dt):
    """Covariance of the flow under x -> -x, t -> -t, conjugation.

    Evolves u forward by t_final, and the reflected field with the
    reversed flow (dt -> -dt) by the same amount; if the flow commutes
    with the antilinear symmetry the reflected forward state equals the
    backward state of the reflection.  Returns the max pointwise defect.
    """
    fwd = evolve(field, flow, eps, t_final, dt, n_snapshots=2).snapshots[-1]
    back = evolve(pt_reflect(field), flow, eps, -t_final, -dt, n_snapshots=2).snapshots[-1]
    return float(np.abs(pt_reflect(fwd).values - back.values).max())


def galilean_boost(field: KdVField, v):
    """u(x) -> u(x) + v (zero-mode shift used with x -> x - v t)."""
    return field.with_values(field.values + v)


def galilean_defect(field: KdVField, flow, eps, v, t_final, dt):
    """Residual of the boost covariance u -> u(x - v t) + v.

    For the `fring` flow the boost maps solutions to solutions for every
    eps; for the `bender` flow it holds only at eps = 1.  The shifted
    comparison uses Fourier interpolation, so the defect is spectrally
    accurate.
    """
    ev_plain = evolve(field, flow, eps, t_final, dt, n_snapshots=2)
    ev_boost = evolve(galilean_boost(field, v), flow, eps, t_final, dt, n_snapshots=2)
    u_end = ev_plain.snapshots[-1]
    # translate by v*t with the Fourier shift theorem, then add v
    shift = np.exp(-1j * u_end.k * v * t_final)
    translated = np.fft.ifft(shift * np.fft.fft(u_end.values)) + v
    return float(np.abs(ev_boost.snapshots[-1].values - translated).max())


# ---------------------------------------------------------------------------
# traveling waves
# ---------------------------------------------------------------------------

def soliton(c, L, n, x0=None):
    """KdV one-soliton 3 c sech^2(sqrt(c) (x - x0) / 2), periodized."""
    if c <= 0:
        raise ConfigurationError("soliton speed c must be positive")
    if x0 is None:
        x0 = L / 2.0
    x = np.linspace(0.0, L, n, endpoint=False)
    return KdVField(L=L, values=3.0 * c / np.cosh(0.5 * np.sqrt(c) * (x - x0)) ** 2)


@dataclass
class TravelingWaveReport:
    eps: float
    c: float
    exists: bool
    reason: str
    profile: KdVField | None = None


def traveling_wave(eps, c, L=40.0, n=512):
    """Decaying traveling wave of the `fring` flow at speed c.

    For eps = 1 this is the classical soliton.  For eps = 3 and c > 0
    the first integral forces (phi')^4 = -(4/3)(c phi^2/2 - phi^3/6),
    negative for all 0 < phi < 3c, so no real decaying profile exists;
    this is reported rather than raised.
    """
    if eps == 1:
        prof = soliton(c, L, n)
        return TravelingWaveReport(eps=eps, c=c, exists=True,
                                   reason="classical sech^2 soliton", profile=prof)
    if eps == 3 and c > 0:
        return TravelingWaveReport(
            eps=eps, c=c, exists=False,
            reason="first integral makes (phi')^4 negative on 0 < phi < 3c; "
                   "no real decaying profile")
    return TravelingWaveReport(eps=eps, c=c, exists=False,
                               reason="no decaying profile constructed for this (eps, c)")


def traveling_wave_defect(report: TravelingWaveReport, flow=Flow.FRING,
                          t_final=0.5, dt=1e-3):
    """Evolve the profile and compare with its rigid translation by c t."""
    if not report.exists or report.profile is None:
        raise ConfigurationError("no profile to verify")
    f = report.profile
    ev = evolve(f, flow, report.eps, t_final, dt, n_snapshots=2)
    shift = np.exp(-1j * f.k * report.c * t_final)
    translated = np.fft.ifft(shift * np.fft.fft(f.values))
    return float(np.abs(ev.snapshots[-1].values - translated).max())
