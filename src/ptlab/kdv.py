"""Deformed KdV flows on a periodic grid.

Two one-parameter deformations of the KdV equation are evolved side by
side.  The `bender` flow deforms the nonlinear term,

    u_t = i u (i u_x)^eps - u_xxx,

while the `fring` flow keeps the nonlinear term and derives the
dispersion from the deformed Hamiltonian density, giving

    u_t = -u u_x - i eps (eps - 1) (i u_x)^(eps - 2) u_x x^2
          - eps (i u_x)^(eps - 1) u_xxx.

Both reduce to ordinary KdV at eps = 1.  Spatial derivatives are
spectral: u, u_x, u_xx and u_xxx come together from one batched inverse
FFT of (ik)^m u_hat, m = 0..3, and each flow's right-hand side is a
pointwise formula in those four arrays.  Time stepping is RK4; every
stage costs one batched inverse and one forward FFT.  Where the flow has
the stiff linear dispersion -u_xxx (bender at every eps, fring at
eps = 1), a global integrating factor carries it exactly, and each stage
transforms only u and u_x (m = 0, 1) for the nonlinear remainder;
otherwise each stage transforms all four rows.
Fractional powers of (i u_x) use the principal branch, and evolution
aborts with BranchError when the base crosses the cut for non-integer
eps.
"""

from __future__ import annotations

import contextlib
import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, BranchError, ConfigurationError, require_finite

_BLOWUP_FACTOR = 1e6
_ORDERS = np.arange(4)[:, None]    # derivative orders of one batched transform


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
        if not self.L > 0:
            raise ConfigurationError("period L must be positive")
        if self.values.size < 16:
            raise ConfigurationError("need at least 16 samples")

    @property
    def n(self):
        return self.values.size

    @functools.cached_property
    def x(self):
        return np.linspace(0.0, self.L, self.n, endpoint=False)

    @functools.cached_property
    def k(self):
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.L / self.n)

    @functools.cached_property
    def _ik_powers(self):
        """(ik)^m for m = 0..3, one row per derivative order."""
        return (1j * self.k) ** _ORDERS

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
        # numpy gives base ** 1 the same bits, but by its slow general path
        return base if p == 1 else base ** int(p)
    neg = (base.real < 0) & (np.abs(base.imag) < 1e-13 * (1 + np.abs(base.real)))
    if np.any(neg):
        raise BranchError(f"fractional power base of the {where} touched the "
                          "negative real axis")
    return base ** p


def _derivatives(u_hat, ik_powers):
    """Rows (ik)^m u_hat transformed back: u, u_x, ... for m = 0, 1, ..."""
    return np.fft.ifft(ik_powers * u_hat)


def _bender_nonlinear(u, ux, eps):
    """i u (i u_x)^eps: the bender flow less its linear dispersion -u_xxx."""
    return 1j * u * _ipow(1j * ux, eps, "bender nonlinearity")


def _bender_terms(d, eps):
    u, ux, _, uxxx = d
    return _bender_nonlinear(u, ux, eps) - uxxx


def _fring_nonlinear(u, ux, eps):
    """-u u_x: the fring flow at eps = 1 less its linear dispersion -u_xxx.

    Only at eps = 1 is there a linear dispersion to split off (see
    `_has_linear_dispersion`); `eps` keeps the bender signature.
    """
    return -u * ux


def _fring_terms(d, eps):
    u, ux, uxx, uxxx = d
    t1 = _fring_nonlinear(u, ux, eps)
    if eps == 1:
        # no curvature term; its factor (i u_x)^-1 is infinite where u_x = 0
        return t1 - uxxx
    base = 1j * ux
    # one principal-branch power serves both terms: (i u_x)^(eps-1) is
    # (i u_x)^(eps-2) (i u_x) on the principal branch
    p = _ipow(base, eps - 2.0, "fring dispersion and curvature terms")
    t2 = -1j * eps * (eps - 1.0) * p * uxx**2
    t3 = -eps * (p * base) * uxxx
    return t1 + t2 + t3


# pointwise right-hand sides on the rows u, u_x, u_xx, u_xxx of `_derivatives`
_TERMS = {Flow.BENDER: _bender_terms, Flow.FRING: _fring_terms}
# what the integrating factor leaves of each flow, on the rows u, u_x
_NONLINEAR = {Flow.BENDER: _bender_nonlinear, Flow.FRING: _fring_nonlinear}


def rhs_bender(field: KdVField, eps):
    d = _derivatives(np.fft.fft(field.values), field._ik_powers)
    return _bender_terms(d, eps)


def rhs_fring(field: KdVField, eps):
    d = _derivatives(np.fft.fft(field.values), field._ik_powers)
    return _fring_terms(d, eps)


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


def energy_reality_check(field: KdVField, eps):
    """Is the integral of u^3 - (i u_x)^(eps+1)/(1+eps) real to 1e-10?

    This textbook-looking density is not the conserved one (see `energy`).
    """
    u = field.values
    dens = u ** 3 - _ipow(1j * field.deriv(1), eps + 1.0, "literal density") / (1.0 + eps)
    val = complex(np.mean(dens) * field.L)
    return abs(val.imag) < 1e-10 * (1.0 + abs(val.real)), val


@dataclass
class ChargeMonitor:
    times: list = field(default_factory=list)
    M: list = field(default_factory=list)
    P: list = field(default_factory=list)
    E: list = field(default_factory=list)

    def record(self, t, f: KdVField, eps):
        e = energy(f, eps)          # may raise BranchError: record nothing then
        self.times.append(float(t))
        self.M.append(mass(f))
        self.P.append(momentum(f))
        self.E.append(e)

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
    """RK4 evolution of one deformed flow, integrating factor where it applies.

    Each RK4 stage takes one batched inverse FFT of rows (ik)^m u_hat,
    evaluates a pointwise formula on them and makes one forward FFT; the
    rows of the state after a step also serve the first stage of the
    next step.

    When the flow carries the linear dispersion -u_xxx, that part is
    integrated exactly in Fourier space and RK4 handles the remaining
    nonlinear part, which reads only the rows u and u_x (m = 0, 1).
    The frame is global: the stepped variable is
    v = exp(-i k^3 t) u_hat, and the factor exp(i k^3 tau) is computed
    afresh from the stage time tau (its inverse is its conjugate), so
    rounding in the factor does not accumulate from step to step.  Flows
    whose dispersion is itself nonlinear are stepped by plain RK4, with
    no factor at all, on the rows u, u_x, u_xx and u_xxx (m = 0..3).

    Raises ConfigurationError for a NaN or infinite eps, t_final or dt,
    BlowUpError (with the last completed time) when the solution
    magnitude grows by more than 1e6 over the initial one, and
    BranchError when a fractional power meets its cut.  Either error
    carries the evolution up to the last good step as `exc.partial`, an
    Evolution with `completed` False.
    """
    if isinstance(flow, str):
        flow = Flow(flow)
    require_finite(eps=eps, t_final=t_final, dt=dt)
    if dt == 0 or not t_final / dt > 0:
        raise ConfigurationError("t_final and dt must be nonzero with the same sign")
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ConfigurationError("t_final must be an integer number of steps")
    terms, nonlinear = _TERMS[flow], _NONLINEAR[flow]
    use_if = _has_linear_dispersion(flow, eps)
    # the factor carries -u_xxx, so its stages need only the rows u, u_x
    ik_powers = field._ik_powers[:2] if use_if else field._ik_powers
    # u_t = -u_xxx evolves modes as exp(+i k^3 t)
    ik3 = 1j * field.k ** 3
    u0_scale = np.abs(field.values).max() + 1e-300

    def factor(tau):
        """exp(i k^3 tau), taking v to u_hat; None when there is no factor."""
        return np.exp(ik3 * tau) if use_if else None

    def derivs(v, e):
        return _derivatives(v if e is None else e * v, ik_powers)

    def N(d, e):
        """Stepped right-hand side in the frame whose factor is e."""
        if e is None:
            return np.fft.fft(terms(d, eps))
        return np.conj(e) * np.fft.fft(nonlinear(*d, eps))

    snap_every = max(1, n_steps // max(1, n_snapshots - 1))
    mon = ChargeMonitor()
    snaps = [field]
    times = [0.0]
    t = 0.0
    try:
        mon.record(0.0, field, eps)
        v = np.fft.fft(field.values)
        e = factor(0.0)
        d = derivs(v, e)
        for step in range(n_steps):
            t_next = (step + 1) * dt
            e_half, e_next = factor(t + 0.5 * dt), factor(t_next)
            try:
                k1 = N(d, e)
                k2 = N(derivs(v + 0.5 * dt * k1, e_half), e_half)
                k3_ = N(derivs(v + 0.5 * dt * k2, e_half), e_half)
                k4 = N(derivs(v + dt * k3_, e_next), e_next)
            except BranchError as err:
                raise BranchError(f"{err} at t = {t:g}") from None
            v = v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3_ + k4)
            d_next = derivs(v, e_next)
            u = d_next[0]
            # a NaN fails the comparison too
            if not np.abs(u).max() <= _BLOWUP_FACTOR * u0_scale:
                raise BlowUpError(f"solution blew up at t = {t_next:g}", t_last=t)
            t, e, d = t_next, e_next, d_next
            record = (step + 1) % monitor_stride == 0 or step == n_steps - 1
            snap = (step + 1) % snap_every == 0 or step == n_steps - 1
            if record or snap:
                cur = field.with_values(u.copy())
            if record:
                mon.record(t, cur, eps)
            if snap:
                snaps.append(cur)
                times.append(t)
    except (BranchError, BlowUpError) as err:
        # close the record at the last good state (d holds its rows once t > 0)
        if times[-1] != t:
            snaps.append(field.with_values(d[0].copy()))
            times.append(t)
        if not mon.times or mon.times[-1] != t:
            with contextlib.suppress(BranchError):
                mon.record(t, snaps[-1], eps)
        err.partial = Evolution(times=np.asarray(times), snapshots=snaps,
                                monitor=mon, completed=False)
        raise

    return Evolution(times=np.asarray(times), snapshots=snaps,
                     monitor=mon, completed=True)


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


def galilean_defect(field: KdVField, flow, eps, v, t_final, dt):
    """Residual of the boost covariance u -> u(x - v t) + v.

    For the `fring` flow the boost maps solutions to solutions for every
    eps; for the `bender` flow it holds only at eps = 1.  The shifted
    comparison uses Fourier interpolation, so the defect is spectrally
    accurate.
    """
    ev_plain = evolve(field, flow, eps, t_final, dt, n_snapshots=2)
    ev_boost = evolve(field.with_values(field.values + v), flow, eps, t_final, dt,
                      n_snapshots=2)
    u_end = ev_plain.snapshots[-1]
    # translate by v*t with the Fourier shift theorem, then add v
    shift = np.exp(-1j * u_end.k * v * t_final)
    translated = np.fft.ifft(shift * np.fft.fft(u_end.values)) + v
    return float(np.abs(ev_boost.snapshots[-1].values - translated).max())


# ---------------------------------------------------------------------------
# traveling waves
# ---------------------------------------------------------------------------

def soliton(c, L, n):
    """KdV one-soliton 3 c sech^2(sqrt(c) (x - L/2) / 2), periodized."""
    if not c > 0:
        raise ConfigurationError("soliton speed c must be positive")
    x = np.linspace(0.0, L, n, endpoint=False)
    return KdVField(L=L, values=3.0 * c / np.cosh(0.5 * np.sqrt(c) * (x - L / 2.0)) ** 2)


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
    require_finite(eps=eps, c=c)
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


def traveling_wave_defect(report: TravelingWaveReport, dt=1e-3):
    """Evolve the profile by the `fring` flow to t = 0.5 and compare with
    its rigid translation by 0.5 c."""
    if not report.exists or report.profile is None:
        raise ConfigurationError("no profile to verify")
    f = report.profile
    ev = evolve(f, Flow.FRING, report.eps, 0.5, dt, n_snapshots=2)
    shift = np.exp(-1j * f.k * report.c * 0.5)
    translated = np.fft.ifft(shift * np.fft.fft(f.values))
    return float(np.abs(ev.snapshots[-1].values - translated).max())
