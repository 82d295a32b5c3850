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
FFT of (ik)^m u_hat, m = 0..3.  Each flow is written once, in split
form u_t = -u_xxx + N(u) where it has the linear dispersion -u_xxx
(bender at every eps, fring at eps = 1) and u_t = N(u) otherwise, with
N a pointwise formula in those arrays.  Time stepping is the adaptive
DOP853 pair shared with the CMS engine (`_stepping`), on the Fourier
coefficients; every right-hand-side evaluation costs one batched inverse
and one forward FFT.  Where the flow has the stiff linear dispersion
-u_xxx, a global integrating factor carries it exactly (Kassam &
Trefethen, SIAM J. Sci. Comput. 26, 2005), and each evaluation
transforms only u and u_x (m = 0, 1) for N; otherwise each transforms
all four rows.  The stepped part obeys Orszag's 2/3 rule: it reads and
changes only the modes |k| < (2/3) k_N, so no product wraps around the
Nyquist mode k_N, and the modes above the cut keep their values in the
stepped frame.
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

from . import _stepping
from .errors import BlowUpError, BranchError, ConfigurationError, require_finite

_BLOWUP_FACTOR = 1e6
# local error tolerance of `evolve`, relative and, in units of max |u(0)|,
# absolute; chosen by measurement (CHANGES.md)
EVOLVE_TOL = 1e-13
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
        if n < 16:
            raise ConfigurationError("need at least 16 samples")
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
    rows = ik_powers * u_hat
    return np.fft.ifft(rows, out=rows)


def _has_linear_dispersion(flow, eps):
    """True when the flow contains the linear term -u_xxx.

    The `bender` deformation keeps it for every eps; the `fring`
    deformation replaces it by -eps (i u_x)^(eps-1) u_xxx, which is
    linear only at eps = 1.
    """
    return flow is Flow.BENDER or float(eps) == 1.0


def _bender(d, eps):
    """N(u) = i u (i u_x)^eps, on the rows u, u_x of `d`."""
    return 1j * d[0] * _ipow(1j * d[1], eps, "bender nonlinearity")


def _fring(d, eps):
    """N(u) = -u u_x at eps = 1, on the rows u, u_x of `d`; otherwise the
    whole flow, on the rows u, u_x, u_xx, u_xxx."""
    t1 = -d[0] * d[1]
    if _has_linear_dispersion(Flow.FRING, eps):
        # no curvature term; its factor (i u_x)^-1 is infinite where u_x = 0
        return t1
    base = 1j * d[1]
    # one principal-branch power serves both terms: (i u_x)^(eps-1) is
    # (i u_x)^(eps-2) (i u_x) on the principal branch
    p = _ipow(base, eps - 2.0, "fring dispersion and curvature terms")
    t2 = -1j * eps * (eps - 1.0) * p * d[2]**2
    t3 = -eps * (p * base) * d[3]
    return t1 + t2 + t3


# N of each flow u_t = -u_xxx + N(u), the -u_xxx only where
# `_has_linear_dispersion`, as a pointwise formula on `_derivatives` rows
_NONLINEAR = {Flow.BENDER: _bender, Flow.FRING: _fring}


def _rhs(flow, field, eps):
    d = _derivatives(np.fft.fft(field.values), field._ik_powers)
    nonlinear = _NONLINEAR[flow](d, eps)
    return nonlinear - d[3] if _has_linear_dispersion(flow, eps) else nonlinear


def rhs_bender(field: KdVField, eps):
    return _rhs(Flow.BENDER, field, eps)


def rhs_fring(field: KdVField, eps):
    return _rhs(Flow.FRING, field, eps)


_RHS = {Flow.BENDER: rhs_bender, Flow.FRING: rhs_fring}


# ---------------------------------------------------------------------------
# conserved functionals
# ---------------------------------------------------------------------------

def _mass(u, L):
    return np.mean(u, axis=-1) * L


def _momentum(u, L):
    return np.mean(u ** 2, axis=-1) * L / 2.0


def _energy(u, ux, L, eps):
    # the power first, so that at most two temporaries of u's size live at once
    w = _ipow(1j * ux, eps + 1.0, "energy density") / (eps + 1.0)
    return np.mean(-(u ** 3) / 6.0 - w, axis=-1) * L


def mass(field: KdVField):
    return complex(_mass(field.values, field.L))


def momentum(field: KdVField):
    return complex(_momentum(field.values, field.L))


def energy(field: KdVField, eps):
    """Integral of the flow-generating density -u^3/6 - (i u_x)^(eps+1)/(eps+1).

    Both flows conserve their Hamiltonian; for the `fring` flow this
    density generates the evolution exactly, u_t = d/dx (dH/du).
    """
    return complex(_energy(field.values, field.deriv(1), field.L, eps))


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

    def record(self, ts, u, ux, L, eps):
        """Charges at the times ts of the fields in the rows of u, with
        derivatives ux, on a period L.

        Computes every charge before it appends any, so a BranchError
        from the energy records nothing.
        """
        charges = _mass(u, L), _momentum(u, L), _energy(u, ux, L, eps)
        self.times.extend(np.asarray(ts, dtype=float).tolist())
        for out, values in zip((self.M, self.P, self.E), charges):
            out.extend(values.tolist())

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


def _n_steps(t_final, dt):
    """The number of record intervals dt in t_final, which it must divide."""
    require_finite(t_final=t_final, dt=dt)
    if dt == 0 or not t_final / dt > 0:
        raise ConfigurationError("t_final and dt must be nonzero with the same sign")
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ConfigurationError("t_final must be an integer number of steps")
    return n_steps


def evolve(field: KdVField, flow, eps, t_final, dt, n_snapshots=11,
           monitor_stride=10):
    """Adaptive DOP853 evolution of one deformed flow on the Fourier modes.

    The solver steps the Fourier coefficients and keeps each step's local
    error within EVOLVE_TOL, relative and, in units of max |u(0)|,
    absolute: coefficient errors of at most d move u by at most d, as u
    is the mean of its Fourier modes.  These are local bounds: over a run
    the errors of its steps add up, which matters for fields with content
    up to the cut (a kink, or too few points).  `dt` sets the record grid:
    snapshots (n_snapshots of them, at steps j * n_steps // (n_snapshots - 1)
    for j = 0 .. n_snapshots - 1) and charge records (every
    monitor_stride * dt, and the end) fall on multiples of dt, read from
    the solver's dense output; the solver picks its own steps.

    Every right-hand-side evaluation takes one batched inverse FFT of
    rows (ik)^m u_hat, evaluates the flow's N (`_NONLINEAR`) on them and
    makes one forward FFT.  When the flow carries the linear dispersion
    -u_xxx, that part is integrated exactly in Fourier space and the
    solver steps N, which then reads only the rows u and u_x (m = 0, 1).  The frame is global: the stepped variable is
    v = exp(-i k^3 t) u_hat, and the factor exp(i k^3 t) is computed
    afresh at each evaluation time, on the kept modes only (its inverse
    is its conjugate); records take it on all modes.  Flows
    whose dispersion is itself nonlinear are stepped with no factor at
    all, on the rows u, u_x, u_xx and u_xxx (m = 0..3).  In either frame
    the rows and the result keep only the modes |k| < (2/3) k_N (the 2/3
    rule), so the modes above stay as they are in the stepped variable;
    in the integrating-factor frame each step is also bounded so that
    the fastest phase the factor leaves, 3 k_top^2 (2 pi / L) at the top
    kept mode k_top, turns by at most 5 a step.

    Records come in one batch per accepted step: the m record times the
    step covers are read from one vectorised evaluation of its dense
    output, taken back to u_hat by one factor exp(i k^3 t) over the
    (m, n) batch, and to u and u_x by one inverse FFT of the (m, 2, n)
    rows; the charge monitor reuses that u_x and takes M, P and E of the
    whole batch at once.  A batch whose energy meets the branch cut keeps
    none of its rows, so the record then ends at the step before.

    Raises ConfigurationError for a NaN or infinite eps, t_final or dt,
    and for fewer than 2 snapshots or more than n_steps + 1.
    Raises BlowUpError, with the last accepted time as `t_last`, when
    the step size collapses or the L2 norm of u grows by more than 1e6
    over the initial one (a NaN counts as growth), and BranchError,
    naming that time, when a fractional power meets its cut.  Either
    error carries the evolution up to that time as `exc.partial`, an
    Evolution with `completed` False.
    """
    if isinstance(flow, str):
        flow = Flow(flow)
    require_finite(eps=eps)
    n_steps = _n_steps(t_final, dt)
    if not 2 <= n_snapshots <= n_steps + 1:
        raise ConfigurationError(f"need 2 to {n_steps + 1} snapshots for {n_steps} steps, "
                                 f"got {n_snapshots}")
    # snapshot j at step j * n_steps // (n_snapshots - 1); j = 0 is the start
    snap_at = {(j * n_steps // (n_snapshots - 1)) * dt for j in range(1, n_snapshots)}
    mon_at = {k * dt for k in (*range(0, n_steps, monitor_stride), n_steps)}
    stops = sorted(snap_at | mon_at, key=abs)

    use_if = _has_linear_dispersion(flow, eps)
    uux = field._ik_powers[:2]          # the rows u, u_x
    # u_t = -u_xxx evolves modes as exp(+i k^3 t)
    ik3 = 1j * field.k ** 3
    # Orszag's 2/3 rule: the stepped part reads and writes only |k| < (2/3) k_N,
    # that is |j| < n/3 for the mode index j in FFT order
    j = np.arange(field.n)
    keep = 3 * np.minimum(j, field.n - j) < field.n
    nonlinear = _NONLINEAR[flow]

    if use_if:
        # the factor on the kept modes only, and 0 above the cut
        ik3_kept = ik3[keep]
        e = np.zeros(field.n, dtype=complex)

        def rhs(t, v):
            e[keep] = np.exp(ik3_kept * t)
            return np.conj(e) * np.fft.fft(nonlinear(_derivatives(e * v, uux), eps))

        # The factor leaves the phase exp(3i k k1 k2 t) on each product of
        # modes k1 + k2 = k; with k1 the first mode 2 pi / L and k near the
        # top kept mode k_top, it turns at 3 k_top^2 (2 pi / L).  A step
        # turning it by more than 5 (DOP853 is stable on the imaginary axis
        # up to 5.8) lets rounding in the top modes grow.
        k_top = np.abs(field.k[keep]).max()
        max_step = 5.0 / (3.0 * k_top ** 2 * (2.0 * np.pi / field.L))
    else:
        rows = keep * field._ik_powers

        def rhs(t, v):
            return keep * np.fft.fft(nonlinear(_derivatives(v, rows), eps))

        max_step = np.inf

    v0 = np.fft.fft(field.values)
    # |e| = 1, so the L2 norm of v is that of u_hat in either frame
    norm_bound = _BLOWUP_FACTOR * np.linalg.norm(v0)

    def check(t, v):
        # a NaN fails the comparison too
        if not np.linalg.norm(v) <= norm_bound:
            raise BlowUpError(f"the L2 norm of u grew more than {_BLOWUP_FACTOR:g}-fold "
                              f"by t = {t:g}")

    def fields(ts, vs):
        """The rows u and u_x at the times ts of the stepped states vs: the
        factor exp(i k^3 t) over (m, n), if any, then one (m, 2, n) inverse
        FFT."""
        if use_if:
            vs = np.exp(ik3 * ts[:, None]) * vs
        return _derivatives(vs[:, None], uux)

    mon = ChargeMonitor()
    snaps = [field]                     # the start is its own snapshot
    times = [0.0]

    def record(ts, vs):
        d = fields(ts, vs)
        t_list = ts.tolist()
        at_mon = np.array([t in mon_at for t in t_list])
        if at_mon.any():
            rows = slice(None) if at_mon.all() else at_mon     # a view where it can be
            mon.record(ts[rows], d[rows, 0], d[rows, 1], field.L, eps)
        for t, u in zip(t_list, d[:, 0]):
            if t in snap_at:
                snaps.append(field.with_values(u.copy()))
                times.append(t)

    # a blowing-up state overflows in rejected stages before the step size
    # collapses; that collapse is reported below as BlowUpError
    with np.errstate(over="ignore", invalid="ignore"):
        stop = _stepping.integrate(rhs, v0, stops, EVOLVE_TOL,
                                   EVOLVE_TOL * (np.abs(field.values).max() or 1.0),
                                   max_step, record, check)
    if stop.error is None:
        return Evolution(times=np.asarray(times), snapshots=snaps,
                         monitor=mon, completed=True)

    # close the record at the last accepted state
    t = float(stop.t)
    d = fields(np.array([t]), stop.y[None])
    if times[-1] != t:
        snaps.append(field.with_values(d[0, 0]))
        times.append(t)
    if not mon.times or mon.times[-1] != t:
        with contextlib.suppress(BranchError):
            mon.record([t], d[:, 0], d[:, 1], field.L, eps)
    if isinstance(stop.error, BranchError):
        err = BranchError(f"{stop.error} at t = {t:g}")
    else:
        err = BlowUpError(f"solution blew up after t = {t:g}: {stop.error}", t_last=t)
    err.partial = Evolution(times=np.asarray(times), snapshots=snaps,
                            monitor=mon, completed=False)
    raise err


# ---------------------------------------------------------------------------
# symmetry checks
# ---------------------------------------------------------------------------

def pt_reflect(field: KdVField):
    """x -> -x together with complex conjugation (antilinear reflection)."""
    vals = np.conj(field.values[::-1])
    vals = np.roll(vals, 1)        # keep the x = 0 sample fixed on the grid
    return field.with_values(vals)


def _end_state(field: KdVField, flow, eps, t_final, dt):
    """The state `evolve` reaches at t_final, with the charges recorded
    only at the two ends, as no defect check reads more."""
    return evolve(field, flow, eps, t_final, dt, n_snapshots=2,
                  monitor_stride=_n_steps(t_final, dt)).snapshots[-1]


def _translated(field: KdVField, s):
    """u(x - s) by the Fourier shift theorem."""
    return np.fft.ifft(np.exp(-1j * field.k * s) * np.fft.fft(field.values))


def pt_covariance_defect(field: KdVField, flow, eps, t_final, dt):
    """Covariance of the flow under x -> -x, t -> -t, conjugation.

    Evolves u forward by t_final, and the reflected field with the
    reversed flow (dt -> -dt) by the same amount; if the flow commutes
    with the antilinear symmetry the reflected forward state equals the
    backward state of the reflection.  Returns the max pointwise defect.
    """
    fwd = _end_state(field, flow, eps, t_final, dt)
    back = _end_state(pt_reflect(field), flow, eps, -t_final, -dt)
    return float(np.abs(pt_reflect(fwd).values - back.values).max())


def galilean_defect(field: KdVField, flow, eps, v, t_final, dt):
    """Residual of the boost covariance u -> u(x - v t) + v.

    For the `fring` flow the boost maps solutions to solutions for every
    eps; for the `bender` flow it holds only at eps = 1.  The shifted
    comparison uses Fourier interpolation, so the defect is spectrally
    accurate.
    """
    plain = _end_state(field, flow, eps, t_final, dt)
    boosted = _end_state(field.with_values(field.values + v), flow, eps, t_final, dt)
    return float(np.abs(boosted.values - (_translated(plain, v * t_final) + v)).max())


# ---------------------------------------------------------------------------
# traveling waves
# ---------------------------------------------------------------------------

def soliton(c, L, n):
    """KdV one-soliton 3 c sech^2(sqrt(c) (x - L/2) / 2), periodized."""
    if not c > 0:
        raise ConfigurationError("soliton speed c must be positive")
    return KdVField.from_callable(
        lambda x: 3.0 * c / np.cosh(0.5 * np.sqrt(c) * (x - L / 2.0)) ** 2, L, n)


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
    end = _end_state(f, Flow.FRING, report.eps, 0.5, dt)
    return float(np.abs(end.values - _translated(f, report.c * 0.5)).max())
