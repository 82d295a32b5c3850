"""Deformed KdV flows: identities, conservation, symmetries, waves."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fring_rhs_symbolic_defects, reference_kdv_evolve, reference_kdv_terms
from ptlab import _stepping, kdv
from ptlab.errors import BlowUpError, BranchError, ConfigurationError


def cosine_field(amplitude=0.5, L=2 * np.pi, n=64, mode=1, phase=0.0):
    return kdv.KdVField.from_callable(
        lambda x: amplitude * np.cos(2 * np.pi * mode * x / L + phase), L, n)


def pt_symmetric_field(L=20.0, n=64):
    # real even plus i times real odd: invariant under x -> -x with
    # conjugation
    return kdv.KdVField.from_callable(
        lambda x: 0.1 * np.cos(2 * np.pi * x / L) + 0.05j * np.sin(4 * np.pi * x / L),
        L, n)


# ---------------------------------------------------------------------------
# fields and right-hand sides
# ---------------------------------------------------------------------------

def test_field_validation():
    with pytest.raises(ConfigurationError):
        kdv.KdVField(L=-1.0, values=np.ones(32))
    with pytest.raises(ConfigurationError):
        kdv.KdVField(L=1.0, values=np.ones(8))
    with pytest.raises(ConfigurationError, match="finite"):
        kdv.KdVField(L=np.inf, values=np.ones(32))
    with pytest.raises(ConfigurationError, match="finite"):
        kdv.KdVField(L=1.0, values=np.full(32, np.nan))
    # the period is refused before the callable sees its grid
    with pytest.raises(ConfigurationError, match="finite"):
        kdv.KdVField.from_callable(lambda x: pytest.fail("sampled"), np.inf, 32)


def test_spectral_derivative_exact_on_modes():
    f = cosine_field(amplitude=1.0, mode=3)
    x = f.x
    expect = -3.0 * np.sin(3 * x)
    assert np.abs(f.deriv(1) - expect).max() < 1e-12
    assert np.abs(f.deriv(3) - 27.0 * np.sin(3 * x)).max() < 1e-10


def test_flows_coincide_with_kdv_at_eps_one():
    f = kdv.KdVField.from_callable(
        lambda x: 0.7 * np.cos(x) + 0.2 * np.sin(2 * x), 2 * np.pi, 96)
    classic = -f.values * f.deriv(1) - f.deriv(3)
    assert np.abs(kdv.rhs_bender(f, 1.0) - classic).max() < 1e-10
    assert np.abs(kdv.rhs_fring(f, 1.0) - classic).max() < 1e-10


@pytest.mark.parametrize("flow", list(kdv.Flow), ids=lambda f: f.value)
def test_rhs_is_stepped_nonlinear_part_less_uxxx_at_eps_one(flow):
    # the integrating-factor stages step N on the rows u, u_x only; the
    # factor carries -u_xxx
    f = kdv.KdVField.from_callable(
        lambda x: 0.7 * np.cos(x) + 0.2 * np.sin(2 * x), 2 * np.pi, 96)
    full = kdv._RHS[flow](f, 1.0)
    split = kdv._NONLINEAR[flow](np.array([f.values, f.deriv(1)]), 1.0) - f.deriv(3)
    assert np.abs(full - split).max() <= 1e-14 * np.abs(full).max()


@pytest.mark.parametrize("eps", [1.0, 2.0, 3.0, 3.5])
@pytest.mark.parametrize("flow", list(kdv.Flow), ids=lambda f: f.value)
def test_rhs_matches_whole_formula_oracle(flow, eps):
    # N(u), less u_xxx where the flow has the linear dispersion, gives the
    # bits of each flow's formula written whole.  Both fields keep i u_x
    # off the branch cut: where Re u_x = 0, offset_pt_field has i u_x on
    # the negative real axis, and its conjugate on the positive one
    pt = offset_pt_field()
    for f in (offset_cosine_field(), pt.with_values(np.conj(pt.values))):
        d = kdv._derivatives(np.fft.fft(f.values), f._ik_powers)
        ref = reference_kdv_terms(flow, d, eps)
        assert kdv._RHS[flow](f, eps).tobytes() == ref.tobytes()


def test_constant_state_is_stationary_at_eps_one():
    # u_x = 0 everywhere: the fring curvature factor (i u_x)^-1 would be
    # infinite, but at eps = 1 the term is absent
    f = kdv.KdVField(L=10.0, values=0.5 * np.ones(32))
    assert np.all(np.isfinite(kdv.rhs_fring(f, 1.0)))
    assert np.abs(kdv.rhs_fring(f, 1.0)).max() < 1e-15
    for flow in ("fring", "bender"):
        ev = kdv.evolve(f, flow, 1.0, 0.01, 1e-3)
        assert ev.completed
        assert np.abs(ev.snapshots[-1].values - 0.5).max() < 1e-14


def test_fring_rhs_is_variational():
    # exact symbolic check that the literal right-hand side equals
    # d/dx of the variational derivative of the deformed density
    assert all(d == 0 for d in fring_rhs_symbolic_defects((2, 3, "7/2")))


def test_branch_error_on_cut_crossing():
    # u = i sin(x) makes i u_x = -cos(x), negative real where cos > 0
    f = kdv.KdVField.from_callable(lambda x: 1j * np.sin(x), 2 * np.pi, 64)
    with pytest.raises(BranchError):
        kdv.rhs_bender(f, 0.5)
    # integer powers never touch the cut
    kdv.rhs_bender(f, 2.0)


# ---------------------------------------------------------------------------
# conserved quantities
# ---------------------------------------------------------------------------

def test_mass_and_momentum_values():
    f = cosine_field(amplitude=2.0)
    assert abs(kdv.mass(f)) < 1e-12
    # (1/2) integral of 4 cos^2 = L
    assert kdv.momentum(f) == pytest.approx(2 * np.pi, abs=1e-12)


def test_charges_conserved_along_kdv_soliton():
    f = kdv.soliton(1.0, 40.0, 256)
    ev = kdv.evolve(f, "fring", 1.0, 0.2, 1e-3)
    drift = ev.monitor.drift()
    assert drift["M"] < 1e-10
    assert drift["P"] < 1e-10
    assert drift["E"] < 1e-9


def test_energy_conserved_for_deformed_flow():
    f = pt_symmetric_field()
    ev = kdv.evolve(f, "fring", 2.0, 0.05, 5e-4)
    assert ev.monitor.drift()["E"] < 1e-10


def test_literal_density_reality_scan():
    ok, val = kdv.energy_reality_check(pt_symmetric_field(), 2.0)
    assert ok
    skew = kdv.KdVField.from_callable(
        lambda x: 0.3 * np.cos(x) + 0.2 * np.cos(2 * x + 0.7), 2 * np.pi, 64)
    ok2, val2 = kdv.energy_reality_check(skew, 2.0)
    assert not ok2


# ---------------------------------------------------------------------------
# evolution machinery
# ---------------------------------------------------------------------------

def test_evolve_validates_time_arguments():
    f = cosine_field()
    with pytest.raises(ConfigurationError):
        kdv.evolve(f, "bender", 1.0, 1.0, -1e-3)
    with pytest.raises(ConfigurationError):
        kdv.evolve(f, "bender", 1.0, 1.05e-3 * 7, 1e-3)


def test_blow_up_reported_with_last_time():
    f = kdv.soliton(1.0, 40.0, 128)
    with pytest.raises(BlowUpError) as exc:
        kdv.evolve(f, "fring", 3.0, 1.0, 1e-3)
    assert exc.value.t_last >= 0.0


def test_record_batch_meeting_the_cut_keeps_none_of_its_rows(monkeypatch):
    # the energy of the third record batch meets the cut
    sizes = []
    energy = kdv._energy

    def cut_third_batch(u, ux, L, eps):
        sizes.append(len(u))
        if len(sizes) == 3:
            raise BranchError("refused by the test")
        return energy(u, ux, L, eps)

    args = (offset_pt_field(), "fring", 1.0, 0.1, 1e-3)
    full = kdv.evolve(*args, monitor_stride=1)
    monkeypatch.setattr(kdv, "_energy", cut_third_batch)
    with pytest.raises(BranchError) as exc:
        kdv.evolve(*args, monitor_stride=1)
    part = exc.value.partial
    kept = sum(sizes[:2])
    assert sizes[2] >= 3 and kept > 1
    # the records before that batch, then the close at the end of the
    # step before it
    t_close = part.monitor.times[-1]
    assert part.monitor.times[:-1] == full.monitor.times[:kept]
    assert part.monitor.E[:-1] == full.monitor.E[:kept]
    assert full.monitor.times[kept - 1] < t_close < full.monitor.times[kept]
    assert list(part.times) == [t for t in full.times if t < t_close] + [t_close]
    for a, b in zip(part.snapshots[:-1], full.snapshots):
        assert np.array_equal(a.values, b.values)
    assert f"at t = {t_close:g}" in str(exc.value)


def test_failed_evolution_carries_partial_record():
    f = kdv.soliton(1.0, 40.0, 128)
    with pytest.raises(BlowUpError) as exc:
        kdv.evolve(f, "fring", 3.0, 1.0, 1e-3)
    part = exc.value.partial
    assert not part.completed
    assert part.times[-1] == exc.value.t_last
    assert part.monitor.times[-1] == exc.value.t_last
    assert len(part.snapshots) == len(part.times)
    # a cut crossing at the start leaves only the initial state
    g = kdv.KdVField.from_callable(lambda x: 1j * np.sin(x), 2 * np.pi, 64)
    with pytest.raises(BranchError) as exc:
        kdv.evolve(g, "bender", 0.5, 0.1, 1e-3)
    assert list(exc.value.partial.times) == [0.0]
    assert len(exc.value.partial.snapshots) == 1
    assert exc.value.partial.snapshots[0] is g


def offset_cosine_field(L=40.0, n=128):
    # nonzero mass, momentum and energy, so relative drift bounds bite
    return kdv.KdVField.from_callable(
        lambda x: 0.3 + 0.8 * np.cos(2 * np.pi * x / L)
        + 0.3 * np.sin(4 * np.pi * x / L), L, n)


def offset_pt_field(L=20.0, n=64):
    return kdv.KdVField.from_callable(
        lambda x: 0.5 + 0.1 * np.cos(2 * np.pi * x / L)
        + 0.05j * np.sin(4 * np.pi * x / L), L, n)


def soliton_field():
    # one sampled copy: u_x jumps by about 5e-8 across x = 0, which puts
    # content up to the top modes
    return kdv.soliton(1.0, 40.0, 256)


def periodic_soliton_field(L=40.0, n=256):
    # the same soliton summed over its images at |m| <= 2 (the next are
    # below 1e-40): smooth across the period, so it translates exactly
    return kdv.KdVField.from_callable(
        lambda x: sum(3.0 / np.cosh(0.5 * (x - L / 2 + m * L)) ** 2 for m in range(-2, 3)),
        L, n)


@pytest.mark.parametrize("make, flow, eps, t_final, dt, speed", [
    (soliton_field, "fring", 1.0, 0.2, 1e-3, None),
    (soliton_field, "bender", 1.0, 0.2, 1e-3, None),
    (offset_cosine_field, "fring", 3.0, 0.05, 1e-3, None),
    (offset_pt_field, "bender", 2.0, 0.05, 5e-4, None),
    (soliton_field, "fring", 1.0, -0.1, -1e-3, None),
    # one fractional power serves both fring terms
    (offset_cosine_field, "fring", 2.5, 0.02, 1e-4, None),
    (offset_cosine_field, "bender", 1.5, 0.02, 1e-4, None),
    (periodic_soliton_field, "fring", 1.0, 0.2, 1e-3, 1.0),
    (periodic_soliton_field, "fring", 1.0, -0.1, -1e-3, 1.0),
], ids=["fring1", "bender1", "fring3", "bender2", "fring1-backward", "fring2.5",
        "bender1.5", "fring1-periodic", "fring1-periodic-backward"])
def test_stepper_matches_reference(make, flow, eps, t_final, dt, speed):
    # RK4 at dt/4 is within 3e-14 of RK4 at dt/32 on every row; a power
    # of two keeps its record times bit-equal to multiples of dt
    f = make()
    ev = kdv.evolve(f, flow, eps, t_final, dt, n_snapshots=6, monitor_stride=5)
    ref = reference_kdv_evolve(f, flow, eps, t_final, dt / 4, n_snapshots=6,
                               monitor_stride=20)
    assert np.array_equal(ev.times, ref.times)
    assert ev.monitor.times == ref.monitor.times
    for a, b in zip(ev.snapshots, ref.snapshots, strict=True):
        assert np.abs(a.values - b.values).max() <= 1e-12
    drift, ref_drift = ev.monitor.drift(), ref.monitor.drift()
    for name in ("M", "P", "E"):
        charge = abs(getattr(ref.monitor, name)[0])
        assert charge > 0.1
        assert abs(drift[name] - ref_drift[name]) <= 1e-12 * charge
    if speed is not None:
        # the KdV soliton travels rigidly at its speed
        for t, snap in zip(ev.times, ev.snapshots):
            exact = np.fft.ifft(np.exp(-1j * f.k * speed * t) * np.fft.fft(f.values))
            assert np.abs(snap.values - exact).max() <= 1e-12


def test_evaluations_stay_bounded_at_large_n(monkeypatch):
    # the 2/3 rule keeps products from wrapping around the Nyquist mode;
    # without it n = 1024 took 145 781 evaluations to t = 0.5.  RK4 at the
    # record step dt made 4 per dt, 2000 in all.
    evals = count_evaluations(monkeypatch, "fring")
    counts = {}
    for n in (256, 1024):
        evals.clear()
        kdv.evolve(kdv.soliton(1.0, 40.0, n), "fring", 1.0, 0.5, 1e-3, n_snapshots=2)
        counts[n] = len(evals)
    assert counts[1024] <= min(1.5 * counts[256], 2000)


def count_evaluations(monkeypatch, flow):
    """Count calls of the flow's N, which `evolve` steps in either frame."""
    flow = kdv.Flow(flow)
    calls, formula = [], kdv._NONLINEAR[flow]

    def counted(*args):
        calls.append(1)
        return formula(*args)

    monkeypatch.setitem(kdv._NONLINEAR, flow, counted)
    return calls


@pytest.mark.parametrize("eps, phase", [(1.0, True), (3.0, False)],
                         ids=["integrating-factor", "plain"])
def test_transform_count_per_evaluation(monkeypatch, eps, phase):
    # every right-hand-side evaluation makes one batched inverse and one
    # forward transform; the start adds a forward transform, and each of
    # the two records (the start and the end) one inverse.  One transform
    # pair per derivative took 4-5 pairs an evaluation.  Beside the linear
    # dispersion the factor exp(i k^3 t) is taken as often as the inverse
    # transform; a flow without it has no phase and takes none.
    field = offset_cosine_field()
    calls = []

    def counting(transform):
        def wrapper(*args, **kwargs):
            calls.append(transform.__name__)
            return transform(*args, **kwargs)
        return wrapper

    for module, name in ((np.fft, "fft"), (np.fft, "ifft"), (np, "exp")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    evals = count_evaluations(monkeypatch, "fring")
    n_steps = 20
    kdv.evolve(field, "fring", eps, n_steps * 1e-3, 1e-3,
               n_snapshots=2, monitor_stride=10 * n_steps)
    assert len(evals) > 0
    assert calls.count("fft") == len(evals) + 1
    assert calls.count("ifft") == len(evals) + 2
    assert calls.count("exp") == phase * (len(evals) + 2)


@pytest.mark.parametrize("flow, eps, rows", [
    ("fring", 1.0, 2), ("bender", 1.0, 2), ("bender", 2.0, 2), ("fring", 3.0, 4),
], ids=["fring1", "bender1", "bender2", "fring3-plain"])
def test_integrating_factor_stage_rows(monkeypatch, flow, eps, rows):
    # the integrating factor carries -u_xxx, so its evaluations transform
    # only u and u_x; the plain frame needs u, u_x, u_xx and u_xxx
    shapes = []
    ifft = np.fft.ifft

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a)[:-1])
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", recording)
    evals = count_evaluations(monkeypatch, flow)
    kdv.evolve(offset_pt_field(), flow, eps, 5e-3, 5e-4, n_snapshots=2,
               monitor_stride=1)
    # one transform of `rows` rows per evaluation
    assert Counter(s for s in shapes if len(s) == 1) == Counter({(rows,): len(evals)})
    # and one (m, 2, n) transform of u and u_x per record batch, which the
    # monitor reuses; its 11 record times come in fewer batches
    batches = [s for s in shapes if len(s) == 2]
    assert all(w == 2 for _, w in batches)
    assert sum(m for m, _ in batches) == 11 > len(batches)


@pytest.mark.parametrize("n_snapshots, steps", [
    (2, [0, 10]), (3, [0, 5, 10]), (4, [0, 3, 6, 10]), (6, [0, 2, 4, 6, 8, 10]),
    (11, list(range(11)))])
def test_snapshot_j_at_step_j_n_steps_over_intervals(n_snapshots, steps):
    ev = kdv.evolve(cosine_field(), "bender", 1.0, 0.01, 1e-3, n_snapshots=n_snapshots)
    assert list(ev.times) == [k * 1e-3 for k in steps]


def test_snapshots_and_monitor_cadence():
    f = cosine_field()
    ev = kdv.evolve(f, "bender", 1.0, 0.1, 1e-3, n_snapshots=6)
    assert ev.completed
    assert len(ev.snapshots) == len(ev.times)
    assert ev.times[0] == 0.0
    assert ev.times[-1] == pytest.approx(0.1)
    assert ev.monitor.times[-1] == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

def test_pt_reflect_is_an_involution():
    rng = np.random.default_rng(0)
    f = kdv.KdVField(L=5.0, values=rng.normal(size=32) + 1j * rng.normal(size=32))
    twice = kdv.pt_reflect(kdv.pt_reflect(f))
    assert np.abs(twice.values - f.values).max() == 0.0


@pytest.mark.parametrize("flow", ["bender", "fring"])
def test_pt_covariance_of_deformed_flows(flow):
    f = pt_symmetric_field()
    defect = kdv.pt_covariance_defect(f, flow, 2.0, 0.05, 5e-4)
    assert defect < 1e-12


@pytest.mark.parametrize("defect", [
    lambda: kdv.traveling_wave_defect(kdv.traveling_wave(1, 1.0, n=128), dt=1e-2),
    lambda: kdv.pt_covariance_defect(pt_symmetric_field(), "bender", 2.0, 0.02, 5e-4),
    lambda: kdv.galilean_defect(cosine_field(amplitude=0.1, L=20.0), "fring", 2.0, 0.1,
                                0.05, 1e-3),
], ids=["travelling", "pt", "galilean"])
def test_defect_checks_match_the_fully_monitored_run(monkeypatch, defect):
    # they record only the end charges; records never move the steps
    got = defect()
    evolve = kdv.evolve
    monkeypatch.setattr(kdv, "evolve", lambda *args, monitor_stride, **kwargs:
                        evolve(*args, monitor_stride=1, **kwargs))
    assert got == defect()


def test_traveling_wave_defect_never_evaluates_the_dense_output(monkeypatch):
    stops = []
    integrate = _stepping.integrate
    monkeypatch.setattr(_stepping, "integrate",
                        lambda *args: stops.append(integrate(*args)) or stops[-1])
    kdv.traveling_wave_defect(kdv.traveling_wave(1, 1.0, n=128))
    (stop,) = stops
    # 2 evaluations choose the first step and each attempt makes 12
    assert stop.nfev == 2 + 12 * (stop.n_accepted + stop.n_rejected)


def test_galilean_dichotomy():
    f = cosine_field(amplitude=0.1, L=20.0)
    good = kdv.galilean_defect(f, "fring", 2.0, 0.1, 0.2, 1e-3)
    bad = kdv.galilean_defect(f, "bender", 2.0, 0.1, 0.2, 1e-3)
    assert good < 1e-10
    assert bad > 1e-4


def test_galilean_exact_for_classical_kdv():
    f = cosine_field(amplitude=0.3)
    assert kdv.galilean_defect(f, "bender", 1.0, 0.2, 0.2, 1e-3) < 1e-10


# ---------------------------------------------------------------------------
# traveling waves
# ---------------------------------------------------------------------------

def test_soliton_profile_and_speed_check():
    rep = kdv.traveling_wave(1, 1.0)
    assert rep.exists
    defect = kdv.traveling_wave_defect(rep, dt=1e-3)
    assert defect < 1e-6


def test_soliton_validation():
    with pytest.raises(ConfigurationError):
        kdv.soliton(-1.0, 40.0, 128)


def test_no_traveling_wave_for_eps_three():
    rep = kdv.traveling_wave(3, 1.0)
    assert not rep.exists
    assert "negative" in rep.reason
    with pytest.raises(ConfigurationError):
        kdv.traveling_wave_defect(rep)


@given(st.floats(0.2, 2.0), st.integers(5, 7))
@settings(max_examples=10, deadline=None)
def test_soliton_amplitude_property(c, p):
    f = kdv.soliton(c, 40.0, 2 ** p)
    assert np.abs(f.values).max() == pytest.approx(3.0 * c, rel=1e-6)
    assert np.abs(f.values.imag).max() == 0.0
