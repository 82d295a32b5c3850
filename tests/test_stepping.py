"""The stepping loop shared by the CMS and KdV engines."""

import numpy as np
import pytest

from oracles import reference_dop853_integrate
from ptlab import _stepping, cms, kdv
from ptlab.errors import BlowUpError, BranchError, SingularConfigError
from test_cms import cli_state
from test_kdv import offset_cosine_field

STOPS = [k * 0.1 for k in range(31)]


def rotation(t, y):
    """y' = i y, so y(t) = exp(i t) from y(0) = 1."""
    return 1j * y


def unpacked(log):
    """A record(ts, ys) that appends the batch's (t, y) rows to log."""
    return lambda ts, ys: log.extend(zip(ts.tolist(), ys.copy()))


def run(rhs, stops, check=None, max_step=np.inf):
    """(Stop, [(t, y)] records) of one run from y(0) = 1."""
    seen = []
    stop = _stepping.integrate(rhs, np.array([1.0 + 0j]), stops, 1e-12, 1e-12, max_step,
                               unpacked(seen), check)
    return stop, seen


@pytest.mark.parametrize("dt", [0.1, -0.1], ids=["forward", "backward"])
def test_records_fall_on_multiples_of_dt(dt):
    stops = [k * dt for k in range(0, 31, 3)]
    stop, seen = run(rotation, stops)
    assert stop.error is None and stop.t == stops[-1]
    assert [t for t, _ in seen] == stops
    for t, y in seen:
        assert abs(y[0] - np.exp(1j * t)) < 1e-10


def test_engine_error_keeps_the_records_before_the_stop():
    def failing(t, y):
        if t > 1.05:
            raise BranchError("refused by the test")
        return rotation(t, y)

    full = run(rotation, STOPS)[1]
    stop, seen = run(failing, STOPS)
    assert isinstance(stop.error, BranchError)
    # every stage of an accepted step lies at or before its end
    assert 0.0 < stop.t <= 1.05
    n = sum(t <= stop.t for t in STOPS)
    assert 0 < n == len(seen) < len(full)
    # the run is the uninterrupted one up to its stop
    for (t, y), (t_full, y_full) in zip(seen, full):
        assert t == t_full and np.array_equal(y, y_full)
    assert abs(stop.y[0] - np.exp(1j * stop.t)) < 1e-10


def test_check_ends_the_run_before_the_steps_records():
    accepted = []

    def check(t, y):
        accepted.append(t)
        if len(accepted) == 3:
            raise BlowUpError("refused by the test")

    stop, seen = run(rotation, STOPS, check)
    assert isinstance(stop.error, BlowUpError)
    assert stop.t == accepted[1]
    assert [t for t, _ in seen] == [t for t in STOPS if t <= accepted[1]]


def test_step_size_collapse_ends_the_run():
    def turns_nan(t, y):
        return rotation(t, y) * (np.nan if t > 1.05 else 1.0)

    with np.errstate(invalid="ignore"):
        stop, seen = run(turns_nan, STOPS)
    assert isinstance(stop.error, str) and "step size" in stop.error
    assert 0.0 < stop.t <= 1.05
    assert [t for t, _ in seen] == [t for t in STOPS if t <= stop.t]


def test_stop_counts_evaluations_and_steps():
    calls, accepted = [], []

    def counted(t, y):
        calls.append(t)
        return rotation(t, y) * (np.nan if t > 1.05 else 1.0)

    with np.errstate(invalid="ignore"):
        stop, _ = run(counted, STOPS, lambda t, y: accepted.append(t))
    assert stop.nfev == len(calls)
    assert stop.n_accepted == len(accepted) > 0 and stop.n_rejected > 0
    # 2 evaluations choose the first step, each attempt makes 12 and each
    # dense output 3 more
    dense = stop.nfev - 2 - 12 * (stop.n_accepted + stop.n_rejected)
    assert dense >= 0 and dense % 3 == 0


def test_nan_from_the_start_collapses_the_step_size():
    # the first step size comes out NaN; it must end the run, not loop
    with np.errstate(invalid="ignore"):
        stop, seen = run(lambda t, y: rotation(t, y) * np.nan, STOPS)
    assert stop.error == _stepping.TOO_SMALL_STEP
    assert stop.t == 0.0 and [t for t, _ in seen] == [0.0]


def test_max_step_bounds_every_step():
    accepted = [0.0]
    stop, seen = run(rotation, STOPS, lambda t, y: accepted.append(t), max_step=0.05)
    assert stop.error is None and len(seen) == len(STOPS)
    # unbounded, the solver covers t = 3 in 17 steps
    assert len(accepted) - 1 >= 60
    assert max(np.diff(accepted)) <= 0.05 * (1 + 1e-12)


def test_single_stop_records_the_start_and_never_evaluates():
    calls = []

    def counted(t, y):
        calls.append(t)
        return rotation(t, y)

    stop, seen = run(counted, [0.0])
    assert calls == []
    assert stop.t == 0.0 and stop.y[0] == 1.0 and stop.error is None
    assert [t for t, _ in seen] == [0.0]


def test_cms_record_batch_with_a_singular_row_keeps_none_of_it(monkeypatch):
    s = cli_state("A", 3, "trigonometric")
    log = {"evaluations": 0, "steps": [], "records": [], "batches": []}
    integrate = _stepping.integrate

    def batched(rhs, y0, stops, rtol, atol, max_step, record, check):
        def logged(ts, ys):
            log["batches"].append((ts.size, len(log["steps"])))
            record(ts, ys)
        return integrate(rhs, y0, stops, rtol, atol, max_step, logged, check)

    monkeypatch.setattr(_stepping, "integrate", traced(batched, log))
    full = cms.integrate_trajectory(s, 1e-3, 300)
    # the first batch of 3 or more rows after the first step's, so that
    # some step comes before it
    b = next(i for i, (size, _) in enumerate(log["batches"]) if i > 1 and size >= 3)
    before = sum(size for size, _ in log["batches"][:b])
    t_before = log["steps"][log["batches"][b][1] - 2]

    rows = []
    hamiltonian = cms._hamiltonian

    def singular_second_row(*args):
        rows.append(1)
        if len(rows) == before + 2:
            raise SingularConfigError("refused by the test")
        return hamiltonian(*args)

    monkeypatch.setattr(cms, "_hamiltonian", singular_second_row)
    traj = cms.integrate_trajectory(s, 1e-3, 300)
    assert not traj.completed and f"stopped at t = {t_before}:" in traj.error
    assert list(traj.times) == list(full.times[:before])
    assert np.array_equal(traj.q, full.q[:before])
    # the run ends with the step whose batch failed
    assert traj.n_accepted == log["batches"][b][1]


def test_cms_trajectory_without_steps_keeps_the_start():
    s = cli_state("A", 2, "rational")
    traj = cms.integrate_trajectory(s, 1e-3, 0)
    assert traj.completed and list(traj.times) == [0.0]
    assert np.array_equal(traj.q[0], s.q)


def test_tableau_is_scipys():
    from scipy.integrate._ivp import dop853_coefficients as ref

    for name in ("C", "A", "B", "E3", "E5", "D"):
        assert np.array_equal(getattr(_stepping, name), getattr(ref, name)), name


# ---------------------------------------------------------------------------
# the loop against the original one over scipy's DOP853 solver (oracles.py)
# ---------------------------------------------------------------------------

def traced(integrate, log):
    """`integrate` counting evaluations and accepted steps into log and
    keeping copies of its records."""
    def wrapper(rhs, y0, stops, rtol, atol, max_step, record, check):
        def counted(t, y):
            log["evaluations"] += 1
            return rhs(t, y)

        def checked(t, y):
            log["steps"].append(t)
            if check is not None:
                check(t, y)

        def recorded(ts, ys):
            unpacked(log["records"])(ts, ys)
            record(ts, ys)

        log["max_step"] = max_step
        return integrate(counted, y0, stops, rtol, atol, max_step, recorded, checked)
    return wrapper


def assert_same_run(monkeypatch, go):
    """Run go() through `_stepping.integrate` and through the reference loop:
    the two make as many evaluations and accepted steps, and records within
    1e-13 max |y|.  The step times agree only roughly, since rounding in
    the stage sums moves the error estimate near the tolerance."""
    logs = []
    for integrate in (_stepping.integrate, reference_dop853_integrate):
        log = {"evaluations": 0, "steps": [], "records": []}
        with monkeypatch.context() as m:
            m.setattr(_stepping, "integrate", traced(integrate, log))
            go()
        logs.append(log)
    got, ref = logs
    assert got["evaluations"] == ref["evaluations"]
    assert len(got["steps"]) == len(ref["steps"])
    assert [t for t, _ in got["records"]] == [t for t, _ in ref["records"]]
    y_got = np.array([y for _, y in got["records"]])
    y_ref = np.array([y for _, y in ref["records"]])
    assert np.abs(y_got - y_ref).max() <= 1e-13 * np.abs(y_ref).max()
    return got


@pytest.mark.parametrize("dt, max_step", [(0.1, np.inf), (-0.1, np.inf), (0.1, 0.05)],
                         ids=["forward", "backward", "max_step"])
def test_rotation_matches_reference(monkeypatch, dt, max_step):
    stops = [k * dt for k in range(0, 31, 3)]
    assert_same_run(monkeypatch, lambda: _stepping.integrate(
        rotation, np.array([1.0 + 0j]), stops, 1e-12, 1e-12, max_step,
        lambda ts, ys: None, None))


@pytest.mark.parametrize("family, rank, potential, n_steps", [
    # a longer A3 run parts from itself at 1e-13 under rounding alone: a
    # 1-ulp change of q(0) moves p(1) by 3e-12
    ("A", 3, "trigonometric", 300), ("B", 3, "rational", 1000)])
def test_cms_trajectory_matches_reference(monkeypatch, family, rank, potential, n_steps):
    s = cli_state(family, rank, potential)
    assert_same_run(monkeypatch, lambda: cms.integrate_trajectory(s, 1e-3, n_steps, 10))


def test_kdv_integrating_factor_frame_matches_reference(monkeypatch):
    assert_same_run(monkeypatch, lambda: kdv.evolve(
        kdv.soliton(1.0, 40.0, 256), "fring", 1.0, 0.2, 1e-3, n_snapshots=6))


def test_kdv_step_bound_matches_reference(monkeypatch):
    run = assert_same_run(monkeypatch, lambda: kdv.evolve(
        offset_cosine_field(10.0, 128), "fring", 1.0, 0.1, 1e-2, n_snapshots=6))
    # the bound, not the error, sets the steps of this run
    assert max(np.abs(np.diff([0.0] + run["steps"]))) == pytest.approx(run["max_step"])


def test_kdv_plain_frame_matches_reference(monkeypatch):
    assert_same_run(monkeypatch, lambda: kdv.evolve(
        offset_cosine_field(40.0, 128), "fring", 3.0, 0.05, 1e-3, n_snapshots=6))
