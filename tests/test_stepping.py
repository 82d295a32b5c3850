"""The stepping loop shared by the CMS and KdV engines."""

import numpy as np
import pytest

from ptlab import _stepping
from ptlab.errors import BlowUpError, BranchError

STOPS = [k * 0.1 for k in range(31)]


def rotation(t, y):
    """y' = i y, so y(t) = exp(i t) from y(0) = 1."""
    return 1j * y


def run(rhs, stops, check=None, max_step=np.inf):
    """(Stop, [(t, y)] records) of one run from y(0) = 1."""
    seen = []
    stop = _stepping.integrate(rhs, np.array([1.0 + 0j]), stops, 1e-12, 1e-12, max_step,
                               lambda t, y: seen.append((t, y.copy())), check)
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


def test_max_step_bounds_every_step():
    accepted = [0.0]
    stop, seen = run(rotation, STOPS, lambda t, y: accepted.append(t), max_step=0.05)
    assert stop.error is None and len(seen) == len(STOPS)
    # unbounded, the solver covers t = 3 in 17 steps
    assert len(accepted) - 1 >= 60
    assert max(np.diff(accepted)) <= 0.05 * (1 + 1e-12)
