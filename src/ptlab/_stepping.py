"""The one adaptive time-stepping loop of ptlab.

`cms.integrate_trajectory` and `kdv.evolve` both step through
`integrate`: scipy's explicit Runge-Kutta pair DOP853, of order 8 with
error estimators of orders 5 and 3 (Hairer, Norsett & Wanner, *Solving
ODEs I*, II.4-II.5), taken one accepted step at a time, with the state
at fixed stop times read from each step's dense output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PTLabError


@dataclass(frozen=True)
class Stop:
    """How far a run's records reach, and why the run ended there.

    The records are complete up to time `t`, where the state was `y`.
    `error` is None when every stop time was recorded; otherwise it is
    the engine error, or the solver's message for a failed step or a
    step size that collapsed.
    """

    t: float
    y: np.ndarray | None
    error: PTLabError | str | None


def integrate(rhs, y0, stops, rtol, atol, max_step, record, check):
    """Step y' = rhs(t, y) from y(stops[0]) = y0 through the times `stops`.

    `stops` run monotonically, forward or backward, from the start time;
    record(t, y) is called at each in order, with y from the dense
    output of the accepted step that covers t, or that step's own end
    state when it lands on t.  check(t, y), when not None, sees the state
    after each accepted step before any of that step's records.  Each
    step keeps its local error within rtol |y| + atol, componentwise, and
    spans at most max_step (np.inf for no bound).

    An engine error (PTLabError) raised by rhs, record or check, a failed
    step, or a step size that collapses ends the run; none of them is
    raised from here.  The returned Stop says how far the records reach:
    to the last accepted step, or to the last record made after it.
    """
    from scipy.integrate import DOP853     # imported only where a run steps

    t_done, y_done = stops[0], y0
    try:
        record(stops[0], y0)
        solver = DOP853(rhs, stops[0], y0, stops[-1], rtol=rtol, atol=atol,
                        max_step=max_step)
        j = 1
        while j < len(stops):
            message = solver.step()
            if solver.status == "failed":
                return Stop(t_done, y_done, message)
            t, y = solver.t, solver.y
            if check is not None:
                check(t, y)
            # a stop strictly inside the step needs the interpolant
            dense = solver.dense_output() if solver.direction * (t - stops[j]) > 0 else None
            while j < len(stops) and solver.direction * (t - stops[j]) >= 0:
                y_j = y if stops[j] == t else dense(stops[j])
                record(stops[j], y_j)
                t_done, y_done = stops[j], y_j
                j += 1
            t_done, y_done = t, y
    except PTLabError as exc:
        return Stop(t_done, y_done, exc)
    return Stop(t_done, y_done, None)
