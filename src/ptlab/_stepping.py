"""The one adaptive time-stepping loop of ptlab.

`cms.integrate_trajectory` and `kdv.evolve` both step through
`integrate`: the explicit Runge-Kutta pair DOP853, of order 8 with
error estimators of orders 5 and 3 (Hairer, Norsett & Wanner, *Solving
ODEs I*, II.4-II.5), taken one accepted step at a time, with the state
at fixed stop times read from each step's 7th-order dense output.

The tableau below is that of Hairer's Fortran code dop853.f, to the
digits scipy ships in `scipy.integrate._ivp.dop853_coefficients`, and
the step-size controller is scipy's, so the steps are the ones
`scipy.integrate.DOP853` takes.  Both are kept here rather than
imported because importing `scipy.integrate` (with `scipy.optimize` and
`scipy.special` behind it) took about as long as a short evolution;
and the stage sums run as real products on the float64 view of the
complex stages, which numpy's complex-by-real product does several
times slower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PTLabError


def _rows(n_cols, rows):
    """An array whose i-th row has the entries {column: value} of rows[i]."""
    out = np.zeros((len(rows), n_cols))
    for i, row in enumerate(rows):
        for j, value in row.items():
            out[i, j] = value
    return out


N_STAGES = 12            # the stages of a step; row 12 of A gives its result B
N_STAGES_EXTENDED = 16   # with the end-point derivative and 3 dense-output stages

C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778])

A = _rows(N_STAGES_EXTENDED, [
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
])

B = A[N_STAGES, :N_STAGES]

# error estimators of orders 3 and 5, weights on the 12 stages and f(t + h)
E3 = np.append(B, 0.0)
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1, 0.0])

# the dense output's last 4 coefficients, on all 16 stages
D = _rows(N_STAGES_EXTENDED, [
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
])

# scipy's step-size controller for its Runge-Kutta solvers
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 8          # the error estimate is of order 7
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

_E53 = np.stack([E5, E3])


@dataclass(frozen=True)
class Stop:
    """How far a run's records reach, and why the run ended there.

    The records are complete up to time `t`, where the state was `y`.
    `error` is None when every stop time was recorded; otherwise it is
    the engine error, or TOO_SMALL_STEP when the step size collapsed.
    The counts cover the whole run: right-hand-side evaluations (one
    that raised included), accepted steps and rejected step attempts.
    """

    t: float
    y: np.ndarray | None
    error: PTLabError | str | None
    nfev: int = 0
    n_accepted: int = 0
    n_rejected: int = 0


def integrate(rhs, y0, stops, rtol, atol, max_step, record, check):
    """Step y' = rhs(t, y) from y(stops[0]) = y0 through the times `stops`.

    `stops` run strictly monotonically, forward or backward, from the
    start time.  record(ts, ys) takes them in order, in batches: first
    the start alone (ts = stops[:1], ys = y0[None]), then, for each
    accepted step that covers stop times, all of them at once.  Row i of
    ys is the state at ts[i], from one vectorised evaluation of that
    step's dense output, or the step's own end state where ts[i] lands on
    its end.  check(t, y), when not None, sees the state after each
    accepted step before that step's batch.  Each step keeps its local
    error within rtol |y| + atol, componentwise (the norm is the RMS over
    the components of y, complex or real), and spans at most max_step
    (np.inf for no bound).  With one stop nothing is stepped and rhs is
    never called.

    An engine error (PTLabError) raised by rhs, record or check, or a
    step size that collapses ends the run; neither is raised from here.
    A record that raises must keep none of its batch.  The returned Stop
    says how far the records reach: to the last accepted step whose
    batch was recorded.
    """
    stops = np.asarray(stops, dtype=float)
    direction = 1.0 if stops[-1] >= stops[0] else -1.0
    t_done, y_done = stops[0], y0
    j = 1
    counts = [0, 0, 0]          # evaluations, accepted and rejected steps

    def counted(t, y):
        counts[0] += 1
        return rhs(t, y)

    try:
        record(stops[:1], y0[None])
        for t, y, interpolant in _dop853(counted, stops[0], y0, stops[-1], rtol, atol,
                                         max_step, counts):
            counts[1] += 1
            if check is not None:
                check(t, y)
            k = j
            while k < len(stops) and direction * (t - stops[k]) >= 0:
                k += 1
            if k > j:
                ts = stops[j:k]
                if direction * (t - ts[0]) > 0:
                    # stops strictly inside the step need the interpolant;
                    # only the last can land on t
                    ys = interpolant()(ts)
                    if ts[-1] == t:
                        ys[-1] = y
                else:
                    ys = y[None]        # the one stop lands on t
                record(ts, ys)
                j = k
            t_done, y_done = t, y
    except PTLabError as exc:
        return Stop(t_done, y_done, exc, *counts)
    return Stop(t_done, y_done, None if j == len(stops) else TOO_SMALL_STEP, *counts)


def _dop853(rhs, t, y, t_end, rtol, atol, max_step, counts):
    """The accepted DOP853 steps (t, y, interpolant) from y(t) to t_end.

    Ends at t_end, or early when the step size falls below 10 ulp(t).
    interpolant() evaluates the 3 extra stages of the step just yielded
    and returns its dense output, whose rows y(s) are the states at the
    times s; call it before the next step.
    Each rejected step attempt adds 1 to counts[2].
    """
    if t == t_end:         # one stop: the first-step rule would divide by a zero span
        return
    direction = 1.0 if t_end > t else -1.0
    # stages in rows: 0-11 the step's, 12 f at its end, 13-15 the dense output's
    K = np.empty((N_STAGES_EXTENDED, y.size), dtype=np.result_type(y, float))
    Kr = K.view(np.float64)
    K[0] = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, K[0], t_end, direction, rtol, atol, max_step)
    while direction * (t - t_end) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if not h_abs >= min_step:        # a NaN step size collapses too
                return
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = np.abs(h)
            hA = h * A
            for s in range(1, N_STAGES):
                K[s] = rhs(t + C[s] * h, y + _combine(hA[s, :s], Kr, K.dtype))
            y_new = y + _combine(hA[N_STAGES, :N_STAGES], Kr, K.dtype)
            K[N_STAGES] = rhs(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(Kr, h, scale)
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
            counts[2] += 1
        t_old, y_old, t, y = t, y, t_new, y_new
        yield t, y, lambda: _interpolant(rhs, t_old, y_old, h, hA, y, K, Kr)
        K[0] = K[N_STAGES]


def _combine(weights, Kr, dtype):
    """sum_s weights[s] K[s], as one real product on the float64 view Kr of K."""
    return (weights @ Kr[:weights.shape[-1]]).view(dtype)


def _error_norm(Kr, h, scale):
    """DOP853's error norm of the step h whose stages are Kr, scaled by `scale`.

    The 5th-order estimate, damped where the 3rd-order one is larger;
    its RMS runs over the len(scale) components of y, complex or real.
    """
    n = scale.size
    err = (_E53 @ Kr[:N_STAGES + 1]).reshape(2, n, -1) / scale[:, None]
    err5, err3 = np.vdot(err[0], err[0]), np.vdot(err[1], err[1])
    if err5 == 0 and err3 == 0:
        return 0.0
    return np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * n)


def _rms(x):
    """Root mean square of |x_i|."""
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(rhs, t0, y0, f0, t_end, direction, rtol, atol, max_step):
    """The first step size, by Hairer, Norsett & Wanner's rule (II.4).

    One trial evaluation at t0 + h0, where h0 = 0.01 |y0| / |f0| in the
    scaled RMS norm, at most the span |t_end - t0| > 0.
    """
    span = abs(t_end - t0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = rhs(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-ERROR_EXPONENT)
    return min(100 * h0, h1, span, max_step)


def _interpolant(rhs, t_old, y_old, h, hA, y, K, Kr):
    """DOP853's 7th-order dense output over the step h from y(t_old) to y.

    Evaluates the 3 extra stages (rows 13-15 of K, with hA = h * A); rows
    0 and 12 hold f at the two ends of the step.  The returned at(s) maps
    an array of times s to the states y(s), one row each.
    """
    for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
        K[s] = rhs(t_old + C[s] * h, y_old + _combine(hA[s, :s], Kr, K.dtype))
    dy = y - y_old
    F = np.empty((7, y.size), dtype=K.dtype)
    F[0] = dy
    F[1] = h * K[0] - dy
    F[2] = 2 * dy - h * (K[N_STAGES] + K[0])
    F[3:] = _combine(h * D, Kr, K.dtype)

    def at(s):
        x = ((s - t_old) / h)[:, None]
        # y_old + x (F0 + (1 - x) (F1 + x (F2 + ... (F5 + x F6)))), in
        # place, since a batch of times can be large
        out = np.zeros((x.size, y.size), dtype=K.dtype)
        for i, f in enumerate(F[::-1]):
            out += f
            out *= x if i % 2 == 0 else 1 - x
        out += y_old
        return out

    return at
