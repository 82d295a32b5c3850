"""Non-Hermitian spectral engine.

Grid spectra of the monomial family p^2 - g(iz)^N, truncated Fock-space
matrices of the single-site reggeon cubic model and the bilinear
(Swanson-type) model, the real-or-conjugate-pair classification that an
unbroken antilinear symmetry enforces, and a numerical search for a
Hermitizing similarity transform (metric).  Grid and Fock operators
share the full bands of `gridops` and its solver, and both are solved in
a real form when P H* P = H: the fold `gridops.pt_fold` of a grid
operator and the gauge rotation `_gauge_rotated` of a Fock operator are
then real, so levels come out exactly real or as exact conjugate pairs.
A dense Fock matrix is built only for the metric search.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import ConfigurationError, require_finite
from .gridops import (band_dense, eigenpairs_near, pt_fold, real_if_exact,
                      schrodinger_bands)


# ---------------------------------------------------------------------------
# spectrum reports and PT classification
# ---------------------------------------------------------------------------

class Classification(enum.Enum):
    ALL_REAL = "AllReal"
    CONJUGATE_PAIRS = "ConjugatePairs"
    MIXED = "Mixed"


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    classification: Classification
    pairing: dict                      # index -> conjugate partner index
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "eigenvalues": [{"re": float(e.real), "im": float(e.imag)}
                            for e in self.eigenvalues],
            "classification": self.classification.value,
            "pairing": {str(k): v for k, v in self.pairing.items()},
            "diagnostics": self.diagnostics,
        }


# |Im E| at which `classify_spectrum` calls a level complex
CLASSIFY_TOL = 1e-6


def classify_spectrum(eigs):
    """Real-or-conjugate-pair classification at tolerance CLASSIFY_TOL.

    Returns (classification, pairing).  Complex eigenvalues are paired
    greedily with their nearest conjugate partner; leftovers mean Mixed.
    """
    eigs = np.asarray(eigs, dtype=complex)
    complex_idx = [i for i, e in enumerate(eigs) if abs(e.imag) >= CLASSIFY_TOL]
    pairing = {}
    if not complex_idx:
        return Classification.ALL_REAL, pairing
    unmatched = set(complex_idx)
    for i in sorted(unmatched, key=lambda k: (eigs[k].real, eigs[k].imag)):
        others = [j for j in unmatched if j != i]
        if i not in unmatched or not others:
            continue
        best = min(others, key=lambda j: abs(eigs[j] - np.conj(eigs[i])))
        if abs(eigs[best] - np.conj(eigs[i])) < 2 * CLASSIFY_TOL * (1.0 + abs(eigs[i])):
            pairing[i], pairing[best] = best, i
            unmatched -= {i, best}
    if unmatched:
        return Classification.MIXED, pairing
    return Classification.CONJUGATE_PAIRS, pairing


def make_report(eigs, diagnostics=None):
    cls, pairing = classify_spectrum(eigs)
    return SpectrumReport(eigenvalues=np.asarray(eigs, dtype=complex),
                          classification=cls, pairing=pairing,
                          diagnostics=diagnostics or {})


def _two_resolution_report(solve, resolutions, threshold, combine):
    """Report of the levels of `solve` at the coarse of `resolutions`, with
    `combine(coarse, fine)` in place of those the fine solve also gives.

    A level is flagged when its `change` |fine - coarse| exceeds
    `threshold`, or when only the coarse solve gives it.
    """
    coarse, fine = (solve(r) for r in resolutions)
    j = min(coarse.size, fine.size)
    change = np.abs(fine[:j] - coarse[:j])
    levels = np.concatenate([combine(coarse[:j], fine[:j]), coarse[j:]])
    flagged = [*np.nonzero(change > threshold)[0], *range(j, coarse.size)]
    return make_report(levels, diagnostics={
        "change": change.tolist(),
        "flagged": [int(i) for i in flagged],
        "resolutions": list(resolutions)})


# ---------------------------------------------------------------------------
# monomial family on the grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialModel:
    N: int
    g: float = 1.0
    half_width: float = 8.0
    n_grid: int = 1200

    def __post_init__(self):
        if self.N not in (2, 3, 4):
            raise ConfigurationError("monomial exponent must be one of {2, 3, 4} "
                                     "(larger exponents need complex contours)")
        require_finite(g=self.g, half_width=self.half_width)
        if not self.g > 0:
            raise ConfigurationError("coupling g must be positive")
        if not self.half_width > 0:
            raise ConfigurationError("half_width must be positive")
        if self.n_grid < 3:
            # ARPACK needs k < n_grid - 1 for the k >= 1 levels it finds
            raise ConfigurationError(f"n_grid must be at least 3, got {self.n_grid}")

    def potential(self, z):
        return -self.g * (1j * z) ** self.N


def _grid_bands(potential, half_width, n):
    """Full bands of -d^2/dz^2 + potential(z) on n interior points of the
    box |z| < half_width, at 4th order."""
    # walls sit exactly at +-half_width.  z_j = (2j - n - 1) h / (n + 1),
    # j = 1..n, is exactly antisymmetric (np.linspace misses by up to a
    # few ulp), so V(-z) = V(z)* gives an exactly PT-symmetric operator.
    # The second ghost ring of the 5-point stencil is closed by odd
    # reflection about the wall (exact there since psi'' = (V-E) psi = 0),
    # which keeps full 4th-order accuracy for states that reach the wall.
    z = np.arange(1 - n, n, 2) * (half_width / (n + 1))
    dz = 2.0 * half_width / (n + 1)
    bands = schrodinger_bands(potential(z), dz)
    bands[2, [0, -1]] -= (1 / 12) / dz**2     # row 2: the diagonal
    return bands


def _grid_eigs(potential, half_width, n, k):
    """The levels `_smallest_levels` gives for the operator of
    `_grid_bands`, solved in its real form when P H* P = H."""
    bands = _grid_bands(potential, half_width, n)
    if np.iscomplexobj(bands):
        folded = real_if_exact(pt_fold(bands))
        if np.isrealobj(folded):
            bands = folded
    return _smallest_levels(bands, k, 0.0)


def monomial_spectrum(model: MonomialModel, k=10):
    """Lowest-k eigenvalues (by modulus) with Richardson extrapolation.

    The model grid and one of half its spacing (`_two_resolution_report`)
    each give k levels, or k + 1 when the k-th opens a conjugate pair
    (`_smallest_levels`); the 5-point stencil's h^4 error is extrapolated
    away, and a level changing by more than 1e-4 is flagged.  Needs
    1 <= k <= 20 and k < n_grid - 1; other k raise ConfigurationError.
    """
    if k > 20:
        raise ConfigurationError("at most 20 eigenvalues are reported")
    if not 1 <= k < model.n_grid - 1:
        raise ConfigurationError(f"k must satisfy 1 <= k < n_grid - 1 = "
                                 f"{model.n_grid - 1}, got {k}")
    return _two_resolution_report(
        lambda n: _grid_eigs(model.potential, model.half_width, n, k),
        (model.n_grid, 2 * model.n_grid - 1), 1e-4,
        lambda coarse, fine: (16.0 * fine - coarse) / 15.0)


# ---------------------------------------------------------------------------
# truncated Fock-space models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedFockOperator:
    """A number-basis matrix held as its full bands (see `gridops`)."""
    bands: np.ndarray

    @property
    def matrix(self):
        """The dense matrix, for the metric search and its checks."""
        return band_dense(self.bands)

    def eigenvalues(self, k):
        """The levels `_smallest_levels` gives for 1 <= k <= dim.

        The shift -1/2 sits just left of the reggeon vacuum E = 0, where
        H - sigma is singular.  When P H* P = H the gauge-rotated bands
        (`_gauge_rotated`) are real, and the levels come out exactly real
        or as exact conjugate pairs.
        """
        n = self.bands.shape[1]
        if not 1 <= k <= n:
            raise ConfigurationError(f"k must satisfy 1 <= k <= dim = {n}, got {k}")
        return _smallest_levels(real_if_exact(_gauge_rotated(self.bands)), k, -0.5)


def _by_modulus(ev):
    """Levels ordered by (|E|, Im E)."""
    return ev[np.lexsort((ev.imag, np.abs(ev)))]


def _smallest_levels(bands, k, sigma):
    """The k levels of smallest modulus of the matrix with full bands
    `bands`, 1 <= k <= n, ordered by (|E|, Im E), so that a conjugate
    pair lists its negative imaginary part first; and, for real bands,
    the partner of the k-th level when that one opens a pair.

    Shift-invert around the real `sigma` gives the m >= k levels nearest
    sigma, all within a radius R of it.  Every other level has
    |E| >= R - |sigma|, so the k of smallest modulus among the m are those
    of the whole spectrum once the k-th of them has |E| + |sigma| <= R;
    otherwise m doubles.  Real bands give exactly real levels and exact
    conjugate pairs, whose two members lie equally far from sigma, so
    when the levels taken are not closed under conjugation the solve is
    repeated for one more level.  ARPACK needs m < n - 1; beyond that one
    dense solve.
    """
    n = bands.shape[1]
    real = np.isrealobj(bands)
    m = k
    while m < n - 1:
        ev = _by_modulus(eigenpairs_near(bands, m, sigma))
        if abs(ev[k - 1]) + abs(sigma) > np.abs(ev - sigma).max():
            m *= 2
            continue
        if not real:
            return ev[:k]
        top = ev[:k + (ev[k - 1].imag < 0)]
        if np.array_equal(np.sort_complex(top), np.sort_complex(top.conj())):
            return top
        m += 1
    ev = _by_modulus(sla.eigvals(band_dense(bands)))
    return ev[:k + (real and ev[k - 1].imag < 0)]


def _gauge_rotated(bands):
    """Full bands of diag(i^n) H diag(i^n)^-1: band d times the exact i^-d.

    On band d, P H* P - H (P = diag((-1)^n)) is (-1)^d H* - H, exactly
    twice |Im| of the rotated band in modulus.
    """
    w = bands.shape[0] // 2
    return bands * np.array([1, -1j, -1, 1j])[np.arange(-w, w + 1) % 4, None]


def fock_bands(dim, *terms):
    """Full bands (see `gridops`) of the sum of c a+^p a^q over the terms
    (c, p, q), refused unless `dim` is an integer of at least 4.

    a+^p a^q |j+q> = (j+1)..(j+lo) sqrt((j+lo+1)..(j+hi)) |j+p>, lo and hi
    the smaller and larger of p and q, gives each entry of band q - p as
    (c x the integer part) x the root, over j = -lo..dim-1-hi, so the
    entries the operator annihilates read c 0.
    """
    if not isinstance(dim, numbers.Integral) or dim < 4:
        raise ConfigurationError(f"dim must be an integer of at least 4, got {dim!r}")
    w = max(abs(q - p) for _, p, q in terms)
    bands = np.zeros((2 * w + 1, dim), np.result_type(float, *(c for c, _, _ in terms)))
    summed = {}
    for c, p, q in terms:
        lo, hi = sorted((p, q))
        f = np.arange(-lo, dim - hi, dtype=float)[:, None] + np.arange(1, hi + 1)
        entries = c * f[:, :lo].prod(1) * np.sqrt(f[:, lo:].prod(1))
        # written, not added to the zeros of `bands`, so that -0.0 stays -0.0
        summed[q - p] = summed[q - p] + entries if q - p in summed else entries
    for d, entries in summed.items():
        bands[w + d, :dim - abs(d)] = entries
    return bands


def reggeon_single_site(delta, g, dim):
    """Cubic model Delta a+a + i g (a+ a a + a+ a+ a) in the number basis:
    a complex-symmetric tridiagonal matrix."""
    require_finite(delta=delta, g=g)
    return TruncatedFockOperator(fock_bands(
        dim, (delta, 1, 1), (1j * g, 1, 2), (1j * g, 2, 1)))


def swanson_model(delta, g, gtilde, dim):
    """Bilinear model Delta a+a + g a+a+ + gtilde a a (pentadiagonal)."""
    require_finite(delta=delta, g=g, gtilde=gtilde)
    return TruncatedFockOperator(fock_bands(
        dim, (delta, 1, 1), (g, 2, 0), (gtilde, 0, 2)))


def fock_report(build, dim, k=10):
    """Lowest-k levels of build(dim), 1 <= k <= dim, flagged where they
    change by more than 1e-8 when the truncation grows from dim to
    dim + 20 (`_two_resolution_report`)."""
    return _two_resolution_report(lambda d: build(d).eigenvalues(k),
                                  (dim, dim + 20), 1e-8,
                                  lambda coarse, fine: coarse)


def is_pt_symmetric_fock(op: TruncatedFockOperator):
    """Check P H* P = H with P = diag((-1)^n), to 1e-12, on the bands:
    |P H* P - H| is twice |Im| of the gauge-rotated bands."""
    return bool(2.0 * np.abs(_gauge_rotated(op.bands).imag).max() < 1e-12)


# ---------------------------------------------------------------------------
# metric search
# ---------------------------------------------------------------------------

def metric_ansatz_basis(dim):
    """The Hermitian generators N, a^2 + a+^2 and i(a^2 - a+^2)."""
    return [TruncatedFockOperator(fock_bands(dim, *terms)).matrix for terms in
            [[(1, 1, 1)], [(1, 0, 2), (1, 2, 0)], [(1j, 0, 2), (-1j, 2, 0)]]]


@dataclass
class MetricResult:
    eta: np.ndarray
    coefficients: np.ndarray
    residual: float
    converged: bool
    positive: bool
    condition: float         # eta's condition number e^(max L - min L)
    nfev: int                # objective evaluations
    stop: str                # how the search ended: "floor", "stall" or "cap"


# Levenberg-Marquardt evaluations allowed
METRIC_MAX_NFEV = 100


def _metric_normal_equations(coeffs, H, basis):
    """r^2 = |R|_F^2 for R = G - G^+, G = e^A H e^-A, with J^T J and J^T r.

    J is the Jacobian of vec(R) in the coefficients of A = sum c_k B_k.
    A is Hermitian, so one eigendecomposition A = V L V^+ serves all
    three: in the eigenbasis G' = V^+ G V has entries e^(l_i - l_j) H'_ij,
    and the derivative along B_k is dG'_k = [Psi o B'_k, G'] with the
    Daleckii-Krein divided differences Psi_ij = expm1(l_i - l_j)/(l_i - l_j)
    (Higham, Functions of Matrices, 2008, sec. 3.2).  Frobenius inner
    products do not change under the unitary V, so <dR'_k, dR'_l> and
    <dR'_k, R'> need no transform back.  r^2 is inf, and the matrices
    None, where e^A H e^-A overflows.
    """
    basis = np.asarray(basis)
    lam, V = np.linalg.eigh(np.tensordot(coeffs, basis, 1))
    d = lam[:, None] - lam[None, :]
    Vh = V.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        Gp = np.exp(d) * (Vh @ H @ V)
        Rp = Gp - Gp.conj().T
        r2 = float(np.vdot(Rp, Rp).real)
    if not np.isfinite(r2):
        return np.inf, None, None
    small = np.abs(d) < 1e-8
    psi = np.where(small, 1.0 + 0.5 * d, np.expm1(d) / np.where(small, 1.0, d))
    P = psi * (Vh @ basis @ V)
    dG = P @ Gp - Gp @ P
    J = (dG - dG.conj().transpose(0, 2, 1)).reshape(len(basis), -1)
    return r2, (J.conj() @ J.T).real, (J.conj() @ Rp.ravel()).real


def _metric_residual_and_grad(coeffs, H, basis):
    """Squared residual |G - G^+|_F^2 of G = e^A H e^-A and its gradient
    2 J^T r (see `_metric_normal_equations`)."""
    r2, _, jtr = _metric_normal_equations(coeffs, H, basis)
    if not np.isfinite(r2):
        # overflow along an unbounded generator direction; steer back
        return 1e60, np.asarray(coeffs, dtype=float) * 1e60
    return r2, 2.0 * jtr


def _levenberg_marquardt(x, H, basis, f_floor, f_target):
    """Minimize r^2 from `x` by Levenberg-Marquardt on the normal equations.

    Marquardt's diagonal damping, floored at 1% of its largest entry, with
    Nielsen's gain-ratio update of the damping (Madsen, Nielsen & Tingleff,
    Methods for Non-Linear Least Squares Problems, 2004, sec. 3.2), whose
    decrease is capped at 10x per step.  The damped system, one row per
    generator, is solved from the eigenpairs of the scaled J^T J, which stay
    defined where J^T J is singular to rounding.  The loop stops once a
    step predicts a reduction of r^2 below `f_floor` (rounding, not the
    model, would decide the step), at "floor" with r^2 at most `f_target`
    and at "stall" above it; at "stall" once a step above `f_target`
    gains less than 0.1% of r^2; or at "cap".
    Returns (x, r^2, evaluations, stop).
    """
    f, JtJ, g = _metric_normal_equations(x, H, basis)
    nfev, mu, nu = 1, 1e-3, 2.0
    while nfev < METRIC_MAX_NFEV:
        if f <= f_floor:
            # no step can gain more than r^2 itself
            return x, f, nfev, "floor"
        # (J^T J + mu D) step = -g in coordinates scaled by D^(-1/2); without
        # its floor, D lets a direction that barely moves R take a huge step
        # and the damping then freezes the others
        sc = np.maximum(np.diag(JtJ), 1e-2 * np.diag(JtJ).max()) ** -0.5
        lam, U = np.linalg.eigh(sc[:, None] * JtJ * sc)
        y = -U @ ((U.T @ (sc * g)) / (np.maximum(lam, 0.0) + mu))
        step = sc * y
        pred = mu * (y @ y) - step @ g
        if pred <= f_floor:
            return x, f, nfev, "floor" if f <= f_target else "stall"
        x_new = x + step
        # a coefficient below eps of the largest changes A by less than its
        # rounding; zeroing it keeps subnormal numbers (5-10x slower
        # evaluations) out of the tail where squeeze terms die away
        x_new[np.abs(x_new) < np.finfo(float).eps * np.abs(x_new).max()] = 0.0
        f_new, JtJ_new, g_new = _metric_normal_equations(x_new, H, basis)
        nfev += 1
        rho = (f - f_new) / pred
        if rho <= 0:
            mu, nu = mu * nu, 2.0 * nu
            continue
        if f_target < f_new and f - f_new < 1e-3 * f:
            return x_new, f_new, nfev, "stall"
        x, f, JtJ, g = x_new, f_new, JtJ_new, g_new
        # near a metric the squeeze direction's curvature (J^T J) falls 4x
        # per step; damping that falls only 3x (Nielsen's 1/3) halves r per
        # step instead of quartering it
        mu, nu = mu * max(0.1, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
    return x, f, nfev, "cap"


def metric_search(op: TruncatedFockOperator):
    """Search for a Hermitian generator A with exp(A) H exp(-A) Hermitian,
    H the matrix of `op`.

    Minimizes the Frobenius norm of the anti-Hermitian part of the
    transformed operator by Levenberg-Marquardt steps on the normal
    equations, which one eigendecomposition of the generator per
    evaluation yields (see `_metric_normal_equations`), from one fixed
    start.  Returns eta = exp(A) = V e^L V^+ from one more
    eigendecomposition A = V L V^+.  eta = e^A is positive definite for
    every Hermitian A, so the `positive` flag claims a usable metric
    instead: the search converged and eta's condition number
    e^(max L - min L) stays below 1/eps of float64, so that eta^-1 and
    inner products in eta carry some digits.
    """
    H = np.asarray(op.matrix, dtype=complex)
    basis = metric_ansatz_basis(H.shape[0])
    scale = np.linalg.norm(H)
    tol = 1e-8 * (1.0 + scale)
    # rounding in eigh leaves r at about 20 eps |H| near a metric (Swanson,
    # dim 40); steps predicting less than this are decided by rounding
    floor = 50.0 * np.finfo(float).eps * scale
    # optimize in coordinates scaled by the basis spectral norms; the raw
    # landscape is badly conditioned between bounded (number-type) and
    # unbounded (squeeze-type) generator directions
    bscale = np.array([1.0 / (1.0 + np.linalg.norm(B, 2)) for B in basis])
    scaled_basis = np.array([s * B for s, B in zip(bscale, basis)])

    # the origin is a symmetry-protected critical point; start off it
    x, f, nfev, stop = _levenberg_marquardt(np.full(len(basis), 0.5), H,
                                            scaled_basis, floor ** 2, tol ** 2)
    resid = float(np.sqrt(f))
    coeffs = x * bscale
    lam, V = np.linalg.eigh(sum(c * B for c, B in zip(coeffs, basis)))
    eta = (V * np.exp(lam)) @ V.conj().T
    with np.errstate(over="ignore"):
        condition = float(np.exp(lam.max() - lam.min()))
    converged = bool(resid < tol)
    positive = converged and bool(condition < 1.0 / np.finfo(float).eps)
    return MetricResult(eta=eta, coefficients=coeffs, residual=resid,
                        converged=converged, positive=positive,
                        condition=condition, nfev=nfev, stop=stop)


def similarity_spectrum_check(op: TruncatedFockOperator, eta):
    """Max eigenvalue mismatch between H, the matrix of `op`, and eta H eta^-1."""
    H = op.matrix
    h = eta @ H @ np.linalg.inv(eta)
    e1 = np.sort_complex(sla.eigvals(H))
    e2 = np.sort_complex(sla.eigvals(h))
    return float(np.abs(e1 - e2).max())
