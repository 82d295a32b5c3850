"""Non-Hermitian spectral engine.

Grid spectra of the monomial family p^2 - g(iz)^N, truncated Fock-space
matrices of the single-site reggeon cubic model and the bilinear
(Swanson-type) model, the real-or-conjugate-pair classification that an
unbroken antilinear symmetry enforces, and a numerical search for a
Hermitizing similarity transform (metric).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import ConfigurationError, require_finite
from .gridops import eigenpairs_near, schrodinger_bands


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


def classify_spectrum(eigs, tol):
    """Real-or-conjugate-pair classification at tolerance `tol`.

    Returns (classification, pairing).  Complex eigenvalues are paired
    greedily with their nearest conjugate partner; leftovers mean Mixed.
    """
    if not tol > 0:
        raise ConfigurationError("tol must be positive")
    eigs = np.asarray(eigs, dtype=complex)
    complex_idx = [i for i, e in enumerate(eigs) if abs(e.imag) >= tol]
    pairing = {}
    if not complex_idx:
        return Classification.ALL_REAL, pairing
    unmatched = set(complex_idx)
    for i in sorted(unmatched, key=lambda k: (eigs[k].real, eigs[k].imag)):
        if i not in unmatched:
            continue
        best, bestd = None, np.inf
        for j in unmatched:
            if j == i:
                continue
            d = abs(eigs[j] - np.conj(eigs[i]))
            if d < bestd:
                best, bestd = j, d
        if best is not None and bestd < 2 * tol * (1.0 + abs(eigs[i])):
            pairing[i] = best
            pairing[best] = i
            unmatched.discard(i)
            unmatched.discard(best)
    if unmatched:
        return Classification.MIXED, pairing
    return Classification.CONJUGATE_PAIRS, pairing


def make_report(eigs, tol=1e-6, diagnostics=None):
    cls, pairing = classify_spectrum(eigs, tol)
    return SpectrumReport(eigenvalues=np.asarray(eigs, dtype=complex),
                          classification=cls, pairing=pairing,
                          diagnostics=diagnostics or {})


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


def _grid_eigs(model: MonomialModel, n, k):
    # unknowns at interior points; walls sit exactly at +-half_width.
    # The second ghost ring of the 5-point stencil is closed by odd
    # reflection about the wall (exact there since psi'' = (V-E) psi = 0),
    # which keeps full 4th-order accuracy for states that reach the wall.
    z = np.linspace(-model.half_width, model.half_width, n + 2)[1:-1]
    dz = z[1] - z[0]
    bands = schrodinger_bands(model.potential(z), dz, acc=4)
    bands[0, [0, -1]] -= (1 / 12) / dz**2
    ev = eigenpairs_near(bands, k, 0.0)
    return ev[np.argsort(np.abs(ev))]


def monomial_spectrum(model: MonomialModel, k=10, tol=1e-6):
    """Lowest-k eigenvalues (by modulus) with Richardson extrapolation.

    Eigenvalues are computed on the model grid and on a grid with half
    the spacing; the h^4 error of the 5-point stencil is removed by
    Richardson extrapolation and the raw grid-to-grid change is reported
    as a convergence diagnostic (entries changing by more than 1e-4 are
    flagged as non-converged).  Needs 1 <= k <= 20 and k < n_grid - 1;
    other k raise ConfigurationError.
    """
    if k > 20:
        raise ConfigurationError("at most 20 eigenvalues are reported")
    e1 = _grid_eigs(model, model.n_grid, k)
    e2 = _grid_eigs(model, 2 * model.n_grid - 1, k)
    extrap = (16.0 * e2 - e1) / 15.0
    change = np.abs(e2 - e1)
    flagged = [int(i) for i in np.nonzero(change > 1e-4)[0]]
    rep = make_report(extrap, tol=tol, diagnostics={
        "grid_change": change.tolist(),
        "flagged": flagged,
        "n_grid": [model.n_grid, 2 * model.n_grid - 1],
    })
    return rep


# ---------------------------------------------------------------------------
# truncated Fock-space models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedFockOperator:
    matrix: np.ndarray

    @property
    def dim(self):
        return self.matrix.shape[0]

    def eigenvalues(self):
        """All eigenvalues, sorted by modulus.

        When the antilinear symmetry P H* P = H holds, the gauge
        rotation diag(i^n) H diag(i^n)^-1 produces a real matrix; real
        Schur iteration then returns exactly real eigenvalues except for
        genuine conjugate pairs, so reality is not blurred by roundoff.
        """
        m = self.matrix
        if np.isrealobj(m) or np.abs(m.imag).max() == 0.0:
            ev = sla.eigvals(m.real)
        else:
            D = 1j ** np.arange(self.dim)
            rotated = m * D[:, None] / D[None, :]
            if np.abs(rotated.imag).max() < 1e-14 * max(1.0, np.abs(rotated.real).max()):
                ev = sla.eigvals(rotated.real)
            else:
                ev = sla.eigvals(m)
        return ev[np.argsort(np.abs(ev))]


def annihilation(dim):
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def creation(dim):
    return annihilation(dim).T.conj()


def number_op(dim):
    return np.diag(np.arange(dim)).astype(complex)


def reggeon_single_site(delta, g, dim):
    """Cubic model Delta a+a + i g (a+ a a + a+ a+ a) in the number basis.

    The nonzero couplings are <n|H|n+1> = <n+1|H|n> = i g n sqrt(n+1),
    i.e. a complex-symmetric tridiagonal matrix.
    """
    require_finite(delta=delta, g=g)
    if dim < 4:
        raise ConfigurationError("dim must be at least 4")
    n = np.arange(dim - 1, dtype=float)
    off = 1j * g * n * np.sqrt(n + 1.0)
    m = np.diag(delta * np.arange(dim, dtype=float)).astype(complex)
    m += np.diag(off, 1) + np.diag(off, -1)
    return TruncatedFockOperator(matrix=m)


def swanson_model(delta, g, gtilde, dim):
    """Bilinear model Delta a+a + g a+a+ + gtilde a a (pentadiagonal)."""
    require_finite(delta=delta, g=g, gtilde=gtilde)
    if dim < 4:
        raise ConfigurationError("dim must be at least 4")
    n = np.arange(dim - 2, dtype=float)
    s = np.sqrt((n + 1.0) * (n + 2.0))
    m = np.diag(delta * np.arange(dim, dtype=float)).astype(complex)
    m += np.diag(g * s, -2) + np.diag(gtilde * s, 2)
    return TruncatedFockOperator(matrix=m)


def fock_report(build, dim, k=10, tol=1e-6):
    """Lowest-k levels of build(dim), 1 <= k <= dim, and their change when
    the truncation grows from dim to dim + 20."""
    op = build(dim)
    if not 1 <= k <= dim:
        raise ConfigurationError(f"k must satisfy 1 <= k <= dim = {dim}, got {k}")
    eigs = op.eigenvalues()[:k]
    change = np.abs(build(dim + 20).eigenvalues()[:k] - eigs)
    return make_report(eigs, tol=tol, diagnostics={
        "truncation_change": change.tolist(),
        "flagged": [int(i) for i in np.nonzero(change > 1e-8)[0]],
        "dims": [dim, dim + 20]})


def is_pt_symmetric_fock(matrix):
    """Check P H* P = H with P = diag((-1)^n), to 1e-12.

    (P H* P)_ij = (-1)^(i+j) H*_ij, so P is never formed.
    """
    n = np.arange(matrix.shape[0])
    sign = (-1.0) ** np.add.outer(n, n)
    return bool(np.abs(np.conj(matrix) * sign - matrix).max() < 1e-12)


# ---------------------------------------------------------------------------
# metric search
# ---------------------------------------------------------------------------

def metric_ansatz_basis(dim, ansatz_dim=3):
    """Hermitian generator basis: N, a^2 + a+^2, i(a^2 - a+^2), then
    symmetrized quartic extensions."""
    a = annihilation(dim)
    ad = creation(dim)
    basis = [number_op(dim),
             a @ a + ad @ ad,
             1j * (a @ a - ad @ ad)]
    n_op = number_op(dim)
    extras = [n_op @ n_op,
              n_op @ (a @ a) + (ad @ ad) @ n_op,
              1j * (n_op @ (a @ a) - (ad @ ad) @ n_op)]
    basis.extend(extras)
    if not 1 <= ansatz_dim <= len(basis):
        raise ConfigurationError(f"ansatz_dim must be in 1..{len(basis)}")
    return basis[:ansatz_dim]


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
    lam, V = sla.eigh(np.tensordot(coeffs, basis, 1))
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
    decrease is capped at 10x per step.  The damped system, ansatz_dim
    square, is solved from the eigenpairs of the scaled J^T J, which stay
    defined where J^T J is singular to rounding.  The loop stops at
    "floor" once a step predicts a reduction of r^2 below `f_floor`
    (rounding, not the model, would decide the step), at "stall" once a
    step above `f_target` gains less than 0.1% of r^2, or at "cap".
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
        lam, U = sla.eigh(sc[:, None] * JtJ * sc)
        y = -U @ ((U.T @ (sc * g)) / (np.maximum(lam, 0.0) + mu))
        step = sc * y
        pred = mu * (y @ y) - step @ g
        if pred <= f_floor:
            return x, f, nfev, "floor"
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


def metric_search(H, ansatz_dim=3):
    """Search for a Hermitian generator A with exp(A) H exp(-A) Hermitian.

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
    if isinstance(H, TruncatedFockOperator):
        H = H.matrix
    H = np.asarray(H, dtype=complex)
    basis = metric_ansatz_basis(H.shape[0], ansatz_dim)
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
    lam, V = sla.eigh(sum(c * B for c, B in zip(coeffs, basis)))
    eta = (V * np.exp(lam)) @ V.conj().T
    with np.errstate(over="ignore"):
        condition = float(np.exp(lam.max() - lam.min()))
    converged = bool(resid < tol)
    positive = converged and bool(condition < 1.0 / np.finfo(float).eps)
    return MetricResult(eta=eta, coefficients=coeffs, residual=resid,
                        converged=converged, positive=positive,
                        condition=condition, nfev=nfev, stop=stop)


def similarity_spectrum_check(H, eta):
    """Max eigenvalue mismatch between H and eta H eta^-1."""
    if isinstance(H, TruncatedFockOperator):
        H = H.matrix
    h = eta @ H @ np.linalg.inv(eta)
    e1 = np.sort_complex(sla.eigvals(H))
    e2 = np.sort_complex(sla.eigvals(h))
    return float(np.abs(e1 - e2).max())
