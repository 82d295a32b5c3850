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
import scipy.optimize as sopt

from .errors import ConfigurationError
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
    if tol <= 0:
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
        if self.g <= 0:
            raise ConfigurationError("coupling g must be positive")

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
    dim: int
    matrix: np.ndarray

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


def parity_op(dim):
    return np.diag((-1.0) ** np.arange(dim))


def reggeon_single_site(delta, g, dim):
    """Cubic model Delta a+a + i g (a+ a a + a+ a+ a) in the number basis.

    The nonzero couplings are <n|H|n+1> = <n+1|H|n> = i g n sqrt(n+1),
    i.e. a complex-symmetric tridiagonal matrix.
    """
    if dim < 4:
        raise ConfigurationError("dim must be at least 4")
    n = np.arange(dim - 1, dtype=float)
    off = 1j * g * n * np.sqrt(n + 1.0)
    m = np.diag(delta * np.arange(dim, dtype=float)).astype(complex)
    m += np.diag(off, 1) + np.diag(off, -1)
    return TruncatedFockOperator(dim=dim, matrix=m)


def swanson_model(delta, g, gtilde, dim):
    """Bilinear model Delta a+a + g a+a+ + gtilde a a (pentadiagonal)."""
    if dim < 4:
        raise ConfigurationError("dim must be at least 4")
    n = np.arange(dim - 2, dtype=float)
    s = np.sqrt((n + 1.0) * (n + 2.0))
    m = np.diag(delta * np.arange(dim, dtype=float)).astype(complex)
    m += np.diag(g * s, -2) + np.diag(gtilde * s, 2)
    return TruncatedFockOperator(dim=dim, matrix=m)


def truncation_diagnostics(build, dim, k=10, ddim=20):
    """Change of the lowest-k eigenvalues under dim -> dim + ddim."""
    e1 = build(dim).eigenvalues()[:k]
    e2 = build(dim + ddim).eigenvalues()[:k]
    return np.abs(e2 - e1)


def fock_report(op: TruncatedFockOperator, k=10, tol=1e-6, build=None, ddim=20):
    eigs = op.eigenvalues()[:k]
    diag = {}
    if build is not None:
        change = truncation_diagnostics(build, op.dim, k=k, ddim=ddim)
        diag = {"truncation_change": change.tolist(),
                "flagged": [int(i) for i in np.nonzero(change > 1e-8)[0]],
                "dims": [op.dim, op.dim + ddim]}
    return make_report(eigs, tol=tol, diagnostics=diag)


def is_pt_symmetric_fock(matrix, tol=1e-12):
    """Check P H* P = H with P = diag((-1)^n)."""
    P = parity_op(matrix.shape[0])
    return bool(np.abs(P @ np.conj(matrix) @ P - matrix).max() < tol)


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


def _metric_residual_and_grad(coeffs, H, basis):
    """Squared residual |G - G^+|_F^2 of G = e^A H e^-A and its gradient.

    A = sum c_k B_k is Hermitian, so one eigendecomposition A = V L V^+
    serves both: in the eigenbasis G' = V^+ G V has entries
    e^(l_i - l_j) H'_ij, and the Frobenius norm is unitarily invariant.
    The derivative along B_k is dG' = [Psi o B'_k, G'] with the
    Daleckii-Krein divided differences Psi_ij = expm1(l_i - l_j)/(l_i - l_j)
    (Higham, Functions of Matrices, 2008, sec. 3.2), which folds every
    component of the gradient into one adjoint matrix Y.
    """
    A = sum(c * B for c, B in zip(coeffs, basis))
    # scipy's eigh: numpy's own OpenBLAS pool contends with L-BFGS-B's (~6x slower on 2 cores)
    lam, V = sla.eigh(A)
    d = lam[:, None] - lam[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        Gp = np.exp(d) * (V.conj().T @ H @ V)
        Rp = Gp - Gp.conj().T
        r2 = float(np.vdot(Rp, Rp).real)
    if not np.isfinite(r2):
        # overflow along an unbounded generator direction; steer back
        return 1e60, np.asarray(coeffs, dtype=float) * 1e60
    small = np.abs(d) < 1e-8
    psi = np.where(small, 1.0 + 0.5 * d, np.expm1(d) / np.where(small, 1.0, d))
    W = Gp @ Rp.conj().T - Rp.conj().T @ Gp
    Y = V.conj() @ (W.T * psi) @ V.T
    grad = np.array([4.0 * float(np.sum(Y * B).real) for B in basis])
    return r2, grad


def metric_search(H, ansatz_dim=3, x0=None, max_iter=500, seed=None, restarts=1):
    """Search for a Hermitian generator A with exp(A) H exp(-A) Hermitian.

    Minimizes the Frobenius norm of the anti-Hermitian part of the
    transformed operator by quasi-Newton (L-BFGS) descent with the
    analytic gradient, both from one eigendecomposition of the generator
    per evaluation (see `_metric_residual_and_grad`).
    Returns the best eta = exp(A) over `restarts` starts; the positivity
    flag reports whether eta stayed numerically positive definite.
    """
    if isinstance(H, TruncatedFockOperator):
        H = H.matrix
    H = np.asarray(H, dtype=complex)
    dim = H.shape[0]
    basis = metric_ansatz_basis(dim, ansatz_dim)
    rng = np.random.default_rng(seed)
    scale = np.linalg.norm(H)
    # optimize in coordinates scaled by the basis spectral norms; the raw
    # landscape is badly conditioned between bounded (number-type) and
    # unbounded (squeeze-type) generator directions
    bscale = np.array([1.0 / (1.0 + np.linalg.norm(B, 2)) for B in basis])
    scaled_basis = [s * B for s, B in zip(bscale, basis)]

    best = None
    for r in range(restarts):
        if x0 is not None and r == 0:
            start = np.asarray(x0, dtype=float) / bscale
        elif r == 0:
            # the origin is a symmetry-protected critical point; nudge off it
            start = np.full(len(basis), 0.5)
        else:
            start = rng.normal(scale=2.0, size=len(basis))
        opt = sopt.minimize(_metric_residual_and_grad, start,
                            args=(H, scaled_basis), jac=True, method="L-BFGS-B",
                            options={"maxiter": max_iter, "ftol": 1e-18, "gtol": 1e-14})
        resid = float(np.sqrt(max(opt.fun, 0.0)))
        if best is None or resid < best[0]:
            best = (resid, opt.x * bscale)
    resid, coeffs = best
    A = sum(c * B for c, B in zip(coeffs, basis))
    eta = sla.expm(A)
    herm = 0.5 * (eta + eta.T.conj())
    evmin = sla.eigvalsh(herm).min()
    positive = bool(evmin > 1e-12)
    converged = bool(resid < 1e-8 * (1.0 + scale))
    return MetricResult(eta=eta, coefficients=coeffs, residual=resid,
                        converged=converged, positive=positive)


def similarity_spectrum_check(H, eta):
    """Max eigenvalue mismatch between H and eta H eta^-1."""
    if isinstance(H, TruncatedFockOperator):
        H = H.matrix
    h = eta @ H @ np.linalg.inv(eta)
    e1 = np.sort_complex(sla.eigvals(H))
    e2 = np.sort_complex(sla.eigvals(h))
    return float(np.abs(e1 - e2).max())
