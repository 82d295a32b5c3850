"""Finite-difference operators on uniform 1D grids, and the one banded
eigensolver of the grid and Fock engines.

Every banded operator, grid Hamiltonian or number-basis matrix, is held
as its full bands: row w + d of a (2w+1, n) array holds diagonal
d = -w..w in its first n - |d| entries.  A grid Hamiltonian -d^2/dx^2 + V
is complex-symmetric even for complex V; Dirichlet boundaries are
realized by zero extension (stencil rows near the edge drop out-of-range
points).  `eigenpairs_near` runs shift-invert Arnoldi (ARPACK) from a
fixed start vector, so reruns are byte-identical.  `band_dense` gives
the dense matrix of the bands for the few dense uses.  `pt_fold` maps an
operator with exact PT symmetry to real bands with the same eigenvalues.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, EigensolverError

# central stencils, (offset: coefficient); divide by dx**order
_C1_ACC4 = {-2: 1 / 12, -1: -2 / 3, 1: 2 / 3, 2: -1 / 12}
_C2_ACC4 = {-2: -1 / 12, -1: 4 / 3, 0: -5 / 2, 1: 4 / 3, 2: -1 / 12}

# one-sided stencils for sample differentiation at the edges
_F1_ACC4 = [-25 / 12, 4.0, -3.0, 4 / 3, -1 / 4]
_F2_ACC4 = [15 / 4, -77 / 6, 107 / 6, -13.0, 61 / 12, -5 / 6]


def derivative(values, dx, order):
    """First or second derivative of grid samples at 4th order; one-sided
    stencils at the edges."""
    values = np.asarray(values)
    n = values.size
    st, fwd, sign = ((_C1_ACC4, _F1_ACC4, -1.0) if order == 1
                     else (_C2_ACC4, _F2_ACC4, 1.0))
    width = max(abs(k) for k in st)
    out = np.zeros(n, dtype=complex)
    for k, c in st.items():
        out[width:n - width] += c * values[width + k:n - width + k]
    for i in range(width):
        out[i] = sum(c * values[i + j] for j, c in enumerate(fwd))
        out[n - 1 - i] = sign * sum(c * values[n - 1 - i - j] for j, c in enumerate(fwd))
    return out / dx**order


def real_if_exact(a):
    """`a` as a real array when its imaginary part is exactly zero, else `a`."""
    return a.real if np.iscomplexobj(a) and not a.imag.any() else a


def schrodinger_bands(V, dx):
    """Full bands of -d^2/dx^2 + V (real when V is) at 4th order, Dirichlet
    boundaries; ConfigurationError where an entry is not finite."""
    V = real_if_exact(np.asarray(V))
    n = V.size
    w = max(_C2_ACC4)
    bands = np.zeros((2 * w + 1, n), dtype=np.result_type(V, float))
    bands[w] = V - _C2_ACC4[0] / dx**2
    for d in range(1, w + 1):
        bands[w - d, :n - d] = bands[w + d, :n - d] = -_C2_ACC4[d] / dx**2
    return require_finite_bands(bands)


def require_finite_bands(bands):
    """`bands`, refused with ConfigurationError unless every entry is finite."""
    if not np.isfinite(bands).all():
        raise ConfigurationError("operator entries must be finite; the potential "
                                 "or a coupling overflows")
    return bands


def band_matvec(bands, u):
    """Product of the operator with full bands `bands` and the vector u."""
    w, n = bands.shape[0] // 2, u.size
    out = bands[w] * u
    for d in range(1, w + 1):
        out[d:] += bands[w - d, :n - d] * u[:n - d]
        out[:n - d] += bands[w + d, :n - d] * u[d:]
    return out


def band_matrix(bands):
    """The sparse (CSC) matrix of full bands."""
    w, n = bands.shape[0] // 2, bands.shape[1]
    offsets = list(range(-w, w + 1))
    return sp.diags_array([bands[w + d, :n - abs(d)] for d in offsets],
                          offsets=offsets, shape=(n, n), format="csc")


def band_dense(bands):
    """The dense matrix of full bands, with +0.0 for a -0.0 entry, as in
    scipy's `toarray()` of `band_matrix`."""
    w, n = bands.shape[0] // 2, bands.shape[1]
    out = np.zeros((n, n), dtype=bands.dtype)
    for d in range(-w, w + 1):
        i = np.arange(n - abs(d))
        out[i + max(-d, 0), i + max(d, 0)] = bands[w + d, :n - abs(d)]
    out += 0.0
    return out


def pt_fold(bands):
    """Full bands of S H S^-1, H the matrix with full bands `bands`.

    S pairs the points j and n-1-j into e_j = u_j + u_(n-1-j) and
    o_j = -i (u_j - u_(n-1-j)), interleaved as e_0, o_0, e_1, o_1, ...;
    the middle point of an odd grid comes last, unchanged.  S H S^-1 has
    the eigenvalues of H and half-width 2w + 1.  Its entries are
    (c H_ab + c* H_(Pa)(Pb)) + (c' H_a(Pb) + c'* H_(Pa)b), P the reversal
    j -> n-1-j, so the folded bands are real, to the bit, exactly when
    P H* P = H: each bracket is then a number plus its conjugate.
    """
    w, n = bands.shape[0] // 2, bands.shape[1]
    fw = 2 * w + 1
    # folded index p combines the points a_p and n-1-a_p with the weights
    # s_p and s_p* (its row of S); column p of S^-1 holds t_p and t_p*
    idx = np.arange(n)
    a = idx // 2
    s = np.where(idx % 2 == 1, -1j, 1.0 + 0j)
    t = s.conj() / 2
    if n % 2:
        # the middle point: a_p = n-1-a_p, so s_p + s_p* and t_p + t_p*
        # are the entries 1 of S and S^-1 there
        s[-1] = t[-1] = 0.5

    # H_rc, read from the bands with a zero row on each side for |c - r| > w
    padded = np.pad(bands, ((1, 1), (0, 0)))

    def h(r, c):
        return padded[np.clip(c - r, -w - 1, w + 1) + w + 1, np.minimum(r, c)]

    d = np.arange(-fw, fw + 1)[:, None]
    p = np.minimum(idx - np.minimum(d, 0), n - 1)     # row of entry i on band d
    q = np.minimum(idx + np.maximum(d, 0), n - 1)     # its column
    ap, aq = a[p], a[q]
    c1, c2 = s[p] * t[q], s[p] * t[q].conj()
    folded = ((c1 * h(ap, aq) + c1.conj() * h(n - 1 - ap, n - 1 - aq))
              + (c2 * h(ap, n - 1 - aq) + c2.conj() * h(n - 1 - ap, aq)))
    return np.where(idx < n - np.abs(d), folded, 0)


def eigenpairs_near(bands, k, sigma, vectors=False):
    """The k eigenvalues nearest sigma (unordered) of the matrix with full
    bands `bands`, and with `vectors` the eigenvectors as columns:
    shift-invert Arnoldi on the sparse LU of H - sigma.  ARPACK needs
    1 <= k < n - 1.  Raises EigensolverError when sigma is exactly an
    eigenvalue (the factor is singular) or ARPACK fails."""
    n = bands.shape[1]
    if not 1 <= k < n - 1:
        raise ConfigurationError(f"k must satisfy 1 <= k < n - 1 = {n - 1}, got {k}")
    # no parity: an even start vector reaches the odd levels of a
    # symmetric potential only through roundoff
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        return spla.eigs(band_matrix(bands), k=k, sigma=sigma, v0=v0,
                         return_eigenvectors=vectors)
    except RuntimeError as exc:
        # SuperLU's exactly singular factor, or ARPACK (ArpackError is a RuntimeError)
        raise EigensolverError(f"eigensolver failed for k = {k} eigenvalues near "
                               f"sigma = {sigma}: {exc}") from exc
