"""Finite-difference operators on uniform 1D grids, and the one banded
eigensolver of the grid and Fock engines.

Every banded operator, grid Hamiltonian or number-basis matrix, is held
as its full bands: row w + d of a (2w+1, n) array holds diagonal
d = -w..w in its first n - |d| entries.  A grid Hamiltonian -d^2/dx^2 + V
is complex-symmetric even for complex V; Dirichlet boundaries are
realized by zero extension (stencil rows near the edge drop out-of-range
points).  `eigenpairs_near` runs shift-invert Arnoldi (ARPACK) from a
fixed start vector, so reruns are byte-identical.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError

# central stencils, (offset: coefficient); divide by dx**order
_C1_ACC4 = {-2: 1 / 12, -1: -2 / 3, 1: 2 / 3, 2: -1 / 12}
_C2_ACC2 = {-1: 1.0, 0: -2.0, 1: 1.0}
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


def schrodinger_bands(V, dx, acc=2):
    """Full bands of -d^2/dx^2 + V (real when V is), Dirichlet boundaries."""
    V = np.asarray(V)
    if np.iscomplexobj(V) and np.abs(V.imag).max() == 0.0:
        V = V.real
    n = V.size
    st = {2: _C2_ACC2, 4: _C2_ACC4}[acc]
    w = max(st)
    bands = np.zeros((2 * w + 1, n), dtype=np.result_type(V, float))
    bands[w] = V - st[0] / dx**2
    for d in range(1, w + 1):
        bands[w - d, :n - d] = bands[w + d, :n - d] = -st[d] / dx**2
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


def eigenpairs_near(bands, k, sigma, vectors=False):
    """The k eigenvalues nearest sigma (unordered) of the matrix with full
    bands `bands`, and with `vectors` the eigenvectors as columns:
    shift-invert Arnoldi on the sparse LU of H - sigma.  ARPACK needs
    1 <= k < n - 1."""
    n = bands.shape[1]
    if not 1 <= k < n - 1:
        raise ConfigurationError(f"k must satisfy 1 <= k < n - 1 = {n - 1}, got {k}")
    # no parity: an even start vector reaches the odd levels of a
    # symmetric potential only through roundoff
    v0 = np.random.default_rng(0).standard_normal(n)
    return spla.eigs(band_matrix(bands), k=k, sigma=sigma, v0=v0, return_eigenvectors=vectors)
