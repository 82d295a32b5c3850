"""Finite-difference operators on uniform 1D grids.

Shared by the partner-potential and spectral engines.  A grid
Hamiltonian -d^2/dx^2 + V is held only as its lower bands, a (w+1, n)
array with bands[d, j] = H[j + d, j]; the operator is complex-symmetric
even for complex V.  Dirichlet boundaries are realized by zero extension
(stencil rows near the edge drop out-of-range points).  Eigenpairs come
from shift-invert Arnoldi (ARPACK) with a fixed start vector, so reruns
are byte-identical.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError

# central stencils, (offset: coefficient); divide by dx**order
_C1_ACC2 = {-1: -0.5, 1: 0.5}
_C1_ACC4 = {-2: 1 / 12, -1: -2 / 3, 1: 2 / 3, 2: -1 / 12}
_C2_ACC2 = {-1: 1.0, 0: -2.0, 1: 1.0}
_C2_ACC4 = {-2: -1 / 12, -1: 4 / 3, 0: -5 / 2, 1: 4 / 3, 2: -1 / 12}

# one-sided stencils for sample differentiation at the edges
_F1_ACC4 = [-25 / 12, 4.0, -3.0, 4 / 3, -1 / 4]
_F2_ACC4 = [15 / 4, -77 / 6, 107 / 6, -13.0, 61 / 12, -5 / 6]


def _stencil(order, acc):
    if (order, acc) == (1, 2):
        return _C1_ACC2
    if (order, acc) == (1, 4):
        return _C1_ACC4
    if (order, acc) == (2, 2):
        return _C2_ACC2
    if (order, acc) == (2, 4):
        return _C2_ACC4
    raise ValueError(f"unsupported (order, acc) = ({order}, {acc})")


def derivative(values, dx, order, acc=4):
    """Differentiate grid samples; one-sided stencils at the edges."""
    values = np.asarray(values)
    n = values.size
    st = _stencil(order, acc)
    width = max(abs(k) for k in st)
    out = np.zeros(n, dtype=complex)
    for k, c in st.items():
        out[width:n - width] += c * values[width + k:n - width + k]
    fwd = _F1_ACC4 if order == 1 else _F2_ACC4
    sign = -1.0 if order == 1 else 1.0
    for i in range(width):
        out[i] = sum(c * values[i + j] for j, c in enumerate(fwd))
        out[n - 1 - i] = sign * sum(c * values[n - 1 - i - j] for j, c in enumerate(fwd))
    return out / dx**order


def schrodinger_bands(V, dx, acc=2):
    """Lower bands of -d^2/dx^2 + V (real when V is), Dirichlet boundaries."""
    V = np.asarray(V)
    if np.iscomplexobj(V) and np.abs(V.imag).max() == 0.0:
        V = V.real
    n = V.size
    st = _stencil(2, acc)
    bands = np.zeros((max(st) + 1, n), dtype=np.result_type(V, float))
    bands[0] = V - st[0] / dx**2
    for d in range(1, max(st) + 1):
        bands[d, :n - d] = -st[d] / dx**2
    return bands


def band_matvec(bands, u):
    """Product of the symmetric banded operator with the vector u."""
    n = u.size
    out = bands[0] * u
    for d in range(1, bands.shape[0]):
        out[d:] += bands[d, :n - d] * u[:n - d]
        out[:n - d] += bands[d, :n - d] * u[d:]
    return out


def eigenpairs_near(bands, k, sigma, vectors=False):
    """The k eigenvalues nearest sigma (unordered), and with `vectors` the
    eigenvectors as columns: shift-invert Arnoldi on the sparse LU of
    H - sigma.  ARPACK needs 1 <= k < n - 1."""
    w, n = bands.shape[0] - 1, bands.shape[1]
    if not 1 <= k < n - 1:
        raise ConfigurationError(f"k must satisfy 1 <= k < n - 1 = {n - 1}, got {k}")
    offsets = list(range(-w, w + 1))
    H = sp.diags_array([bands[abs(d), :n - abs(d)] for d in offsets],
                       offsets=offsets, shape=(n, n), format="csc")
    # no parity: an even start vector reaches the odd levels of a
    # symmetric potential only through roundoff
    v0 = np.random.default_rng(0).standard_normal(n)
    return spla.eigs(H, k=k, sigma=sigma, v0=v0, return_eigenvectors=vectors)
