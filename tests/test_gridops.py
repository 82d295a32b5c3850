"""Full-band storage: the matrix-vector product, the dense view, the
Schrodinger bands and the PT fold against their dense matrices."""

import numpy as np
import pytest

from oracles import dense_schrodinger, reference_pt_fold
from ptlab import spectra
from ptlab.gridops import band_dense, band_matrix, band_matvec, pt_fold, schrodinger_bands


# a complex potential on a 200-point grid
X = np.linspace(-6.0, 6.0, 200)
V = X**2 + 0.7j * X**3 * np.exp(-X**2 / 8)
DX = X[1] - X[0]


BANDED = {
    # g != gtilde: the bands above and below the diagonal differ
    "swanson": lambda: spectra.swanson_model(2.0, 0.5, 0.2, 60).bands,
    "reggeon": lambda: spectra.reggeon_single_site(1.0, 0.3, 60).bands,
    "grid-acc4": lambda: schrodinger_bands(V, DX),
}


@pytest.mark.parametrize("name", list(BANDED))
def test_band_matvec_is_the_matrix_product(name):
    bands = BANDED[name]()
    n = bands.shape[1]
    rng = np.random.default_rng(5)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = band_matrix(bands) @ u
    assert np.abs(band_matvec(bands, u) - ref).max() <= 1e-14 * np.abs(ref).max()


# signed zeros and extreme magnitudes, so that every sign of zero and
# every exponent passes through the dense view
COUPLINGS = [(0.0, -0.0, 0.0), (-0.0, 0.0, -0.0), (1e300, -1e-300, 1e-300),
             (-1e-300, 1e300, -1e300), (1.0, 0.3, -0.2)]


@pytest.mark.parametrize("dim", [4, 5, 24, 40, 81, 200])
def test_band_dense_is_the_sparse_matrix_to_the_byte(dim):
    # a -0.0 on a band reads +0.0 in scipy's CSC-to-dense sum, and must in
    # the dense view too
    cases = [spectra.fock_bands(dim, *terms) for terms in
             [[(1, 1, 1)], [(1, 0, 2), (1, 2, 0)], [(1j, 0, 2), (-1j, 2, 0)]]]
    for delta, g, gtilde in COUPLINGS:
        cases += [spectra.reggeon_single_site(delta, g, dim).bands,
                  spectra.swanson_model(delta, g, gtilde, dim).bands]
    grid = schrodinger_bands(V[:dim], DX)
    # the fold's half-width 5 needs a grid of more than 10 points
    cases += [grid, pt_fold(grid)] if dim > 10 else [grid]
    for bands in cases:
        ref = band_matrix(bands).toarray()
        dense = band_dense(bands)
        assert dense.dtype == ref.dtype and dense.tobytes() == ref.tobytes()


def test_schrodinger_bands_are_the_dense_operator():
    bands = schrodinger_bands(V, DX)
    ref = dense_schrodinger(V, DX)
    assert bands.shape == (5, V.size)
    assert np.abs(band_matrix(bands).toarray() - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("n", [299, 300])
def test_pt_fold_is_the_dense_fold(n):
    # the p^2 + i z^3 operator at 4th order with its wall correction: exactly
    # PT-symmetric on the antisymmetric grid, so its fold is real to the bit
    bands = spectra._grid_bands(spectra.MonomialModel(N=3).potential, 6.5, n)
    assert np.iscomplexobj(bands)
    folded = pt_fold(bands)
    assert folded.shape == (2 * 5 + 1, n)       # half-width 2w + 1 = 5
    assert not folded.imag.any()
    ref = reference_pt_fold(band_matrix(bands).toarray())
    assert np.abs(band_matrix(folded).toarray() - ref).max() <= 1e-14 * np.abs(ref).max()
