"""Partner potentials, intertwining charges and spectral-case rules."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_intertwining_residual, dense_schrodinger
from ptlab import susy
from ptlab.errors import ConfigurationError, NodeError


def gaussian_pair(n=1600, window=(-8.0, 8.0), E_m=0.0):
    psi = susy.GridWavefunction.from_callable(
        lambda x: np.exp(-x**2 / 2.0), window, n)
    return susy.superpotential_from_groundstate(psi, E_m=E_m)


def interior(pair, half_width=3.5):
    # the working window: V_+ = 2(psi'/psi)^2 - psi''/psi amplifies the
    # derivative error by ~4|x| outward, so pointwise 1e-6 claims hold on
    # a window slightly smaller than the sampling window
    return np.abs(pair.x) <= half_width


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_gaussian_superpotential_and_partners():
    pair = gaussian_pair()
    sl = interior(pair)
    x = pair.x[sl]
    assert np.abs(pair.W[sl] - x).max() < 1e-6
    assert np.abs(pair.V_minus[sl] - (x**2 - 1.0)).max() < 1e-6
    assert np.abs(pair.V_plus[sl] - (x**2 + 1.0)).max() < 1e-6


def test_scaling_invariance():
    f = lambda x: np.exp(-x**2 / 2.0)
    p1 = susy.superpotential_from_groundstate(
        susy.GridWavefunction.from_callable(f, (-6, 6), 800))
    p2 = susy.superpotential_from_groundstate(
        susy.GridWavefunction.from_callable(lambda x: (2.0 - 1.5j) * f(x),
                                            (-6, 6), 800))
    sl = np.abs(p1.x) <= 4.0
    assert np.abs(p1.W - p2.W)[sl].max() < 1e-10
    assert np.abs(p1.V_plus - p2.V_plus)[sl].max() < 1e-10


def test_node_detected():
    psi = susy.GridWavefunction.from_callable(
        lambda x: x * np.exp(-x**2 / 2.0), (-6, 6), 801)
    with pytest.raises(NodeError):
        susy.superpotential_from_groundstate(psi)


def test_decayed_tails_are_not_nodes():
    psi = susy.GridWavefunction.from_callable(
        lambda x: np.exp(-x**2 / 2.0), (-12, 12), 2001)
    susy.superpotential_from_groundstate(psi)     # must not raise


@pytest.mark.parametrize("window, n, first_bad", [
    ((-40.0, 40.0), 2000, -40.0),     # psi is 0 at the edges
    ((-38.0, 38.0), 2000, -38.0),     # psi is subnormal at the edges
    ((100.0, 200.0), 800, 100.0),     # psi is 0 everywhere
], ids=["zero-edges", "subnormal-edges", "zero-everywhere"])
def test_underflowing_groundstate_refused(window, n, first_bad):
    psi = susy.GridWavefunction.from_callable(
        lambda x: np.exp(-x**2 / 2.0), window, n)
    with pytest.raises(ConfigurationError, match=f"x = {first_bad:g}:"):
        susy.superpotential_from_groundstate(psi)


def test_complex_groundstate_supported():
    pair = susy.superpotential_from_groundstate(
        susy.GridWavefunction.from_callable(
            lambda x: np.exp(-x**2 / 2.0 + 0.5j * x), (-8, 8), 1201))
    sl = interior(pair)
    assert np.abs(pair.w[sl] - pair.x[sl]).max() < 1e-6
    assert np.abs(pair.w_hat[sl] + 0.5).max() < 1e-6


# ---------------------------------------------------------------------------
# spectra and intertwining
# ---------------------------------------------------------------------------

def test_partner_spectra_shifted_by_gap():
    pair = gaussian_pair(n=1200, window=(-10, 10))
    hm, hp = susy.build_partner_hamiltonians(pair)
    em = hm.eigenvalues().real
    ep = hp.eigenvalues().real
    # oscillator pair: minus spectrum 0,2,4,..., plus spectrum 2,4,6,...
    assert np.abs(em[:4] - [0, 2, 4, 6]).max() < 1e-6
    assert np.abs(ep[:4] - [2, 4, 6, 8]).max() < 1e-6
    assert np.abs(em[1:7] - ep[:6]).max() < 1e-6


def test_intertwining_residual_and_order():
    resids = []
    for n in (400, 800, 1600, 3200):
        pair = gaussian_pair(n=n)
        resids.append(susy.verify_intertwining(pair))
    orders = np.log2(np.array(resids[:-1]) / np.array(resids[1:]))
    assert resids[-1] < 1e-6
    assert orders.min() > 3.5


def test_conjugate_intertwining():
    pair = gaussian_pair(n=3200)
    assert susy.verify_intertwining(pair, conjugate=True) < 1e-6


PROFILES = {
    "gaussian": lambda x: np.exp(-x**2 / 2.0),
    "gaussian-complex": lambda x: np.exp(-x**2 / 2.0 + 0.5j * x),
    "sech": lambda x: 1.0 / np.cosh(x),
}


def profile_pair(profile, n=400):
    return susy.superpotential_from_groundstate(
        susy.GridWavefunction.from_callable(PROFILES[profile], (-8, 8), n))


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_banded_levels_match_dense_matrix(profile):
    pair = profile_pair(profile)
    hams = susy.build_partner_hamiltonians(pair)
    for h, V in zip(hams, (pair.V_minus, pair.V_plus)):
        ref = sla.eigvals(dense_schrodinger(V, pair.dx))
        ref = ref[np.argsort(ref.real)][:10]
        assert np.abs(h.eigenvalues(k=10) - ref).max() < 1e-9


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_eigenvalues_compute_no_eigenvectors(monkeypatch, profile):
    hams = susy.build_partner_hamiltonians(profile_pair(profile))
    ref = [h.eigensystem(k=10)[0] for h in hams]
    wanted, solve = [], susy.eigenpairs_near

    def recording(bands, k, sigma, vectors=False):
        wanted.append(vectors)
        return solve(bands, k, sigma, vectors)

    monkeypatch.setattr(susy, "eigenpairs_near", recording)
    for h, ev in zip(hams, ref):
        assert np.array_equal(h.eigenvalues(k=10), ev)
    assert wanted == [False, False]


@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_intertwining_matches_dense_products(profile, conjugate):
    pair = profile_pair(profile)
    ref, scale = dense_intertwining_residual(pair, susy._probe_states(pair.x),
                                             conjugate=conjugate)
    got = susy.verify_intertwining(pair, conjugate=conjugate)
    # Q H and H Q hold terms of size `scale` that cancel down to the
    # residual, so each evaluation is exact only to about eps * scale
    assert abs(got - ref) <= 1e-16 * scale


def test_level_count_refused():
    hm, _ = susy.build_partner_hamiltonians(gaussian_pair(n=100))
    for bad in (0, 99):
        with pytest.raises(ConfigurationError):
            hm.eigenvalues(k=bad)
        with pytest.raises(ConfigurationError):
            hm.eigensystem(k=bad)


def test_charge_maps_first_excited_to_partner_ground():
    pair = gaussian_pair(n=1400, window=(-9, 9))
    hm, hp = susy.build_partner_hamiltonians(pair)
    evm, vecm = hm.eigensystem()
    phi1 = susy.GridWavefunction(pair.x0, pair.dx, vecm[:, 1])
    mapped = susy.map_wavefunction(pair, phi1)
    assert not mapped.annihilated
    evp, vecp = hp.eigensystem()
    target = vecp[:, 0] / np.linalg.norm(vecp[:, 0])
    got = mapped.wavefunction.values / np.linalg.norm(mapped.wavefunction.values)
    phase = np.vdot(got, target)
    phase /= abs(phase)
    assert np.abs(got * phase - target).max() < 1e-4


def test_charge_annihilates_groundstate():
    pair = gaussian_pair(n=1400, window=(-9, 9))
    psi = susy.GridWavefunction.from_callable(
        lambda x: np.exp(-x**2 / 2.0), (-9, 9), 1400)
    mapped = susy.map_wavefunction(pair, psi)
    assert mapped.annihilated


# ---------------------------------------------------------------------------
# spectral-case classification
# ---------------------------------------------------------------------------

def test_case_doublet_for_real_superpotential():
    pair = gaussian_pair()
    assert susy.classify_case(pair) is susy.SpectralCase.DOUBLET


def test_case_triplet_for_constant_shift():
    # psi = exp(-x^2/2 - i b x): W = x + i b, w = x, w_hat = b constant;
    # with eps_hat = -+ w_hat' - 2 w w_hat nonconstant this is no triplet,
    # so engineer w = (-w_hat' - eps_hat)/(2 w_hat) directly instead:
    # W = w + i w_hat with w_hat = exp(x), eps_hat = 0, w = -exp(x)/(2 exp(x))
    x0, dx, n = -2.0, 0.005, 801
    x = x0 + dx * np.arange(n)
    what = np.exp(x)
    w = np.full(n, -0.5)
    W = w + 1j * what
    pair = susy.SuperPartnerPair(x0=x0, dx=dx, W=W,
                                 V_minus=np.zeros(n), V_plus=np.zeros(n),
                                 E_m=0.0)
    assert susy.classify_case(pair) is susy.SpectralCase.TRIPLET_PLUS


def test_case_quartet_for_generic_complex():
    pair = susy.superpotential_from_groundstate(
        susy.GridWavefunction.from_callable(
            lambda x: np.exp(-x**2 / 2.0 + 0.3j * np.sin(x)), (-7, 7), 1201))
    assert susy.classify_case(pair) is susy.SpectralCase.ISOSPECTRAL_QUARTET


def test_case_quartet_warning_on_vanishing_imaginary_part():
    x0, dx, n = -2.0, 0.005, 801
    x = x0 + dx * np.arange(n)
    W = x + 1j * x          # w_hat crosses zero
    pair = susy.SuperPartnerPair(x0=x0, dx=dx, W=W,
                                 V_minus=np.zeros(n), V_plus=np.zeros(n))
    with pytest.warns(UserWarning):
        case = susy.classify_case(pair)
    assert case is susy.SpectralCase.ISOSPECTRAL_QUARTET


# ---------------------------------------------------------------------------
# grid type
# ---------------------------------------------------------------------------

def test_wavefunction_requires_enough_samples():
    with pytest.raises(ValueError):
        susy.GridWavefunction(0.0, 0.1, np.ones(8))
    n = susy.MIN_SAMPLES
    with pytest.raises(ConfigurationError):
        susy.GridWavefunction(0.0, 0.1, np.ones(n - 1))
    with pytest.raises(ConfigurationError):
        susy.GridWavefunction.from_callable(np.ones_like, (-1.0, 1.0), n - 1)
    # the smallest grid leaves verify_intertwining one row to measure
    resid = susy.verify_intertwining(gaussian_pair(n=n))
    assert np.isfinite(resid) and resid > 0.0


@given(st.floats(0.05, 0.5), st.integers(64, 256))
@settings(max_examples=20, deadline=None)
def test_grid_geometry(dx, n):
    psi = susy.GridWavefunction(-1.0, dx, np.ones(n))
    assert psi.n == n
    assert psi.x[0] == pytest.approx(-1.0)
    assert psi.x[-1] == pytest.approx(-1.0 + dx * (n - 1))
