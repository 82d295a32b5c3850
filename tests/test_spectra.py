"""Grid and Fock-space spectra, classification and the metric search."""

import json

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (bilinear_levels, cubic_ground_energy,
                     cubic_interaction_element, dense_schrodinger)
from ptlab import spectra
from ptlab.errors import ConfigurationError


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_all_real():
    cls, pairing = spectra.classify_spectrum([1.0, 2.0, 3.0 + 1e-9j], tol=1e-6)
    assert cls is spectra.Classification.ALL_REAL
    assert pairing == {}


def test_classify_conjugate_pairs():
    eigs = [1.0, 2.0 + 0.5j, 2.0 - 0.5j, 4.0]
    cls, pairing = spectra.classify_spectrum(eigs, tol=1e-6)
    assert cls is spectra.Classification.CONJUGATE_PAIRS
    assert pairing == {1: 2, 2: 1}


def test_classify_mixed():
    eigs = [1.0, 2.0 + 0.5j, 2.0 - 0.5j, 4.0 + 1.0j]
    cls, pairing = spectra.classify_spectrum(eigs, tol=1e-6)
    assert cls is spectra.Classification.MIXED


def test_classify_rejects_bad_tol():
    with pytest.raises(ValueError):
        spectra.classify_spectrum([1.0], tol=0.0)


@given(st.lists(st.floats(-5, 5), min_size=0, max_size=6),
       st.lists(st.tuples(st.floats(-5, 5), st.floats(0.01, 5)),
                min_size=0, max_size=4),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_classification_property(reals, pairs, rnd):
    eigs = [complex(r) for r in reals]
    for re, im in pairs:
        eigs.append(complex(re, im))
        eigs.append(complex(re, -im))
    rnd.shuffle(eigs)
    cls, pairing = spectra.classify_spectrum(eigs, tol=1e-6)
    assert cls in (spectra.Classification.ALL_REAL,
                   spectra.Classification.CONJUGATE_PAIRS)
    if pairs:
        assert cls is spectra.Classification.CONJUGATE_PAIRS
    # pairing is an involution without fixed points
    for i, j in pairing.items():
        assert i != j
        assert pairing[j] == i
        assert abs(eigs[j] - np.conj(eigs[i])) < 1e-9


def test_report_round_trips_through_json():
    rep = spectra.make_report([1.0, 2.0 + 1j, 2.0 - 1j],
                              diagnostics={"note": [1, 2]})
    d = json.loads(json.dumps(rep.to_dict()))
    assert d["classification"] == "ConjugatePairs"
    assert d["eigenvalues"][1] == {"re": 2.0, "im": 1.0}
    assert d["pairing"] == {"1": 2, "2": 1}


# ---------------------------------------------------------------------------
# monomial family on the grid
# ---------------------------------------------------------------------------

def test_monomial_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        spectra.MonomialModel(N=5)
    with pytest.raises(ConfigurationError):
        spectra.MonomialModel(N=2, g=-1.0)


def test_harmonic_levels():
    model = spectra.MonomialModel(N=2, g=1.0, half_width=10.0, n_grid=600)
    rep = spectra.monomial_spectrum(model, k=6)
    assert rep.classification is spectra.Classification.ALL_REAL
    assert np.abs(rep.eigenvalues.real - np.arange(1, 12, 2)).max() < 1e-8
    assert rep.diagnostics["flagged"] == []


def test_cubic_ground_state_matches_shooting_oracle():
    model = spectra.MonomialModel(N=3, g=1.0, half_width=6.5, n_grid=900)
    rep = spectra.monomial_spectrum(model, k=4)
    assert rep.classification is spectra.Classification.ALL_REAL
    ref = cubic_ground_energy()
    assert abs(ref.imag) < 1e-9
    assert abs(rep.eigenvalues[0].real - ref.real) < 1e-7


def test_quartic_reversed_sign_all_real():
    model = spectra.MonomialModel(N=4, g=1.0, half_width=3.0, n_grid=700)
    rep = spectra.monomial_spectrum(model, k=8)
    assert rep.classification is spectra.Classification.ALL_REAL
    assert rep.diagnostics["flagged"] == []
    assert max(rep.diagnostics["grid_change"]) < 1e-4


def test_monomial_diagnostics_shape():
    model = spectra.MonomialModel(N=2, g=1.0, half_width=9.0, n_grid=300)
    rep = spectra.monomial_spectrum(model, k=5)
    assert len(rep.diagnostics["grid_change"]) == 5
    assert rep.diagnostics["n_grid"] == [300, 599]
    for bad in (0, 25):
        with pytest.raises(ConfigurationError):
            spectra.monomial_spectrum(model, k=bad)
    with pytest.raises(ConfigurationError):
        spectra.monomial_spectrum(spectra.MonomialModel(N=2, n_grid=8), k=7)


# the cubic operator is far from normal: from its sixth level on, the
# dense solver's own error (visible as |Im E|) passes 1e-9 on this grid
@pytest.mark.parametrize("N, half_width, k", [(2, 10.0, 10), (3, 6.5, 5), (4, 3.0, 10)])
def test_banded_levels_match_dense_matrix(N, half_width, k):
    n = 300
    model = spectra.MonomialModel(N=N, g=1.0, half_width=half_width, n_grid=n)
    z = np.linspace(-half_width, half_width, n + 2)[1:-1]
    dz = z[1] - z[0]
    H = dense_schrodinger(model.potential(z), dz, acc=4)
    H[0, 0] -= (1 / 12) / dz**2
    H[-1, -1] -= (1 / 12) / dz**2
    ref = sla.eigvals(H)
    ref = ref[np.argsort(np.abs(ref))][:k]
    assert np.abs(spectra._grid_eigs(model, n, k) - ref).max() < 1e-9


# ---------------------------------------------------------------------------
# truncated Fock-space models
# ---------------------------------------------------------------------------

def test_ladder_operators():
    dim = 12
    a, ad = spectra.annihilation(dim), spectra.creation(dim)
    comm = a @ ad - ad @ a
    # canonical commutator away from the truncation edge
    assert np.abs(comm[:-1, :-1] - np.eye(dim - 1)).max() < 1e-14
    assert np.abs(ad @ a - spectra.number_op(dim)).max() < 1e-14


def test_reggeon_elements_match_ladder_algebra():
    import sympy
    g, dim = 0.37, 9
    op = spectra.reggeon_single_site(delta=0.0, g=g, dim=dim)
    for m in range(dim):
        for n in range(dim):
            ref = 1j * g * float(sympy.N(cubic_interaction_element(m, n)))
            assert abs(op.matrix[m, n] - ref) < 1e-13


def test_reggeon_is_pt_symmetric():
    op = spectra.reggeon_single_site(delta=1.0, g=0.3, dim=30)
    assert spectra.is_pt_symmetric_fock(op.matrix)
    assert not spectra.is_pt_symmetric_fock(op.matrix + 1j * np.eye(30))


def test_reggeon_real_gauge_gives_exactly_real_eigenvalues():
    op = spectra.reggeon_single_site(delta=1.0, g=0.2, dim=40)
    ev = op.eigenvalues()
    # lowest levels of the convergent regime carry exactly zero
    # imaginary part thanks to the real-Schur route
    assert np.abs(ev[:5].imag).max() == 0.0


def test_swanson_matches_bogoliubov_oracle():
    delta, g, gtilde = 2.0, 0.3, 0.2
    op = spectra.swanson_model(delta, g, gtilde, dim=80)
    assert spectra.is_pt_symmetric_fock(op.matrix)
    ev = op.eigenvalues()[:6]
    ref = bilinear_levels(delta, g, gtilde, 6)
    assert np.abs(np.sort(ev.real) - np.sort(ref.real)).max() < 1e-10
    assert np.abs(ev.imag).max() < 1e-10


def test_swanson_broken_phase_never_stabilizes():
    # 4 g gtilde > delta^2: the mode frequency turns imaginary.  The real
    # truncated matrix still has real eigenvalues at every finite dim, but
    # they never converge as the cutoff grows, which the truncation
    # diagnostic reports.
    assert abs(bilinear_levels(0.5, 1.0, 1.0, 1)[0].imag) > 0.5
    build = lambda d: spectra.swanson_model(0.5, 1.0, 1.0, d)
    change = spectra.truncation_diagnostics(build, 60, k=6, ddim=20)
    assert change.min() > 1e-3


def test_truncation_diagnostics_flags_unstable_levels():
    build = lambda d: spectra.reggeon_single_site(1.0, 0.3, d)
    rep = spectra.fock_report(build(60), k=10, build=build, ddim=20)
    assert rep.diagnostics["dims"] == [60, 80]
    change = np.array(rep.diagnostics["truncation_change"])
    # the low end of the spectrum is already stable, the top is not
    assert change[0] < 1e-8
    assert change.max() > 1e-3
    assert rep.diagnostics["flagged"]


def test_fock_dim_validation():
    with pytest.raises(ConfigurationError):
        spectra.reggeon_single_site(1.0, 0.1, dim=3)
    with pytest.raises(ConfigurationError):
        spectra.swanson_model(1.0, 0.1, 0.1, dim=2)


# ---------------------------------------------------------------------------
# metric search
# ---------------------------------------------------------------------------

def test_metric_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    dim = 10
    H = spectra.swanson_model(1.5, 0.4, 0.1, dim).matrix
    basis = spectra.metric_ansatz_basis(dim, 3)
    c0 = rng.normal(scale=0.1, size=3)
    r0, grad = spectra._metric_residual_and_grad(c0, H, basis)
    h = 1e-6
    for k in range(3):
        dc = np.zeros(3)
        dc[k] = h
        rp, _ = spectra._metric_residual_and_grad(c0 + dc, H, basis)
        rm, _ = spectra._metric_residual_and_grad(c0 - dc, H, basis)
        assert grad[k] == pytest.approx((rp - rm) / (2 * h), rel=1e-4, abs=1e-6)


def test_metric_search_recovers_exact_swanson_generator():
    # eta = exp(c N) Hermitizes the bilinear model when exp(4c) = gtilde/g
    delta, g, gtilde, dim = 2.0, 0.3, 0.2, 24
    op = spectra.swanson_model(delta, g, gtilde, dim)
    res = spectra.metric_search(op, ansatz_dim=1, seed=0)
    assert res.converged and res.positive
    assert res.coefficients[0] == pytest.approx(0.25 * np.log(gtilde / g),
                                                abs=1e-6)


def test_metric_search_full_ansatz_and_similarity():
    op = spectra.swanson_model(2.0, 0.3, 0.2, 24)
    res = spectra.metric_search(op, ansatz_dim=3, seed=1)
    assert res.converged and res.positive
    assert res.residual < 1e-7
    assert spectra.similarity_spectrum_check(op, res.eta) < 1e-8
    transformed = res.eta @ op.matrix @ np.linalg.inv(res.eta)
    assert np.abs(transformed - transformed.T.conj()).max() < 1e-6


def test_metric_ansatz_validation():
    with pytest.raises(ConfigurationError):
        spectra.metric_ansatz_basis(10, 0)
    with pytest.raises(ConfigurationError):
        spectra.metric_ansatz_basis(10, 7)
    assert all(np.abs(B - B.T.conj()).max() < 1e-14
               for B in spectra.metric_ansatz_basis(10, 6))
