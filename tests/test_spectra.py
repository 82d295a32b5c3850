"""Grid and Fock-space spectra, classification and the metric search."""

import itertools
import json

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (biorthogonal_metric, bilinear_levels, cubic_ground_energy,
                     cubic_interaction_element, dense_schrodinger, ladder_element,
                     reference_fock_eigenvalues, reference_fock_report,
                     reference_metric_ansatz_basis, reference_metric_normal_equations,
                     reference_metric_objective, reference_metric_search,
                     reference_monomial_report, reference_reggeon_bands,
                     reference_swanson_bands, swanson_metric)
from ptlab import spectra
from ptlab.errors import ConfigurationError
from ptlab.gridops import pt_fold


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_all_real():
    cls, pairing = spectra.classify_spectrum([1.0, 2.0, 3.0 + 1e-9j])
    assert cls is spectra.Classification.ALL_REAL
    assert pairing == {}


def test_classify_conjugate_pairs():
    eigs = [1.0, 2.0 + 0.5j, 2.0 - 0.5j, 4.0]
    cls, pairing = spectra.classify_spectrum(eigs)
    assert cls is spectra.Classification.CONJUGATE_PAIRS
    assert pairing == {1: 2, 2: 1}


def test_classify_mixed():
    eigs = [1.0, 2.0 + 0.5j, 2.0 - 0.5j, 4.0 + 1.0j]
    cls, pairing = spectra.classify_spectrum(eigs)
    assert cls is spectra.Classification.MIXED


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
    cls, pairing = spectra.classify_spectrum(eigs)
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
    assert max(rep.diagnostics["change"]) < 1e-4


def test_monomial_diagnostics_shape():
    model = spectra.MonomialModel(N=2, g=1.0, half_width=9.0, n_grid=300)
    rep = spectra.monomial_spectrum(model, k=5)
    assert len(rep.diagnostics["change"]) == 5
    assert rep.diagnostics["resolutions"] == [300, 599]
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
    H = dense_schrodinger(model.potential(z), dz)
    H[0, 0] -= (1 / 12) / dz**2
    H[-1, -1] -= (1 / 12) / dz**2
    ref = sla.eigvals(H)
    ref = ref[np.argsort(np.abs(ref))][:k]
    assert np.abs(spectra._grid_eigs(model.potential, half_width, n, k) - ref).max() < 1e-9


def _dense_levels_and_bound(H):
    """All eigenvalues of the dense H by modulus, and the roundoff bound
    10 kappa |H|_2 eps on each.

    kappa = |x| |y| / |y^H x| is the eigenvalue condition number from the
    left and right eigenvectors: both solvers are backward stable, so each
    level may move by a few kappa |H|_2 eps from the exact one.  The
    bound takes eps = 2^-52, twice the unit roundoff: on the Swanson
    models at dims 70-140 the dense oracle alone lies up to 14 |H|_2 u
    from the exact Bogoliubov levels.
    """
    ref, vl, vr = reference_fock_eigenvalues(H)
    kappa = (np.linalg.norm(vl, axis=0) * np.linalg.norm(vr, axis=0)
             / np.abs(np.sum(vl.conj() * vr, axis=0)))
    return ref, 10.0 * kappa * np.linalg.norm(H, 2) * np.finfo(float).eps


def _assert_near(ev, ref, bound):
    """Each level lies within `bound` of its nearest level in `ref`."""
    nearest = np.abs(ref[None, :] - ev[:, None]).argmin(axis=1)
    assert (np.abs(ref[nearest] - ev) <= bound[nearest]).all()


def _dense_box_operator(potential, half_width, n):
    """The dense operator of `spectra._grid_bands`, built without `gridops`."""
    z = np.arange(1 - n, n, 2) * (half_width / (n + 1))
    dz = 2.0 * half_width / (n + 1)
    H = dense_schrodinger(potential(z), dz)
    H[0, 0] -= (1 / 12) / dz**2
    H[-1, -1] -= (1 / 12) / dz**2
    return H


def _record_band_dtypes(monkeypatch):
    """The dtypes of the bands each `spectra` eigensolve gets."""
    seen, solve = [], spectra.eigenpairs_near

    def recording(bands, *args, **kwargs):
        seen.append(bands.dtype)
        return solve(bands, *args, **kwargs)

    monkeypatch.setattr(spectra, "eigenpairs_near", recording)
    return seen


@pytest.mark.parametrize("n", [100, 151, 200, 251, 300])
def test_cubic_levels_from_the_real_form_match_dense_matrix(monkeypatch, n):
    potential = spectra.MonomialModel(N=3).potential
    dtypes = _record_band_dtypes(monkeypatch)
    ev = spectra._grid_eigs(potential, 6.5, n, 10)
    assert dtypes == [np.float64]
    assert ev.size == 10 and not ev.imag.any()
    _assert_near(ev, *_dense_levels_and_bound(_dense_box_operator(potential, 6.5, n)))


def test_broken_phase_grid_levels_are_exact_conjugate_pairs():
    # V = 20 i z in the box |z| < 1 is PT-symmetric past its exceptional
    # point: its two lowest levels have merged into a pair
    potential = lambda z: 20j * z
    ev = spectra._grid_eigs(potential, 1.0, 200, 4)
    assert abs(ev[0] - (8.639 - 5.245j)) < 1e-3
    assert ev[1] == ev[0].conj()
    assert not ev[2:].imag.any()
    _assert_near(ev, *_dense_levels_and_bound(_dense_box_operator(potential, 1.0, 200)))


def test_grid_operator_an_ulp_off_pt_gets_the_complex_solve(monkeypatch):
    def potential(z):
        V = spectra.MonomialModel(N=3).potential(z)
        V[40] = complex(V[40].real, np.nextafter(V[40].imag, np.inf))
        return V

    assert pt_fold(spectra._grid_bands(potential, 6.5, 200)).imag.any()
    dtypes = _record_band_dtypes(monkeypatch)
    ev = spectra._grid_eigs(potential, 6.5, 200, 10)
    assert dtypes == [np.complex128]
    assert ev.size == 10
    _assert_near(ev, *_dense_levels_and_bound(_dense_box_operator(potential, 6.5, 200)))


def test_monomial_report_compares_the_levels_both_grids_give(monkeypatch):
    # the coarse grid completes a pair at k = 2 that the fine one does not:
    # the report keeps it, flagged, as a Fock report does
    levels = {100: np.array([1.0, 2.0 - 1j, 2.0 + 1j]), 199: np.array([1.0, 2.5])}
    monkeypatch.setattr(spectra, "_grid_eigs", lambda V, h, n, k: levels[n])
    rep = spectra.monomial_spectrum(spectra.MonomialModel(N=3, n_grid=100), k=2)
    assert rep.eigenvalues.size == 3
    assert rep.eigenvalues[1] == (16.0 * 2.5 - (2.0 - 1j)) / 15.0
    assert rep.eigenvalues[2] == 2.0 + 1j
    assert len(rep.diagnostics["change"]) == 2
    assert rep.diagnostics["flagged"] == [1, 2]


# ---------------------------------------------------------------------------
# truncated Fock-space models
# ---------------------------------------------------------------------------

def _fock_matrix(dim, *terms):
    return spectra.TruncatedFockOperator(spectra.fock_bands(dim, *terms)).matrix


def test_ladder_operators():
    dim = 12
    a, ad = _fock_matrix(dim, (1.0, 0, 1)), _fock_matrix(dim, (1.0, 1, 0))
    number = spectra.fock_bands(dim, (1.0, 1, 1))
    assert number.tobytes() == np.arange(dim, dtype=float)[None].tobytes()
    comm = a @ ad - ad @ a
    # canonical commutator away from the truncation edge
    assert np.abs(comm[:-1, :-1] - np.eye(dim - 1)).max() < 1e-14
    assert np.abs(ad @ a - np.diag(number[0])).max() < 1e-14


def test_reggeon_elements_match_ladder_algebra():
    import sympy
    g, dim = 0.37, 9
    op = spectra.reggeon_single_site(delta=0.0, g=g, dim=dim)
    for m in range(dim):
        for n in range(dim):
            ref = 1j * g * float(sympy.N(cubic_interaction_element(m, n)))
            assert abs(op.matrix[m, n] - ref) < 1e-13


@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("q", range(4))
def test_fock_bands_match_ladder_algebra(p, q):
    """Every a+^p a^q, p, q <= 3, holds the exact matrix elements up to
    and including the truncation edge."""
    import sympy
    ref = np.array([[float(sympy.N(ladder_element(p, q, m, n), 30)) for n in range(12)]
                    for m in range(12)])
    for dim in range(4, 13):
        R = ref[:dim, :dim]
        # one rounding in the root and one in the product; zeros exact
        assert (np.abs(_fock_matrix(dim, (1.0, p, q)) - R) <= 4e-16 * np.abs(R)).all()


COUPLINGS = [0.37, -2.5, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300]


@pytest.mark.parametrize("dim", [4, 5, 9, 40, 257, 2000])
def test_fock_models_keep_the_hand_set_bands(dim):
    """The builder writes the reggeon and Swanson bands of the hand-set
    constructions byte for byte: dtype and the sign of zeros count."""
    for delta, g in itertools.product(COUPLINGS, COUPLINGS):
        bands = spectra.reggeon_single_site(delta, g, dim).bands
        assert bands.tobytes() == reference_reggeon_bands(delta, g, dim).tobytes()
        assert bands.dtype == complex
        for gtilde in COUPLINGS:
            bands = spectra.swanson_model(delta, g, gtilde, dim).bands
            ref = reference_swanson_bands(delta, g, gtilde, dim)
            assert bands.tobytes() == ref.tobytes() and bands.dtype == float


@pytest.mark.parametrize("dim", [4, 10, 40, 200])
def test_metric_ansatz_matches_dense_products(dim):
    """The builder's generators differ from the products of the dense
    ladder matrices only by the rounding of sqrt(n) sqrt(n+1)."""
    for B, ref in zip(spectra.metric_ansatz_basis(dim), reference_metric_ansatz_basis(dim)):
        assert np.array_equal(B != 0, ref != 0)
        nz = ref != 0
        assert (np.abs(B[nz] - ref[nz]) <= 4e-16 * np.abs(ref[nz])).all()


@pytest.mark.parametrize("dim", [24, 40, 60])
def test_metric_ansatz_uses_the_elements_of_h(dim):
    """eta is searched over the matrix elements of the H it Hermitizes:
    a^2 + a+^2 is the Swanson matrix at Delta = 0, g = gtilde = 1."""
    squeeze = spectra.metric_ansatz_basis(dim)[1]
    H = spectra.swanson_model(0.0, 1.0, 1.0, dim).matrix
    assert squeeze.dtype == H.dtype and squeeze.tobytes() == H.tobytes()


def _diagonal_shifted(op, shift):
    bands = op.bands.astype(complex)
    bands[bands.shape[0] // 2] += shift
    return spectra.TruncatedFockOperator(bands)


def test_reggeon_is_pt_symmetric():
    op = spectra.reggeon_single_site(delta=1.0, g=0.3, dim=30)
    assert spectra.is_pt_symmetric_fock(op)
    assert not spectra.is_pt_symmetric_fock(_diagonal_shifted(op, 1j))


def _dense_pt_defect(H):
    """max |P H* P - H| with P = diag((-1)^n), from the dense matrix."""
    n = np.arange(H.shape[0])
    return np.abs(np.conj(H) * (-1.0) ** np.add.outer(n, n) - H).max()


PT_CASES = {
    "reggeon": lambda: spectra.reggeon_single_site(1.0, 0.3, 30),
    "swanson": lambda: spectra.swanson_model(2.0, 0.5, 0.3, 30),
    # a phase on the g band breaks P H* P = H
    "swanson-phase": lambda: spectra.TruncatedFockOperator(
        spectra.swanson_model(2.0, 0.5, 0.3, 30).bands
        * np.exp(0.3j * (np.arange(5) == 0))[:, None]),
    # |P H* P - H| = 1.4e-12 on the diagonal: rejected only with the
    # factor 2 between the defect and |Im| of the rotated bands
    "reggeon-7e-13i": lambda: _diagonal_shifted(
        spectra.reggeon_single_site(1.0, 0.3, 30), 7e-13j),
}


@pytest.mark.parametrize("name", list(PT_CASES))
def test_pt_check_agrees_with_dense_definition(name):
    op = PT_CASES[name]()
    dense = bool(_dense_pt_defect(op.matrix) < 1e-12)
    assert spectra.is_pt_symmetric_fock(op) == dense
    assert dense == (name in ("reggeon", "swanson"))


def test_reggeon_real_gauge_gives_exactly_real_eigenvalues():
    op = spectra.reggeon_single_site(delta=1.0, g=0.2, dim=40)
    ev = op.eigenvalues(5)
    # lowest levels of the convergent regime carry exactly zero
    # imaginary part thanks to the real gauge-rotated bands
    assert np.abs(ev.imag).max() == 0.0


def test_swanson_matches_bogoliubov_oracle():
    delta, g, gtilde = 2.0, 0.3, 0.2
    op = spectra.swanson_model(delta, g, gtilde, dim=80)
    assert spectra.is_pt_symmetric_fock(op)
    ev = op.eigenvalues(6)
    ref = bilinear_levels(delta, g, gtilde, 6)
    assert np.abs(np.sort(ev.real) - np.sort(ref.real)).max() < 1e-10
    assert np.abs(ev.imag).max() < 1e-10


FOCK_MODELS = {
    "reggeon(2,0.3)": lambda d: spectra.reggeon_single_site(2.0, 0.3, d),
    "swanson(2,0.3,0.2)": lambda d: spectra.swanson_model(2.0, 0.3, 0.2, d),
    "swanson(2,0.5,0.3)": lambda d: spectra.swanson_model(2.0, 0.5, 0.3, d),
    # the reggeon CLI default: three conjugate pairs among its ten levels
    "reggeon(1,1)": lambda d: spectra.reggeon_single_site(1.0, 1.0, d),
}


@pytest.mark.parametrize("dim", [40, 80, 120, 160, 200, 240, 260])
@pytest.mark.parametrize("model", list(FOCK_MODELS))
def test_fock_levels_match_dense_oracle(model, dim):
    op = FOCK_MODELS[model](dim)
    ev = op.eigenvalues(10)
    ref, bound = _dense_levels_and_bound(op.matrix)
    _assert_near(ev, ref, bound)
    # the same levels as the oracle's ten of smallest modulus (a conjugate
    # pair may come in either order there)
    assert (np.abs(np.abs(ev) - np.abs(ref[:10])) <= bound[:10]).all()
    # exactly real levels, and complex ones only as exact conjugate pairs
    pairs = ev[ev.imag != 0]
    assert np.array_equal(pairs[1::2], pairs[0::2].conj())
    if model != "reggeon(1,1)":
        assert not ev.imag.any()


def test_conjugate_pairs_list_negative_imaginary_part_first():
    build = FOCK_MODELS["reggeon(1,1)"]
    ev = build(80).eigenvalues(10)
    assert np.count_nonzero(ev.imag) == 6
    assert (np.diff(np.abs(ev)) >= 0).all()
    assert (ev[ev.imag != 0][0::2].imag < 0).all()
    rep = spectra.fock_report(build, 80, k=10)
    assert rep.pairing == {4: 5, 5: 4, 6: 7, 7: 6, 8: 9, 9: 8}


def test_reggeon_report_keeps_the_pair_at_k(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the partner cost a dense solve")

    # the partner comes from an ARPACK solve for one more level
    monkeypatch.setattr(sla, "eigvals", refuse)
    # the fifth level by modulus is 11.4342 - 3.2192i; its partner is sixth
    rep = spectra.fock_report(FOCK_MODELS["reggeon(1,1)"], 80, k=5)
    ev = rep.eigenvalues
    assert ev.size == 6 and ev[5] == ev[4].conj()
    assert abs(ev[4] - (11.4342 - 3.2192j)) < 1e-4
    assert rep.classification is spectra.Classification.CONJUGATE_PAIRS
    assert len(rep.diagnostics["change"]) == 6


# at dim 12 the pair's partner comes from the dense solve that takes over
# at m >= dim - 1
@pytest.mark.parametrize("dim", [12, 40, 80])
@pytest.mark.parametrize("delta, g", [(1.0, 1.0), (1.0, 3.0), (2.0, 3.0)])
def test_levels_never_end_on_half_a_conjugate_pair(delta, g, dim):
    op = spectra.reggeon_single_site(delta, g, dim)
    ref, bound = _dense_levels_and_bound(op.matrix)
    for k in range(1, min(15, dim) + 1):
        ev = op.eigenvalues(k)
        assert np.array_equal(np.sort_complex(ev), np.sort_complex(ev.conj())), k
        # one level more only to complete a pair the k-th opens
        assert ev.size == k + (ev[k - 1].imag < 0), k
        assert (np.abs(np.abs(ev) - np.abs(ref[:ev.size])) <= bound[:ev.size]).all(), k


def test_fock_report_flags_a_level_only_one_truncation_gives():
    class Fixed:
        def __init__(self, ev):
            self.ev = np.array(ev)

        def eigenvalues(self, k):
            return self.ev

    levels = {40: [1.0, 2.0 - 1j, 2.0 + 1j], 60: [1.0, 2.5]}
    rep = spectra.fock_report(lambda d: Fixed(levels[d]), 40, k=2)
    assert rep.eigenvalues.size == 3
    assert len(rep.diagnostics["change"]) == 2
    assert rep.diagnostics["flagged"] == [1, 2]


def test_fock_report_calls_no_dense_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver on the Fock path")

    monkeypatch.setattr(sla, "eigvals", refuse)
    monkeypatch.setattr(sla, "eig", refuse)
    for build in (FOCK_MODELS["reggeon(2,0.3)"], FOCK_MODELS["swanson(2,0.3,0.2)"]):
        rep = spectra.fock_report(build, 240, k=10)
        assert rep.classification is spectra.Classification.ALL_REAL


@pytest.mark.parametrize("dim", [100, 120])
def test_fock_levels_are_those_of_smallest_modulus(dim):
    # broken-phase Swanson: levels lie far left of zero, so the ten nearest
    # the shift -1/2 are not the ten of smallest modulus
    op = spectra.swanson_model(0.5, 1.0, 1.0, dim)
    ev = op.eigenvalues(10)
    ref = reference_fock_eigenvalues(op.matrix)[0]
    assert np.abs(np.abs(ev) - np.abs(ref[:10])).max() < 1e-9
    assert np.abs(ref[np.abs(ref[None, :] - ev[:, None]).argmin(axis=1)] - ev).max() < 1e-9


def test_swanson_broken_phase_never_stabilizes():
    # 4 g gtilde > delta^2: the mode frequency turns imaginary.  The real
    # truncated matrix still has real eigenvalues at every finite dim, but
    # they never converge as the cutoff grows, which the truncation
    # diagnostic reports.
    assert abs(bilinear_levels(0.5, 1.0, 1.0, 1)[0].imag) > 0.5
    build = lambda d: spectra.swanson_model(0.5, 1.0, 1.0, d)
    rep = spectra.fock_report(build, 60, k=6)
    assert min(rep.diagnostics["change"]) > 1e-3


def test_truncation_diagnostics_flags_unstable_levels():
    build = lambda d: spectra.reggeon_single_site(1.0, 0.3, d)
    rep = spectra.fock_report(build, 60, k=10)
    assert rep.diagnostics["resolutions"] == [60, 80]
    change = np.array(rep.diagnostics["change"])
    # the report reuses its own dim-60 levels: bitwise the change of two solves
    assert np.array_equal(change, np.abs(build(80).eigenvalues(10)
                                         - build(60).eigenvalues(10)))
    # the low end of the spectrum is already stable, the top is not
    assert change[0] < 1e-8
    assert change.max() > 1e-3
    assert rep.diagnostics["flagged"]


def test_fock_dim_validation():
    with pytest.raises(ConfigurationError):
        spectra.reggeon_single_site(1.0, 0.1, dim=3)
    with pytest.raises(ConfigurationError):
        spectra.swanson_model(1.0, 0.1, 0.1, dim=2)


@pytest.mark.parametrize("dim", [40.5, 40.0, "40"])
def test_fock_dim_must_be_an_integer(dim):
    with pytest.raises(ConfigurationError, match="integer"):
        spectra.reggeon_single_site(1.0, 0.1, dim=dim)
    with pytest.raises(ConfigurationError, match="integer"):
        spectra.swanson_model(1.0, 0.1, 0.1, dim=dim)
    assert spectra.swanson_model(1.0, 0.1, 0.1, dim=np.int64(40)).bands.shape == (5, 40)


# ---------------------------------------------------------------------------
# the shared two-resolution report against the replaced ones
# ---------------------------------------------------------------------------

# (N, half_width, n_grid): the CLI defaults, grid-eig's three jobs and the
# six cells of scan-small's monomial sweep
MONOMIAL_CASES = [(2, 8.0, 1200), (3, 8.0, 1200), (4, 8.0, 1200),
                  (3, 8.0, 600), (4, 3.0, 1200), (2, 10.0, 800),
                  *((N, 6.0, n) for N in (2, 3, 4) for n in (150, 250))]

# (model, dim): the CLI defaults, scan-small's Fock and metric sweeps, and
# two reports with flagged levels (criterion 7's reggeon, broken Swanson)
FOCK_CASES = [("reggeon", 1.0, 1.0, None, 80), ("swanson", 1.0, 1.0, 0.0, 80),
              *((m, 2.0, 0.3, 0.2, d) for m in ("reggeon", "swanson")
                for d in (40, 80, 160, 240)),
              *(("swanson", 2.0, g, 0.2, d) for g in (0.5, 0.3) for d in (24, 40)),
              ("reggeon", 1.0, 0.3, None, 60), ("swanson", 0.5, 1.0, 1.0, 60)]


def _assert_same_report(rep, ref, old_change_key):
    assert np.array_equal(rep.eigenvalues, ref.eigenvalues)
    assert np.array_equal(rep.diagnostics["change"], ref.diagnostics[old_change_key])
    assert rep.diagnostics["flagged"] == ref.diagnostics["flagged"]
    assert rep.classification is ref.classification
    assert rep.pairing == ref.pairing


@pytest.mark.parametrize("N, half_width, n_grid", MONOMIAL_CASES)
def test_monomial_report_is_the_replaced_report_bitwise(N, half_width, n_grid):
    model = spectra.MonomialModel(N=N, half_width=half_width, n_grid=n_grid)
    rep = spectra.monomial_spectrum(model, k=10)
    _assert_same_report(rep, reference_monomial_report(model, k=10), "grid_change")
    assert rep.diagnostics["resolutions"] == [n_grid, 2 * n_grid - 1]


@pytest.mark.parametrize("model, delta, g, gtilde, dim", FOCK_CASES)
def test_fock_report_is_the_replaced_report_bitwise(model, delta, g, gtilde, dim):
    if model == "reggeon":
        build = lambda d: spectra.reggeon_single_site(delta, g, d)
    else:
        build = lambda d: spectra.swanson_model(delta, g, gtilde, d)
    rep = spectra.fock_report(build, dim, k=10)
    _assert_same_report(rep, reference_fock_report(build, dim, k=10),
                        "truncation_change")
    assert rep.diagnostics["resolutions"] == [dim, dim + 20]


# ---------------------------------------------------------------------------
# metric search
# ---------------------------------------------------------------------------

def test_metric_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    dim = 10
    H = spectra.swanson_model(1.5, 0.4, 0.1, dim).matrix
    basis = spectra.metric_ansatz_basis(dim)
    c0 = rng.normal(scale=0.1, size=3)
    r0, grad = spectra._metric_residual_and_grad(c0, H, basis)
    h = 1e-6
    for k in range(3):
        dc = np.zeros(3)
        dc[k] = h
        rp, _ = spectra._metric_residual_and_grad(c0 + dc, H, basis)
        rm, _ = spectra._metric_residual_and_grad(c0 - dc, H, basis)
        assert grad[k] == pytest.approx((rp - rm) / (2 * h), rel=1e-4, abs=1e-6)


@pytest.mark.parametrize("n_generators", [1, 3])
@pytest.mark.parametrize("dim", [24, 40, 80])
@pytest.mark.parametrize("model", ["swanson", "reggeon"])
def test_metric_objective_matches_reference(model, dim, n_generators):
    op = (spectra.swanson_model(2.0, 0.5, 0.3, dim) if model == "swanson"
          else spectra.reggeon_single_site(1.0, 0.3, dim))
    # the generator basis in the scaled coordinates that metric_search uses;
    # the objective takes any list of generators, and with N alone A is
    # diagonal
    basis = [B / (1.0 + np.linalg.norm(B, 2))
             for B in spectra.metric_ansatz_basis(dim)[:n_generators]]
    rng = np.random.default_rng(dim + n_generators)
    # at the origin every eigenvalue of A is 0: only the limit branch of
    # the divided differences runs
    for c in (np.zeros(n_generators), rng.normal(size=n_generators)):
        r2, grad = spectra._metric_residual_and_grad(c, op.matrix, basis)
        r2_ref, grad_ref = reference_metric_objective(c, op.matrix, basis)
        assert abs(r2 - r2_ref) <= 1e-12 * r2_ref
        assert np.abs(grad - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()
        _, jtj, _ = spectra._metric_normal_equations(c, op.matrix, basis)
        _, jtj_ref, _ = reference_metric_normal_equations(c, op.matrix, basis)
        assert np.abs(jtj - jtj_ref).max() <= 1e-12 * np.abs(jtj_ref).max()


def test_metric_objective_overflow_steers_back():
    op = spectra.swanson_model(2.0, 0.5, 0.3, 40)
    basis = spectra.metric_ansatz_basis(40)
    c = np.array([0.0, 40.0, 0.0])
    r2, grad = spectra._metric_residual_and_grad(c, op.matrix, basis)
    assert r2 == 1e60
    assert np.array_equal(grad, c * 1e60)
    # the search rejects such a step
    assert spectra._metric_normal_equations(c, op.matrix, basis) == (np.inf, None, None)


def test_metric_search_makes_at_most_one_exponential(monkeypatch):
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("expm", "expm_frechet"):
        monkeypatch.setattr(spectra.sla, name, counting(getattr(spectra.sla, name)))
    op = spectra.swanson_model(2.0, 0.3, 0.2, 24)
    basis = spectra.metric_ansatz_basis(24)
    spectra._metric_residual_and_grad(np.full(3, 0.1), op.matrix, basis)
    assert calls == []
    res = spectra.metric_search(op)
    assert res.converged and res.positive
    assert len(calls) <= 1


def test_metric_search_runs_on_numpys_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy's eigh in the metric search")

    monkeypatch.setattr(sla, "eigh", refuse)
    res = spectra.metric_search(spectra.swanson_model(2.0, 0.5, 0.2, 40))
    assert res.converged and res.positive and res.stop == "floor"


# the four searches of the benchmark's metric sweep
SCAN_METRIC_CELLS = [(0.5, 24), (0.5, 40), (0.3, 24), (0.3, 40)]


@pytest.mark.parametrize("g, dim", SCAN_METRIC_CELLS)
def test_metric_search_matches_reference_objective(monkeypatch, g, dim):
    # one Levenberg-Marquardt loop on both objectives, from one start; the
    # coefficients are fixed only to about 1e-8 near a metric, where the
    # residual grows as the square of a squeeze coefficient, so two
    # different optimizers' stopping points are no reference at 1e-8
    op = spectra.swanson_model(2.0, g, 0.2, dim)
    res = spectra.metric_search(op)
    monkeypatch.setattr(spectra, "_metric_normal_equations",
                        reference_metric_normal_equations)
    ref = spectra.metric_search(op)
    assert res.converged and res.positive
    assert res.coefficients[0] == pytest.approx(ref.coefficients[0], abs=1e-8)


@pytest.mark.parametrize("g, dim", SCAN_METRIC_CELLS)
def test_metric_search_improves_on_replaced_search(g, dim):
    # L-BFGS-B stopped at r^2 near 1e-18; Levenberg-Marquardt goes on to
    # the rounding floor in about half the evaluations
    op = spectra.swanson_model(2.0, g, 0.2, dim)
    res = spectra.metric_search(op)
    old_resid, old_coeffs, old_nfev = reference_metric_search(op.matrix)
    assert res.stop == "floor"
    assert res.residual <= 1e-11 < old_resid < 1e-8
    assert res.nfev < old_nfev
    assert res.coefficients == pytest.approx(old_coeffs, abs=1e-5)


@pytest.mark.parametrize("g, dim", SCAN_METRIC_CELLS)
def test_metric_search_agrees_with_biorthogonal_metric(g, dim):
    op = spectra.swanson_model(2.0, g, 0.2, dim)
    H = op.matrix
    eta = spectra.metric_search(op).eta
    eta_bi = biorthogonal_metric(H)
    h = eta @ H @ np.linalg.inv(eta)
    assert np.linalg.norm(h - h.conj().T) <= 1e-11 * np.linalg.norm(H)
    assert spectra.similarity_spectrum_check(op, eta) < 1e-8
    assert spectra.similarity_spectrum_check(op, eta_bi) < 1e-8
    # eta^2 = e^(2A) and eta_bi both map H to H^+
    for metric in (eta @ eta, eta_bi):
        hd = metric @ H @ np.linalg.inv(metric)
        assert np.linalg.norm(hd - H.conj().T) <= 1e-10 * np.linalg.norm(H)


# the scan-small metric cells and criterion 8's model
@pytest.mark.parametrize("g, gtilde, dim",
                         [(g, 0.2, dim) for g, dim in SCAN_METRIC_CELLS] + [(0.5, 0.3, 40)])
def test_metric_search_finds_exact_swanson_metric(g, gtilde, dim):
    op = spectra.swanson_model(2.0, g, gtilde, dim)
    H = op.matrix
    eta_exact = swanson_metric(g, gtilde, dim)
    h = eta_exact @ H @ np.linalg.inv(eta_exact)
    assert np.abs(h - h.T).max() <= 8 * np.finfo(float).eps * np.abs(H).max()
    res = spectra.metric_search(op)
    assert res.converged and res.positive and res.stop == "floor"
    # the search stops at the rounding floor r = 50 eps |H|_F.  At the exact
    # metric [N, h] and [a^2 + a+^2, h] are parallel, so the Jacobian is
    # singular along one direction, where the residual grows only as K d^2
    # in the coefficient error d (K = 30-600 on these cells).  r <= floor
    # therefore pins each coefficient to sqrt(floor / K) < sqrt(floor),
    # about 1e-6, not to the floor itself
    pin = np.sqrt(50.0 * np.finfo(float).eps * np.linalg.norm(H))
    exact = np.array([0.25 * np.log(gtilde / g), 0.0, 0.0])
    assert np.abs(res.coefficients - exact).max() <= pin
    # eta = e^A with A Hermitian: |d e^A|_2 <= e^(max L) |dA|_2 to first
    # order, and |dA|_2 <= pin * sum_k |B_k|_2 over the ansatz generators
    da = pin * sum(np.linalg.norm(B, 2) for B in spectra.metric_ansatz_basis(dim))
    assert (np.linalg.norm(res.eta - eta_exact, 2)
            <= da * np.linalg.norm(eta_exact, 2))
    # each of max L and min L moves by at most |dA|_2 (Weyl), so the reported
    # condition number lies within e^(2 |dA|_2) of the exact e^(|c| (dim - 1))
    assert abs(np.log(res.condition) - abs(exact[0]) * (dim - 1)) <= 2.0 * da


def test_metric_search_full_ansatz_and_similarity():
    op = spectra.swanson_model(2.0, 0.3, 0.2, 24)
    res = spectra.metric_search(op)
    assert res.converged and res.positive and res.stop == "floor"
    assert res.residual < 1e-7
    assert spectra.similarity_spectrum_check(op, res.eta) < 1e-8
    transformed = res.eta @ op.matrix @ np.linalg.inv(res.eta)
    assert np.abs(transformed - transformed.T.conj()).max() < 1e-6


def test_metric_condition_is_etas():
    # the scan-small Swanson searches: condition numbers from 10 to 7.6e3
    for g, dim in [(0.3, 24), (0.5, 40)]:
        res = spectra.metric_search(spectra.swanson_model(2.0, g, 0.2, dim))
        assert res.condition == pytest.approx(np.linalg.cond(res.eta), rel=1e-8)
        assert res.condition > 5.0 and res.positive


def test_unconverged_metric_search_claims_no_metric():
    # the CLI's reggeon default: the ansatz cannot Hermitize it (residual
    # about 9e3), though its eta = e^A is positive definite and well conditioned
    res = spectra.metric_search(spectra.reggeon_single_site(1.0, 1.0, 80))
    assert not res.converged and res.condition < 10.0
    assert not res.positive
    # the search sees that it has settled well before its evaluation cap
    assert res.stop == "stall" and res.nfev < spectra.METRIC_MAX_NFEV


def test_metric_search_without_a_metric_stalls():
    # the CLI's Swanson default, g~ = 0, has no metric: the search ends
    # where no step can move r^2, with r about 121, far above the
    # tolerance, so rounding is not what stopped it
    res = spectra.metric_search(spectra.swanson_model(1.0, 1.0, 0.0, 80))
    assert not res.converged and not res.positive and res.residual > 1.0
    assert res.stop == "stall" and res.nfev < spectra.METRIC_MAX_NFEV


def test_metric_search_reports_cap(monkeypatch):
    monkeypatch.setattr(spectra, "METRIC_MAX_NFEV", 5)
    res = spectra.metric_search(spectra.swanson_model(2.0, 0.3, 0.2, 24))
    assert res.stop == "cap" and res.nfev == 5 and not res.converged


@pytest.mark.parametrize("delta", [2.0, 0.0])
def test_metric_search_on_hermitian_input(delta):
    # H = delta N (or 0) is Hermitian already, and the N direction barely
    # moves R here: undamped by a floor, it takes a huge step
    res = spectra.metric_search(spectra.swanson_model(delta, 0.0, 0.0, 24))
    assert res.converged and res.positive and res.stop == "floor"


def test_metric_ansatz_validation():
    assert all(np.abs(B - B.T.conj()).max() < 1e-14
               for B in spectra.metric_ansatz_basis(10))
