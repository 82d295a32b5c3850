"""Deformed many-body systems: identities, dynamics and Lax pairs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (rational_calogero_lax_reference, reference_equations_of_motion,
                     reference_lax)
from ptlab import cms
from ptlab.errors import SingularConfigError
from ptlab.rootsys import build_cartan_weyl, build_root_system


def random_state(rng, rs, potential, q_scale=2.0):
    """Nonsingular (q, p) by rejection sampling."""
    for _ in range(500):
        q = rng.uniform(-q_scale, q_scale, size=rs.dim)
        p = rng.uniform(-1.0, 1.0, size=rs.dim)
        if potential.hyperplane_distance(rs.roots @ q).min() > 0.25:
            return q, p
    raise RuntimeError("sampling failed")


def make(family, rank, potential="rational", g=1.1, gtilde=0.7, **kw):
    rs = build_root_system(family, rank)
    couplings = cms.OrbitCouplings(g_short=g, gtilde_short=gtilde, **kw)
    zero = np.zeros(rs.dim)
    return cms.CMSSystem(root_system=rs, potential=cms.PotentialKind(potential),
                         couplings=couplings, q=zero, p=zero)


# ---------------------------------------------------------------------------
# couplings and potentials
# ---------------------------------------------------------------------------

def test_effective_couplings_simply_laced():
    sys = make("A", 2, g=1.0, gtilde=1.0)
    eff = cms.effective_couplings(sys.couplings, sys.root_system)
    # |alpha|^2 = 2 for the A series: ghat^2 = g^2 + gtilde^2
    assert eff == {"short": pytest.approx(2.0)}


def test_effective_couplings_two_orbits():
    sys = make("B", 2, g=1.0, gtilde=1.0, g_long=2.0, gtilde_long=0.5)
    eff = cms.effective_couplings(sys.couplings, sys.root_system)
    assert eff["short"] == pytest.approx(1.0 + 0.5 * 1.0 * 1.0)
    assert eff["long"] == pytest.approx(4.0 + 0.5 * 2.0 * 0.25)


@pytest.mark.parametrize("kind", list(cms.PotentialKind))
def test_potential_derivative_consistency(kind):
    x = np.linspace(0.4, 1.2, 7)
    h = 1e-6
    assert np.allclose((kind.f(x + h) - kind.f(x - h)) / (2 * h),
                       kind.fprime(x), atol=1e-6)
    assert np.allclose(kind.V(x), kind.f(x) ** 2)
    assert np.allclose((kind.V(x + h) - kind.V(x - h)) / (2 * h),
                       kind.Vprime(x), atol=1e-5)


def test_trigonometric_distance_is_mod_pi():
    k = cms.PotentialKind.TRIGONOMETRIC
    assert k.hyperplane_distance(np.pi + 0.01) == pytest.approx(0.01)
    assert k.hyperplane_distance(-3 * np.pi - 0.2) == pytest.approx(0.2)


def test_singular_configuration_rejected():
    sys = make("A", 2)
    q = np.array([1.0, 1.0, 0.0])      # on the e_1 - e_2 hyperplane
    with pytest.raises(SingularConfigError):
        cms.hamiltonian(sys, q, np.zeros(3))


# ---------------------------------------------------------------------------
# the mu-vector identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2)])
def test_mu_identity_rational(family, rank):
    rng = np.random.default_rng(7)
    sys = make(family, rank)
    for _ in range(25):
        q, p = random_state(rng, sys.root_system, sys.potential)
        assert cms.verify_mu_identity(sys.at(q, p)) < 1e-10


@pytest.mark.parametrize("potential", ["trigonometric", "hyperbolic"])
def test_mu_identity_fails_otherwise(potential):
    rng = np.random.default_rng(8)
    sys = make("A", 2, potential=potential)
    n_large = 0
    for _ in range(25):
        q, p = random_state(rng, sys.root_system, sys.potential)
        if cms.verify_mu_identity(sys.at(q, p)) > 1e-3:
            n_large += 1
    assert n_large >= 24


# ---------------------------------------------------------------------------
# Hamiltonian forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2)])
def test_deformed_equals_bilinear_form_rational(family, rank):
    rng = np.random.default_rng(9)
    sys = make(family, rank)
    for _ in range(20):
        q, p = random_state(rng, sys.root_system, sys.potential)
        s = sys.at(q, p)
        assert abs(cms.hamiltonian(s) - cms.hamiltonian_undeformed_form(s)) < 1e-10


@pytest.mark.parametrize("potential", ["rational", "trigonometric", "hyperbolic"])
def test_shifted_equivalence_all_potentials(potential):
    rng = np.random.default_rng(10)
    sys = make("A", 2, potential=potential)
    for _ in range(20):
        q, p = random_state(rng, sys.root_system, sys.potential)
        assert cms.shifted_equivalence(sys.at(q, p)) < 1e-10


@pytest.mark.parametrize("ell", [2, 3])
def test_particle_coordinate_form_matches(ell):
    rng = np.random.default_rng(11)
    sys = make("A", ell, g=0.9, gtilde=0.4)
    for _ in range(20):
        q, p = random_state(rng, sys.root_system, sys.potential)
        direct = cms.basu_mallick_kundu_form(ell, 0.0, 0.9, 0.4, q, p)
        assert abs(direct - cms.hamiltonian_undeformed_form(sys.at(q, p))) < 1e-10


def test_real_spectrum_form_on_real_phase_space_is_complex():
    # the bilinear i mu.p term makes H complex pointwise on real states
    rng = np.random.default_rng(12)
    sys = make("A", 2)
    q, p = random_state(rng, sys.root_system, sys.potential)
    H = cms.hamiltonian(sys.at(q, p))
    assert abs(H.imag) > 1e-8


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def test_equations_of_motion_match_hamiltonian_gradient():
    rng = np.random.default_rng(13)
    sys = make("A", 2)
    q, p = random_state(rng, sys.root_system, sys.potential)
    qd, pd = cms.equations_of_motion(sys, q, p)
    h = 1e-6
    for i in range(3):
        dq = np.zeros(3)
        dq[i] = h
        dHdq = (cms.hamiltonian(sys, q + dq, p) - cms.hamiltonian(sys, q - dq, p)) / (2 * h)
        dHdp = (cms.hamiltonian(sys, q, p + dq) - cms.hamiltonian(sys, q, p - dq)) / (2 * h)
        assert qd[i] == pytest.approx(dHdp, abs=1e-6)
        assert pd[i] == pytest.approx(-dHdq, abs=1e-6)


@pytest.mark.parametrize("potential", ["rational", "trigonometric", "hyperbolic"])
@pytest.mark.parametrize("family, rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                          ("C", 2), ("C", 3)])
def test_equations_of_motion_match_reference(family, rank, potential):
    rng = np.random.default_rng(19)
    # distinct long-orbit couplings where the system has long roots
    sys = make(family, rank, potential=potential, g_long=0.6, gtilde_long=1.3)
    for _ in range(5):
        q, p = random_state(rng, sys.root_system, sys.potential)
        q = q + 0.05j * rng.normal(size=q.size)
        p = p + 0.3j * rng.normal(size=p.size)
        got = cms.equations_of_motion(sys, q, p)
        ref = reference_equations_of_motion(sys, q, p)
        for a, b in zip(got, ref):
            assert np.abs(a - b).max() <= 1e-13 * (1.0 + np.abs(b).max())
    with pytest.raises(SingularConfigError):
        cms.equations_of_motion(sys, np.zeros(sys.dim), p)


def test_trajectory_conserves_energy():
    rng = np.random.default_rng(14)
    sys = make("A", 2)
    q, p = random_state(rng, sys.root_system, sys.potential)
    traj = cms.integrate_trajectory(sys.at(q, p), dt=1e-3, n_steps=500,
                                    record_every=50)
    assert traj.completed
    drift = np.abs(traj.energy - traj.energy[0]).max()
    assert drift < 1e-8 * max(1.0, abs(traj.energy[0]))


def test_trajectory_partial_near_singular_start():
    # the repulsive core keeps honest flows away from the hyperplanes, so
    # the abort path is exercised by starting inside the guard band
    rs = build_root_system("A", 1)
    sys = cms.CMSSystem(root_system=rs, potential=cms.PotentialKind.RATIONAL,
                        couplings=cms.OrbitCouplings(g_short=1.0, gtilde_short=0.5),
                        q=np.array([4e-7, -4e-7]), p=np.array([-2.0, 2.0]))
    traj = cms.integrate_trajectory(sys, dt=1e-3, n_steps=50)
    assert not traj.completed
    assert traj.error


# ---------------------------------------------------------------------------
# Lax pairs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("potential", ["rational", "trigonometric", "hyperbolic"])
def test_lax_closes_for_A2(potential):
    rng = np.random.default_rng(15)
    sys = make("A", 2, potential=potential)
    basis = build_cartan_weyl(sys.root_system)
    for _ in range(10):
        q, p = random_state(rng, sys.root_system, sys.potential)
        assert cms.lax_residual(sys.at(q, p), basis) < 1e-8


def test_lax_matches_textbook_rational_calogero():
    # gtilde = 0, A_2 rational: L reduces to the classical Calogero matrix
    rng = np.random.default_rng(16)
    sys = make("A", 2, g=0.8, gtilde=0.0)
    basis = build_cartan_weyl(sys.root_system)
    q, p = random_state(rng, sys.root_system, sys.potential)
    pair = cms.lax_pair(sys.at(q, p), basis)
    ref = rational_calogero_lax_reference(q, 0.8) + np.diag(p)
    assert np.abs(pair.L - ref).max() < 1e-10


@pytest.mark.parametrize("potential", ["rational", "trigonometric", "hyperbolic"])
@pytest.mark.parametrize("family, rank", [("A", 2), ("A", 3), ("B", 3), ("C", 3),
                                          ("D", 4)])
def test_lax_matches_reference(family, rank, potential):
    rng = np.random.default_rng(20)
    sys = make(family, rank, potential=potential, g_long=0.6, gtilde_long=1.3)
    basis = build_cartan_weyl(sys.root_system)
    for _ in range(10):
        q, p = random_state(rng, sys.root_system, sys.potential)
        s = sys.at(q + 0.05j * rng.normal(size=q.size),
                   p + 0.3j * rng.normal(size=p.size))
        pair = cms.lax_pair(s, basis)
        L, M, m, residual = reference_lax(s, basis)
        for got, ref in ((pair.L, L), (pair.M, M), (pair.m, m)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        # the residual is a difference of commutator terms of size |L| |M|
        scale = max(residual, np.linalg.norm(L) * np.linalg.norm(M))
        assert abs(cms.lax_residual(s, basis) - residual) <= 1e-13 * scale


def test_one_singularity_check_per_evaluation(monkeypatch):
    sys = make("B", 3, potential="trigonometric", g_long=0.6, gtilde_long=1.3)
    basis = build_cartan_weyl(sys.root_system)
    q, p = random_state(np.random.default_rng(21), sys.root_system, sys.potential)
    s = sys.at(q, p)
    calls = []
    check = cms._check_nonsingular

    def counted(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(cms, "_check_nonsingular", counted)
    for evaluate in (lambda: cms.lax_residual(s, basis),
                     lambda: cms.conserved_charges(s, basis, 3),
                     lambda: cms.hamiltonian(s),
                     lambda: cms.equations_of_motion(s)):
        calls.clear()
        evaluate()
        assert len(calls) == 1


def test_charges_constant_along_flow():
    rng = np.random.default_rng(17)
    sys = make("A", 2)
    basis = build_cartan_weyl(sys.root_system)
    q, p = random_state(rng, sys.root_system, sys.potential)
    traj = cms.integrate_trajectory(sys.at(q, p), dt=1e-3, n_steps=400,
                                    record_every=100)
    assert traj.completed
    charges = np.array([cms.conserved_charges(sys.at(traj.q[i], traj.p[i]),
                                              basis, 3)
                        for i in range(len(traj.times))])
    rel = np.abs(charges - charges[0]).max(axis=0) / (1.0 + np.abs(charges[0]))
    assert rel.max() < 1e-7


def test_second_charge_equals_hamiltonian():
    rng = np.random.default_rng(18)
    sys = make("A", 2)
    basis = build_cartan_weyl(sys.root_system)
    q, p = random_state(rng, sys.root_system, sys.potential)
    s = sys.at(q, p)
    charges = cms.conserved_charges(s, basis, 2)
    assert abs(charges[1] - cms.hamiltonian(s)) < 1e-10


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=15, deadline=None)
def test_mu_identity_rational_property(seed):
    rng = np.random.default_rng(seed)
    sys = make("A", 2, g=float(rng.uniform(0.2, 2.0)),
               gtilde=float(rng.uniform(0.2, 2.0)))
    q, p = random_state(rng, sys.root_system, sys.potential)
    assert cms.verify_mu_identity(sys.at(q, p)) < 1e-10
