"""Deformed many-body systems: identities, dynamics and Lax pairs."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (cartan_weyl_lax, rational_calogero_lax_reference,
                     rational_calogero_trajectory, reference_equations_of_motion,
                     reference_f_fprime, reference_lax, reference_rk4_trajectory,
                     reference_trajectory_rhs)
from ptlab import _stepping, cli, cms
from ptlab.errors import CapabilityError, PTLabError, SingularConfigError
from ptlab.rootsys import build_root_system


def random_state(rng, rs, potential, q_scale=2.0):
    """Nonsingular (q, p) by rejection sampling."""
    for _ in range(500):
        q = rng.uniform(-q_scale, q_scale, size=rs.dim)
        p = rng.uniform(-1.0, 1.0, size=rs.dim)
        if potential.hyperplane_distance(rs.roots @ q).min() > 0.25:
            return q, p
    raise RuntimeError("sampling failed")


# long couplings distinct from the short ones; simply laced systems ignore them
LONG = dict(g_long=1.6, gtilde_long=0.35)


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
    # |alpha|^2 = 2 for the A series: ghat^2 = g^2 + gtilde^2 on every root
    assert eff.shape == (6,)
    assert np.all(eff == pytest.approx(2.0))


def test_effective_couplings_two_orbits():
    sys = make("B", 2, g=1.0, gtilde=1.0, g_long=2.0, gtilde_long=0.5)
    rs = sys.root_system
    eff = cms.effective_couplings(sys.couplings, rs)
    assert np.all(eff[~rs.long] == pytest.approx(1.0 + 0.5 * 1.0 * 1.0))
    assert np.all(eff[rs.long] == pytest.approx(4.0 + 0.5 * 2.0 * 0.25))
    g, gtilde = sys.couplings.per_root(rs)
    assert np.array_equal(g, np.where(rs.long, 2.0, 1.0))
    assert np.array_equal(gtilde, np.where(rs.long, 0.5, 1.0))
    # the system carries the same arrays, read-only, to every point
    moved = sys.at(np.arange(1.0, 3.0), np.ones(2))
    for s in (sys, moved):
        assert np.array_equal(s.ghat_sq, eff) and np.array_equal(s.gtilde, gtilde)
        assert np.allclose(s.ghat ** 2, eff, rtol=1e-15, atol=0)
        assert not s.ghat.flags.writeable


@pytest.mark.parametrize("family, potential", [("A", "hyperbolic"), ("B", "trigonometric")])
def test_at_shares_couplings_and_matches_a_fresh_system(family, potential):
    sys = make(family, 3, potential=potential, **LONG)
    q = np.array([0.3, 1.1, 2.0, -1.4])[:sys.dim]
    p = np.array([0.2, -0.4, 0.5, -0.3])[:sys.dim]
    moved = sys.at(q, p)
    for name in ("g", "gtilde", "ghat_sq", "ghat"):
        assert getattr(moved, name) is getattr(sys, name)
    assert not sys.q.any() and not sys.p.any()
    fresh = cms.CMSSystem(root_system=sys.root_system, potential=sys.potential,
                          couplings=sys.couplings, q=q, p=p)
    assert cms.hamiltonian(moved) == cms.hamiltonian(fresh)
    if family in cms.LAX_FAMILIES:
        assert cms.lax_residual(moved) == cms.lax_residual(fresh)


def test_unset_long_couplings_take_the_short_values():
    sys = make("C", 3, g=0.8, gtilde=0.6)
    g, gtilde = sys.couplings.per_root(sys.root_system)
    assert np.all(g == 0.8) and np.all(gtilde == 0.6)


@pytest.mark.parametrize("kind", list(cms.PotentialKind))
def test_potential_derivative_consistency(kind):
    x = np.linspace(0.4, 1.2, 7)
    h = 1e-6
    assert np.allclose((kind.f(x + h) - kind.f(x - h)) / (2 * h),
                       kind.f_fprime(x)[1], atol=1e-6)


@pytest.mark.parametrize("kind", list(cms.PotentialKind))
def test_f_fprime_is_f_and_fprime_bitwise(kind):
    rng = np.random.default_rng(11)
    x = rng.uniform(0.3, 2.5, 40) * rng.choice([-1.0, 1.0], 40) + 1j * rng.normal(0.0, 0.4, 40)
    f, fp = kind.f_fprime(x)
    ref_f, ref_fp = reference_f_fprime(kind, x)
    for got, ref in ((f, kind.f(x)), (f, ref_f), (fp, ref_fp)):
        assert got.dtype == complex and got.tobytes() == ref.tobytes()


def test_trigonometric_distance_is_mod_pi():
    k = cms.PotentialKind.TRIGONOMETRIC
    assert k.hyperplane_distance(np.pi + 0.01) == pytest.approx(0.01)
    assert k.hyperplane_distance(-3 * np.pi - 0.2) == pytest.approx(0.2)


def test_singular_configuration_rejected():
    sys = make("A", 2)
    q = np.array([1.0, 1.0, 0.0])      # on the e_1 - e_2 hyperplane
    with pytest.raises(SingularConfigError):
        cms.hamiltonian(sys.at(q, np.zeros(3)))


# ---------------------------------------------------------------------------
# the mu-vector identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2),
                                         ("C", 3), ("D", 4), ("G2", 2)])
def test_mu_identity_rational(family, rank):
    rng = np.random.default_rng(7)
    sys = make(family, rank, **LONG)
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

@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2),
                                         ("C", 3), ("D", 4), ("G2", 2)])
def test_deformed_equals_bilinear_form_rational(family, rank):
    rng = np.random.default_rng(9)
    sys = make(family, rank, **LONG)
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


def test_bad_shapes_and_counts_fail_like_other_engines():
    # a PTLabError, which the CLI turns into an exit code, not a traceback
    sys = make("A", 2)
    q, p = random_state(np.random.default_rng(13), sys.root_system, sys.potential)
    for evaluate, message in [
            (lambda: sys.at(q, p[:2]), "root representation dimension"),
            (lambda: cms.conserved_charges(sys.at(q, p), 0), "k_max"),
            (lambda: cms.basu_mallick_kundu_form(2, 0.0, 0.9, 0.4, q[:2], p[:2]),
             "length ell\\+1")]:
        with pytest.raises(PTLabError, match=message):
            evaluate()


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
    qd, pd = cms.equations_of_motion(sys.at(q, p))
    h = 1e-6
    for i in range(3):
        dq = np.zeros(3)
        dq[i] = h
        dHdq = (cms.hamiltonian(sys.at(q + dq, p))
                - cms.hamiltonian(sys.at(q - dq, p))) / (2 * h)
        dHdp = (cms.hamiltonian(sys.at(q, p + dq))
                - cms.hamiltonian(sys.at(q, p - dq))) / (2 * h)
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
        got = cms.equations_of_motion(sys.at(q, p))
        ref = reference_equations_of_motion(sys, q, p)
        for a, b in zip(got, ref):
            assert np.abs(a - b).max() <= 1e-13 * (1.0 + np.abs(b).max())
    with pytest.raises(SingularConfigError):
        cms.equations_of_motion(sys.at(np.zeros(sys.dim), p))


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


def cli_state(family, rank, potential, seed=7):
    """The CLI's trajectory start at g = 1, gtilde = 0.5 and the given seed."""
    sys = make(family, rank, potential=potential, g=1.0, gtilde=0.5)
    return sys.at(*cli._random_cms_state(np.random.default_rng(seed), sys))


def count_checks(monkeypatch, fail_after=None):
    """Count `_check_nonsingular` calls; optionally refuse after that many."""
    calls = []
    check = cms._check_nonsingular

    def counted(*args, **kwargs):
        calls.append(1)
        if fail_after is not None and len(calls) > fail_after:
            raise SingularConfigError("refused by the test")
        return check(*args, **kwargs)

    monkeypatch.setattr(cms, "_check_nonsingular", counted)
    return calls


@pytest.mark.parametrize("family, rank, potential", [("A", 2, "rational"),
                                                     ("A", 3, "hyperbolic")])
def test_trajectory_matches_reference_rk4(family, rank, potential):
    # on smooth runs RK4 at dt 1e-3 is itself accurate to about 1e-9
    s = cli_state(family, rank, potential)
    got = cms.integrate_trajectory(s, dt=1e-3, n_steps=1000, record_every=100)
    ref = reference_rk4_trajectory(s, dt=1e-3, n_steps=1000, record_every=100)
    assert got.completed and ref.completed
    assert got.times.tobytes() == ref.times.tobytes()
    assert np.abs(got.q - ref.q).max() < 1e-8
    assert np.abs(got.p - ref.p).max() < 1e-8


# (g, gtilde) with ghat^2 = g^2 + gtilde^2 = 1.7, 0.81 and -0.21
@pytest.mark.parametrize("g, gtilde", [(1.1, 0.7), (0.0, 0.9), (0.2, 0.5j)])
@pytest.mark.parametrize("rank", [2, 3, 4])
def test_rational_trajectory_matches_projection_oracle(rank, g, gtilde):
    # the deformed rational A flow is the Calogero flow with coupling ghat
    # and the complex start velocity qdot0 = p0 + i mu(q0), whose positions
    # are exact eigenvalues; real parts start 1.5 apart, so none comes near
    # the singular-hyperplane guard by t = 2
    rng = np.random.default_rng(30 + rank)
    n = rank + 1
    sys = make("A", rank, g=g, gtilde=gtilde)
    q0 = 1.5 * np.arange(n) + rng.uniform(-0.2, 0.2, n) + 0.3j * rng.normal(size=n)
    p0 = rng.uniform(-0.3, 0.3, n) + 0.2j * rng.normal(size=n)
    traj = cms.integrate_trajectory(sys.at(q0, p0), dt=0.01, n_steps=200, record_every=20)
    assert traj.completed and traj.times[-1] == 2.0
    # mu_j = gtilde sum_(k != j) 1/(q_j - q_k) on the A series
    dq = q0[:, None] - q0[None, :]
    np.fill_diagonal(dq, np.inf)
    qdot0 = p0 + 1j * gtilde * (1.0 / dq).sum(axis=1)
    ghat = np.sqrt(complex(g**2 + gtilde**2))
    for t, q in zip(traj.times, traj.q):
        dist = np.abs(q[:, None] - rational_calogero_trajectory(q0, qdot0, ghat, t))
        # each particle on its own nearest eigenvalue
        assert sorted(dist.argmin(axis=1)) == list(range(n))
        assert dist.min(axis=1).max() < 1e-10


@pytest.mark.parametrize("potential", ["rational", "trigonometric", "hyperbolic"])
@pytest.mark.parametrize("family, rank", [("A", 2), ("B", 3), ("C", 3)])
def test_trajectory_rhs_is_the_replaced_one_bitwise(monkeypatch, family, rank, potential):
    # the one-pass right-hand side makes the steps, evaluations and records
    # of the one it replaced, to the bit
    s = cli_state(family, rank, potential)
    got = cms.integrate_trajectory(s, dt=1e-3, n_steps=500, record_every=10)
    integrate = _stepping.integrate
    monkeypatch.setattr(_stepping, "integrate", lambda rhs, *args: integrate(
        reference_trajectory_rhs(s), *args))
    ref = cms.integrate_trajectory(s, dt=1e-3, n_steps=500, record_every=10)
    assert got.completed and ref.completed
    for name in ("times", "q", "p", "energy"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    # the saving is per evaluation: the counts are the replaced run's
    assert (got.nfev, got.n_accepted, got.n_rejected) == (
        ref.nfev, ref.n_accepted, ref.n_rejected)
    assert got.nfev >= 12 * (got.n_accepted + got.n_rejected) + 2


def test_trajectory_energy_error_controlled_B3_trigonometric():
    # fixed-step RK4 drifts by 4e-4 relative on this run
    s = cli_state("B", 3, "trigonometric")
    traj = cms.integrate_trajectory(s, dt=1e-3, n_steps=1000, record_every=10)
    assert traj.completed
    assert np.abs(traj.energy - traj.energy[0]).max() <= 1e-9 * abs(traj.energy[0])


def test_trajectory_fewer_singularity_checks(monkeypatch):
    s = cli_state("A", 2, "rational")
    calls = count_checks(monkeypatch)
    reference_rk4_trajectory(s, dt=1e-3, n_steps=500, record_every=10)
    n_reference = len(calls)
    calls.clear()
    assert cms.integrate_trajectory(s, dt=1e-3, n_steps=500, record_every=10).completed
    assert len(calls) < n_reference / 2


def test_trajectory_stop_keeps_records_before_stop_time(monkeypatch):
    s = cli_state("A", 3, "hyperbolic")
    full = cms.integrate_trajectory(s, dt=1e-3, n_steps=1000, record_every=10)
    calls = count_checks(monkeypatch)
    cms.integrate_trajectory(s, dt=1e-3, n_steps=1000, record_every=10)
    count_checks(monkeypatch, fail_after=len(calls) // 2)
    traj = cms.integrate_trajectory(s, dt=1e-3, n_steps=1000, record_every=10)
    assert not traj.completed
    stop = re.fullmatch(r"stopped at t = (\S+): refused by the test", traj.error)
    t_stop = float(stop.group(1))
    assert 0.0 < t_stop < 1.0
    # every record the run reached is kept, and it is the uninterrupted one
    n = int((full.times <= t_stop).sum())
    assert 0 < n == len(traj.times) < len(full.times)
    assert traj.times.tobytes() == full.times[:n].tobytes()
    assert np.array_equal(traj.q, full.q[:n]) and np.array_equal(traj.p, full.p[:n])


def test_trajectory_step_size_collapse_stops_run(monkeypatch):
    # a force that turns non-finite fails every error test, so the step
    # size shrinks until the solver gives up
    s = cli_state("A", 2, "rational")
    force, calls = cms._force, []

    def failing(*args):
        calls.append(1)
        return force(*args) * (1.0 if len(calls) <= 100 else np.nan)

    monkeypatch.setattr(cms, "_force", failing)
    with np.errstate(invalid="ignore"):
        traj = cms.integrate_trajectory(s, dt=1e-3, n_steps=1000, record_every=10)
    assert not traj.completed
    stop = re.fullmatch(r"stopped at t = (\S+): Required step size .*", traj.error)
    assert 0 < len(traj.times) and traj.times[-1] <= float(stop.group(1)) < 1.0


# ---------------------------------------------------------------------------
# Lax pairs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("potential", ["rational", "trigonometric", "hyperbolic"])
def test_lax_closes_for_A2(potential):
    rng = np.random.default_rng(15)
    sys = make("A", 2, potential=potential)
    for _ in range(10):
        q, p = random_state(rng, sys.root_system, sys.potential)
        assert cms.lax_residual(sys.at(q, p)) < 1e-8


def test_lax_matches_textbook_rational_calogero():
    # gtilde = 0, A_2 rational: L reduces to the classical Calogero matrix
    rng = np.random.default_rng(16)
    sys = make("A", 2, g=0.8, gtilde=0.0)
    q, p = random_state(rng, sys.root_system, sys.potential)
    pair = cms.lax_pair(sys.at(q, p))
    ref = rational_calogero_lax_reference(q, 0.8) + np.diag(p)
    assert np.abs(pair.L - ref).max() < 1e-10


@pytest.mark.parametrize("potential", ["rational", "trigonometric", "hyperbolic"])
@pytest.mark.parametrize("family, rank", [("A", 2), ("A", 3)])
def test_lax_matches_reference(family, rank, potential):
    rng = np.random.default_rng(20)
    sys = make(family, rank, potential=potential, g_long=0.6, gtilde_long=1.3)
    for _ in range(10):
        q, p = random_state(rng, sys.root_system, sys.potential)
        s = sys.at(q + 0.05j * rng.normal(size=q.size),
                   p + 0.3j * rng.normal(size=p.size))
        pair = cms.lax_pair(s)
        L, M, m, residual = reference_lax(s)
        for got, ref in ((pair.L, L), (pair.M, M), (pair.m, m)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        # the residual is a difference of commutator terms of size |L| |M|
        scale = max(residual, np.linalg.norm(L) * np.linalg.norm(M))
        assert abs(cms.lax_residual(s) - residual) <= 1e-13 * scale


@pytest.mark.parametrize("potential", ["rational", "trigonometric", "hyperbolic"])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_lax_is_the_replaced_cartan_weyl_assembly_bitwise(rank, potential):
    # root e_i - e_j is the matrix unit E_ij: the same numbers as the
    # einsums over the Cartan-Weyl basis, and so the same charges
    rng = np.random.default_rng(22)
    sys = make("A", rank, potential=potential)
    for _ in range(10):
        q, p = random_state(rng, sys.root_system, sys.potential)
        s = sys.at(q + 0.05j * rng.normal(size=q.size),
                   p + 0.3j * rng.normal(size=p.size))
        pair = cms.lax_pair(s)
        L, M, m, residual = cartan_weyl_lax(s)
        for got, ref in ((pair.L, L), (pair.M, M), (pair.m, m)):
            assert np.array_equal(got, ref)
        assert np.array_equal(cms.lax_residual(s), residual)
        Lk, charges = np.eye(rank + 1, dtype=complex), []
        for _ in range(3):
            Lk = Lk @ L
            charges.append(complex(np.trace(Lk)) / 2.0)
        assert np.array_equal(cms.conserved_charges(s, 3), charges)


def counted_singularity_checks(monkeypatch):
    """The list that every later `_check_nonsingular` call appends to."""
    calls = []
    check = cms._check_nonsingular

    def counted(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(cms, "_check_nonsingular", counted)
    return calls


@pytest.mark.parametrize("potential", ["rational", "trigonometric", "hyperbolic"])
@pytest.mark.parametrize("family, rank", [("B", 2), ("B", 3), ("C", 3), ("D", 4)])
def test_lax_refused_without_closure(monkeypatch, family, rank, potential):
    # the defining-representation pair of the A series does not close for
    # other families: refuse before evaluating anything rather than report
    # a residual or drifting charges
    sys = make(family, rank, potential=potential, g_long=0.6, gtilde_long=1.3)
    q, p = random_state(np.random.default_rng(20), sys.root_system, sys.potential)
    s = sys.at(q, p)
    calls = counted_singularity_checks(monkeypatch)
    for evaluate in (lambda: cms.lax_pair(s),
                     lambda: cms.lax_residual(s),
                     lambda: cms.conserved_charges(s, 3)):
        with pytest.raises(CapabilityError, match=f"family {family}"):
            evaluate()
    assert calls == []


def test_one_singularity_check_per_evaluation(monkeypatch):
    sys = make("B", 3, potential="trigonometric", g_long=0.6, gtilde_long=1.3)
    q, p = random_state(np.random.default_rng(21), sys.root_system, sys.potential)
    s = sys.at(q, p)
    lax_sys = make("A", 3, potential="trigonometric")
    q, p = random_state(np.random.default_rng(21), lax_sys.root_system,
                        lax_sys.potential)
    lax_s = lax_sys.at(q, p)
    calls = counted_singularity_checks(monkeypatch)
    for evaluate in (lambda: cms.lax_residual(lax_s),
                     lambda: cms.conserved_charges(lax_s, 3),
                     lambda: cms.hamiltonian(s),
                     lambda: cms.equations_of_motion(s)):
        calls.clear()
        evaluate()
        assert len(calls) == 1


def test_charges_constant_along_flow():
    rng = np.random.default_rng(17)
    sys = make("A", 2)
    q, p = random_state(rng, sys.root_system, sys.potential)
    traj = cms.integrate_trajectory(sys.at(q, p), dt=1e-3, n_steps=400,
                                    record_every=100)
    assert traj.completed
    charges = np.array([cms.conserved_charges(sys.at(traj.q[i], traj.p[i]),
                                              3)
                        for i in range(len(traj.times))])
    rel = np.abs(charges - charges[0]).max(axis=0) / (1.0 + np.abs(charges[0]))
    assert rel.max() < 1e-7


def test_second_charge_equals_hamiltonian():
    rng = np.random.default_rng(18)
    sys = make("A", 2)
    q, p = random_state(rng, sys.root_system, sys.potential)
    s = sys.at(q, p)
    charges = cms.conserved_charges(s, 2)
    assert abs(charges[1] - cms.hamiltonian(s)) < 1e-10


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=15, deadline=None)
def test_mu_identity_rational_property(seed):
    rng = np.random.default_rng(seed)
    sys = make("A", 2, g=float(rng.uniform(0.2, 2.0)),
               gtilde=float(rng.uniform(0.2, 2.0)))
    q, p = random_state(rng, sys.root_system, sys.potential)
    assert cms.verify_mu_identity(sys.at(q, p)) < 1e-10
