"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Every test prints `criterion N: PASS|FAIL <metrics>` and then asserts,
so the one-line summary survives in the captured output either way.
"""

import time

import numpy as np

from oracles import bilinear_levels, cubic_ground_energy
from ptlab import cms, kdv, spectra, susy
from ptlab.rootsys import build_root_system


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _system(family, rank, potential="rational", g=1.1, gtilde=0.7, **kw):
    rs = build_root_system(family, rank)
    zero = np.zeros(rs.dim)
    return cms.CMSSystem(root_system=rs,
                         potential=cms.PotentialKind(potential),
                         couplings=cms.OrbitCouplings(g_short=g,
                                                      gtilde_short=gtilde, **kw),
                         q=zero, p=zero)


def _states(rng, system, n):
    out = []
    while len(out) < n:
        q = rng.uniform(-2.0, 2.0, size=system.dim)
        p = rng.uniform(-1.0, 1.0, size=system.dim)
        if system.potential.hyperplane_distance(system.root_system.roots @ q).min() > 0.25:
            out.append((q, p))
    return out


def test_criterion_01_mu_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2)]:
        sys_ = _system(family, rank)
        for q, p in _states(rng, sys_, 100):
            worst = max(worst, cms.verify_mu_identity(sys_.at(q, p)))
    sys_h = _system("A", 2, potential="hyperbolic")
    n_large = sum(cms.verify_mu_identity(sys_h.at(q, p)) > 1e-3
                  for q, p in _states(rng, sys_h, 100))
    ok = worst < 1e-10 and n_large >= 95
    _report(1, ok, f"rational worst residual {worst:.2e}, "
                   f"hyperbolic large on {n_large}/100")


def test_criterion_02_shifted_equivalence():
    rng = np.random.default_rng(102)
    worst = 0.0
    for potential in ("rational", "trigonometric", "hyperbolic"):
        sys_ = _system("A", 2, potential=potential)
        for q, p in _states(rng, sys_, 100):
            worst = max(worst, cms.shifted_equivalence(sys_.at(q, p)))
    _report(2, worst < 1e-10, f"worst |H_mu - h_Cal(p+imu)| = {worst:.2e}")


def test_criterion_03_lax_and_charges():
    rng = np.random.default_rng(103)
    worst = 0.0
    for potential in ("rational", "trigonometric", "hyperbolic"):
        sys_ = _system("A", 2, potential=potential, g=1.1, gtilde=0.7)
        for q, p in _states(rng, sys_, 100):
            worst = max(worst, cms.lax_residual(sys_.at(q, p)))
    sys_ = _system("A", 2)
    q, p = _states(rng, sys_, 1)[0]
    traj = cms.integrate_trajectory(sys_.at(q, p), dt=1e-3, n_steps=10000,
                                    record_every=1000)
    charges = np.array([cms.conserved_charges(sys_.at(traj.q[i], traj.p[i]), 3)
                        for i in range(len(traj.times))])
    drift = (np.abs(charges - charges[0]).max(axis=0)
             / (1.0 + np.abs(charges[0]))).max()
    ok = worst < 1e-8 and traj.completed and drift < 1e-6
    _report(3, ok, f"worst Lax residual {worst:.2e}, "
                   f"charge drift {drift:.2e} over 10^4 steps")


def test_criterion_04_particle_coordinate_form():
    rng = np.random.default_rng(104)
    worst = 0.0
    for ell in (2, 3):
        sys_ = _system("A", ell, g=0.9, gtilde=0.4)
        for q, p in _states(rng, sys_, 100):
            s = sys_.at(q, p)
            direct = cms.basu_mallick_kundu_form(ell, 0.0, 0.9, 0.4, q, p)
            worst = max(worst, abs(direct - cms.hamiltonian_undeformed_form(s)))
    _report(4, worst < 1e-10, f"worst coordinate-form mismatch {worst:.2e}")


def test_criterion_05_susy_suite():
    psi = susy.GridWavefunction.from_callable(
        lambda x: np.exp(-x**2 / 2.0), (-8, 8), 2000)
    pair = susy.superpotential_from_groundstate(psi)
    sl = np.abs(pair.x) <= 3.5
    x = pair.x[sl]
    pot_err = max(np.abs(pair.W[sl] - x).max(),
                  np.abs(pair.V_minus[sl] - (x**2 - 1.0)).max(),
                  np.abs(pair.V_plus[sl] - (x**2 + 1.0)).max())
    hm, hp = susy.build_partner_hamiltonians(pair)
    em = np.sort(hm.eigenvalues().real)
    ep = np.sort(hp.eigenvalues().real)
    iso_err = np.abs(em[1:11] - ep[:10]).max()
    resids = []
    for n in (400, 800, 1600):
        p_n = susy.superpotential_from_groundstate(
            susy.GridWavefunction.from_callable(
                lambda x: np.exp(-x**2 / 2.0), (-8, 8), n))
        resids.append(susy.verify_intertwining(p_n))
    orders = np.log2(np.array(resids[:-1]) / np.array(resids[1:]))
    ok = pot_err < 1e-6 and iso_err < 1e-5 and orders.min() >= 3.5
    _report(5, ok, f"potential error {pot_err:.2e}, isospectrality {iso_err:.2e}, "
                   f"intertwining order {orders.min():.2f}")


def test_criterion_06_monomial_spectra():
    rep2 = spectra.monomial_spectrum(
        spectra.MonomialModel(N=2, g=1.0, half_width=10.0, n_grid=800), k=5)
    err2 = np.abs(rep2.eigenvalues - np.arange(1, 10, 2)).max()
    rep3 = spectra.monomial_spectrum(
        spectra.MonomialModel(N=3, g=1.0, half_width=6.5, n_grid=900), k=3)
    ref = cubic_ground_energy()
    err3 = abs(rep3.eigenvalues[0].real - ref.real)
    im3 = abs(rep3.eigenvalues[0].imag)
    rep4 = spectra.monomial_spectrum(
        spectra.MonomialModel(N=4, g=1.0, half_width=3.0, n_grid=1200), k=5)
    im4 = np.abs(rep4.eigenvalues.imag).max()
    diag4_ok = rep4.diagnostics["flagged"] == []
    ok = err2 < 1e-6 and err3 < 1e-5 and im3 < 1e-6 and im4 < 1e-5 and diag4_ok
    _report(6, ok, f"N=2 err {err2:.2e}, N=3 vs oracle {err3:.2e} "
                   f"Im {im3:.2e}, N=4 max|Im| {im4:.2e} diagnostics "
                   f"{'clean' if diag4_ok else 'flagged'}")


def test_criterion_07_fock_reality_and_stability():
    sb = lambda d: spectra.swanson_model(2.0, 0.5, 0.3, d)
    s1 = sb(120).eigenvalues(10)
    s2 = sb(160).eigenvalues(10)
    s_im = np.abs(s1.imag).max()
    s_stab = np.abs(s2 - s1).max()
    bog = np.abs(np.sort(s1.real)
                 - np.sort(bilinear_levels(2.0, 0.5, 0.3, 10).real)).max()
    rb = lambda d: spectra.reggeon_single_site(1.0, 0.3, d)
    r1 = rb(60).eigenvalues(10)
    r2 = rb(80).eigenvalues(10)
    r_im = np.abs(r1.imag).max()
    r_stab = np.abs(r2 - r1).max()
    ok = (s_im < 1e-8 and s_stab < 1e-8 and bog < 1e-6
          and r_im < 1e-8 and r_stab < 1e-8)
    _report(7, ok, f"swanson Im {s_im:.2e} stab {s_stab:.2e} "
                   f"oracle {bog:.2e}; reggeon Im {r_im:.2e} stab {r_stab:.2e}")


def test_criterion_08_metric_search():
    op = spectra.swanson_model(2.0, 0.5, 0.3, 40)
    res = spectra.metric_search(op)
    iso = spectra.similarity_spectrum_check(op, res.eta)
    basis = spectra.metric_ansatz_basis(40)
    rng = np.random.default_rng(88)
    c0 = rng.normal(scale=0.1, size=3)
    _, grad = spectra._metric_residual_and_grad(c0, op.matrix, basis)
    h = 1e-6
    fd = np.empty(3)
    for k in range(3):
        dc = np.zeros(3)
        dc[k] = h
        rp, _ = spectra._metric_residual_and_grad(c0 + dc, op.matrix, basis)
        rm, _ = spectra._metric_residual_and_grad(c0 - dc, op.matrix, basis)
        fd[k] = (rp - rm) / (2 * h)
    grad_err = np.abs(grad - fd).max() / (1.0 + np.abs(fd).max())
    ok = res.residual < 1e-8 and res.positive and iso < 1e-8 and grad_err < 1e-6
    _report(8, ok, f"residual {res.residual:.2e} positive {res.positive}, "
                   f"isospectrality {iso:.2e}, gradient error {grad_err:.2e}")


def test_criterion_09_kdv_reduction_and_conservation():
    f = kdv.KdVField.from_callable(
        lambda x: 0.7 * np.cos(2 * np.pi * x / 40.0)
        + 0.2 * np.sin(4 * np.pi * x / 40.0), 40.0, 256)
    classic = -f.values * f.deriv(1) - f.deriv(3)
    rhs_err = max(np.abs(kdv.rhs_bender(f, 1.0) - classic).max(),
                  np.abs(kdv.rhs_fring(f, 1.0) - classic).max())

    f3 = kdv.KdVField.from_callable(
        lambda x: 0.8 * np.cos(2 * np.pi * x / 40.0)
        + 0.3 * np.sin(4 * np.pi * x / 40.0), 40.0, 512)
    ev = kdv.evolve(f3, "fring", 3.0, 1.0, 1e-5, n_snapshots=2,
                    monitor_stride=10000)
    d = ev.monitor.drift()
    rel = max(d["M"] / max(1.0, abs(ev.monitor.M[0])),
              d["P"] / abs(ev.monitor.P[0]),
              d["E"] / abs(ev.monitor.E[0]))

    rng = np.random.default_rng(109)
    var_err = 0.0
    for _ in range(20):
        L, n = 20.0, 128
        x = np.linspace(0, L, n, endpoint=False)
        u = np.zeros(n, dtype=complex)
        for m in range(1, 4):
            u += rng.normal(scale=0.3 / m) * np.cos(
                2 * np.pi * m * x / L + rng.uniform(0, 2 * np.pi))
        g = kdv.KdVField(L=L, values=u)
        ux = g.deriv(1)
        var = -u**2 / 2.0 + np.fft.ifft(
            1j * g.k * np.fft.fft(1j * (1j * ux) ** 3))
        lhs = np.fft.ifft(1j * g.k * np.fft.fft(var))
        var_err = max(var_err, np.abs(lhs - kdv.rhs_fring(g, 3.0)).max())
    ok = rhs_err < 1e-12 and rel < 1e-6 and var_err < 1e-8
    _report(9, ok, f"eps=1 rhs identity {rhs_err:.2e}, conservation drift "
                   f"{rel:.2e}, variational identity {var_err:.2e}")


def test_criterion_10_galilean_dichotomy():
    f = kdv.KdVField.from_callable(
        lambda x: 2.0 * np.cos(2 * np.pi * x / 40.0), 40.0, 128)
    good = kdv.galilean_defect(f, "fring", 3.0, 0.1, 0.5, 1e-4)
    bad = kdv.galilean_defect(f, "bender", 3.0, 0.1, 0.5, 1e-4)
    ok = good < 1e-5 and bad > 1e-2
    _report(10, ok, f"fring boost residual {good:.2e}, bender {bad:.2e}")


def test_criterion_11_pt_dichotomy():
    classes = []
    classes.append(spectra.monomial_spectrum(
        spectra.MonomialModel(N=2, g=1.0, half_width=10.0, n_grid=400), k=5))
    classes.append(spectra.monomial_spectrum(
        spectra.MonomialModel(N=3, g=1.0, half_width=6.5, n_grid=500), k=3))
    classes.append(spectra.monomial_spectrum(
        spectra.MonomialModel(N=4, g=1.0, half_width=3.0, n_grid=500), k=5))
    for dim in (60, 80):
        classes.append(spectra.fock_report(
            lambda d: spectra.reggeon_single_site(1.0, 0.3, d), dim, k=dim))
    for dim in (120, 160):
        classes.append(spectra.fock_report(
            lambda d: spectra.swanson_model(2.0, 0.5, 0.3, d), dim, k=20))
    never_mixed = all(r.classification is not spectra.Classification.MIXED
                      for r in classes)

    u0 = kdv.KdVField.from_callable(
        lambda x: 0.1 * np.cos(2 * np.pi * x / 20.0)
        + 0.05j * np.sin(4 * np.pi * x / 20.0), 20.0, 64)
    sym0 = np.abs(kdv.pt_reflect(u0).values - u0.values).max()
    defect = kdv.pt_covariance_defect(u0, "fring", 2.0, 0.05, 5e-4)
    ok = never_mixed and sym0 < 1e-12 and defect < 1e-8
    _report(11, ok, f"{len(classes)} spectra never Mixed: {never_mixed}, "
                    f"PT evolution defect {defect:.2e}")
