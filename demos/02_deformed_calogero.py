"""Deformed Calogero-Moser-Sutherland systems.

Shows the mu-vector identity that singles out the rational potential,
the equivalence with a shifted-momentum undeformed Hamiltonian, and a
trajectory whose Lax charges stay constant.
"""

import numpy as np

from ptlab import cms
from ptlab.rootsys import build_root_system

rs = build_root_system("A", 2)
couplings = cms.OrbitCouplings(g_short=1.1, gtilde_short=0.7)
rng = np.random.default_rng(0)
q = np.array([1.3, 0.1, -1.2])
p = np.array([0.4, -0.6, 0.2])

for potential in ("rational", "trigonometric", "hyperbolic"):
    system = cms.CMSSystem(root_system=rs,
                           potential=cms.PotentialKind(potential),
                           couplings=couplings, q=q, p=p)
    mu = cms.verify_mu_identity(system)
    sh = cms.shifted_equivalence(system)
    print(f"{potential:14s} mu-identity residual {mu:9.2e}   "
          f"shifted-form residual {sh:9.2e}")

# integrate the rational flow and watch the Lax charges
system = cms.CMSSystem(root_system=rs, potential=cms.PotentialKind.RATIONAL,
                       couplings=couplings, q=q, p=p)
traj = cms.integrate_trajectory(system, dt=1e-3, n_steps=2000, record_every=500)
print("\nt        I_2 (= H)              I_3")
for i, t in enumerate(traj.times):
    charges = cms.conserved_charges(system.at(traj.q[i], traj.p[i]), 3)
    print(f"{t:6.3f}  {charges[1]:.12f}  {charges[2]:.12f}")
