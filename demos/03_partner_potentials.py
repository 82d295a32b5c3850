"""Partner potentials from a ground state.

Builds the superpotential of the Gaussian ground state, checks the
harmonic-oscillator partner pair, and maps the first excited state to
the partner ground state through the intertwining charge.
"""

import numpy as np

from ptlab import susy

psi = susy.GridWavefunction.from_callable(
    lambda x: np.exp(-x**2 / 2.0), (-9, 9), 1400)
pair = susy.superpotential_from_groundstate(psi)

sl = np.abs(pair.x) <= 3.0
print("max |W - x| on |x|<=3:      %.2e" % np.abs(pair.W[sl] - pair.x[sl]).max())
print("max |V_- - (x^2-1)|:        %.2e"
      % np.abs(pair.V_minus[sl] - (pair.x[sl]**2 - 1)).max())
print("max |V_+ - (x^2+1)|:        %.2e"
      % np.abs(pair.V_plus[sl] - (pair.x[sl]**2 + 1)).max())

hm, hp = susy.build_partner_hamiltonians(pair)
em = np.sort(hm.eigenvalues().real)[:5]
ep = np.sort(hp.eigenvalues().real)[:5]
print("\nH_- levels:", np.round(em, 6))
print("H_+ levels:", np.round(ep, 6))
print("intertwining residual:", susy.verify_intertwining(pair))

evm, vecm = hm.eigensystem()
phi1 = susy.GridWavefunction(pair.x0, pair.dx, vecm[:, 1])
mapped = susy.map_wavefunction(pair, phi1)
print("charge maps first excited state, annihilated =", mapped.annihilated)
print("spectral case:", susy.classify_case(pair).value)
