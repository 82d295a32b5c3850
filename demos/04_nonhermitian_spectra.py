"""Non-Hermitian spectra: real despite complex potentials.

Computes grid spectra of the monomial family p^2 - g(iz)^N, diagonalizes
truncated Fock-space models, and searches for a Hermitizing metric.
"""

import numpy as np

from ptlab import spectra

# the cubic member has a complex potential but a real spectrum
for N, hw, n in [(2, 10.0, 600), (3, 6.5, 900), (4, 3.0, 900)]:
    rep = spectra.monomial_spectrum(
        spectra.MonomialModel(N=N, g=1.0, half_width=hw, n_grid=n), k=5)
    print(f"N={N}: {rep.classification.value:15s} "
          f"lowest levels {np.round(rep.eigenvalues.real, 6)}")

# bilinear Fock-space model in the unbroken regime
bilinear = lambda d: spectra.swanson_model(2.0, 0.5, 0.3, d)
rep = spectra.fock_report(bilinear, 80, k=6)
print("\nbilinear model:", rep.classification.value,
      np.round(rep.eigenvalues.real, 8))

# cubic Fock-space model: low levels are real, the truncation edge is not
cubic = lambda d: spectra.reggeon_single_site(1.0, 0.3, d)
rep = spectra.fock_report(cubic, 80, k=10)
print("cubic model:   ", rep.classification.value,
      "flagged levels:", rep.diagnostics["flagged"])

# metric search: exp(A) H exp(-A) Hermitian over a small Hermitian ansatz
op = bilinear(80)
res = spectra.metric_search(op)
print(f"\nmetric search: residual {res.residual:.2e} "
      f"converged={res.converged} positive={res.positive}")
print("isospectrality of the transform:",
      spectra.similarity_spectrum_check(op, res.eta))
