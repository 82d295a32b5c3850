"""Root systems and Cartan-Weyl matrices.

Builds a few crystallographic root systems, shows the short/long orbit
structure, and checks the trace normalization of the matrix bases.
"""

import numpy as np

from ptlab.errors import CapabilityError
from ptlab.rootsys import build_cartan_weyl, build_root_system

for family, rank in [("A", 2), ("B", 2), ("C", 3), ("D", 4), ("G2", 2)]:
    rs = build_root_system(family, rank)
    n_long = int(rs.long.sum())
    print(f"{family}_{rank}: {rs.n_roots} roots "
          f"({rs.n_roots - n_long} short, {n_long} long)")

# the matrix representation carries the trace normalization
# tr(H_i H_j) = delta_ij, tr(E_a E_-a) = 1
rs = build_root_system("B", 2)
cw = build_cartan_weyl(rs)
gram = np.einsum("aij,bji->ab", cw.cartan, cw.cartan).real
print("\nB_2 Cartan Gram matrix:\n", np.round(gram, 12))

# G2 root data is available, but no matrix representation is built
try:
    build_cartan_weyl(build_root_system("G2", 2))
except CapabilityError as exc:
    print(f"\nG2 matrices: {exc}")
