"""Root systems.

Builds a few crystallographic root systems, shows the short/long orbit
structure, the simple roots of B_2, and a Weyl reflection that maps the
root system to itself.
"""

import numpy as np

from ptlab.rootsys import build_root_system, reflect

for family, rank in [("A", 2), ("B", 2), ("C", 3), ("D", 4), ("G2", 2)]:
    rs = build_root_system(family, rank)
    n_long = int(rs.long.sum())
    print(f"{family}_{rank}: {rs.n_roots} roots "
          f"({rs.n_roots - n_long} short, {n_long} long)")

# the simple roots: positive roots that are not a sum of two positive roots
rs = build_root_system("B", 2)
print("\nB_2 simple roots:", [rs.roots[i].tolist() for i in rs.simple_roots])

# reflecting in a long simple root permutes the roots of G2
rs = build_root_system("G2", 2)
mirror = rs.roots[[i for i in rs.simple_roots if rs.long[i]][0]]
image = np.array([reflect(r, mirror) for r in rs.roots])
perm = [int(np.abs(rs.roots - r).sum(axis=1).argmin()) for r in image]
print("G2 reflection in", mirror.tolist(), "permutes the roots:",
      sorted(perm) == list(range(rs.n_roots)))
