"""Crystallographic root systems in explicit orthonormal coordinates.

Families A, B, C, D and G2 are generated as vectors only; no matrix
representation is built.  The A-series uses the (rank+1)-dimensional
realization alpha_i = e_i - e_{i+1}, so root e_i - e_j names the matrix
unit E_ij of the defining representation; B/C/D use the standard
orthonormal realizations; G2 is embedded in the A_2 hyperplane of R^3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    roots: np.ndarray              # (n_roots, dim), positives then negatives
    long: np.ndarray               # (n_roots,) bool; all False when simply laced

    @property
    def dim(self):
        return self.roots.shape[1]

    @property
    def n_roots(self):
        return self.roots.shape[0]

    @property
    def n_positive(self):
        return self.n_roots // 2

    @property
    def length_sq(self):
        """|alpha|^2 per root."""
        return np.einsum("ij,ij->i", self.roots, self.roots)

    @property
    def simple_roots(self):
        """Indices of the positive roots that are not a sum of two positive
        roots; exact, as every coordinate is a small integer."""
        pos = self.roots[:self.n_positive]
        sums = {tuple(a + b) for a in pos for b in pos}
        return tuple(i for i, r in enumerate(pos) if tuple(r) not in sums)


def _positive_roots(family, rank):
    """Positive roots in orthonormal coordinates, as a list of vectors."""
    ell = rank
    if family == "A":
        d = ell + 1
        pos = []
        for i in range(d):
            for j in range(i + 1, d):
                v = np.zeros(d)
                v[i], v[j] = 1.0, -1.0
                pos.append(v)
        return pos
    if family in ("B", "C", "D"):
        pos = []
        for i in range(ell):
            for j in range(i + 1, ell):
                for sj in (+1.0, -1.0):
                    v = np.zeros(ell)
                    v[i], v[j] = 1.0, sj
                    pos.append(v)
        if family != "D":
            # B adds the short roots e_i, C the long roots 2 e_i
            pos.extend((1.0 if family == "B" else 2.0) * np.eye(ell))
        return pos
    if family == "G2":
        # short roots: A_2 roots e_i - e_j; long roots: 2e_i - e_j - e_k,
        # with signs chosen so all six lie in one half-space (positive on
        # the functional (5, 2, 1))
        pos = []
        for (i, j) in [(0, 1), (0, 2), (1, 2)]:
            v = np.zeros(3)
            v[i], v[j] = 1.0, -1.0
            pos.append(v)
        pos.append(np.array([2.0, -1.0, -1.0]))
        pos.append(np.array([1.0, -2.0, 1.0]))
        pos.append(np.array([1.0, 1.0, -2.0]))
        return pos
    raise ConfigurationError(f"unknown family {family!r}")


_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


def build_root_system(family, rank):
    """Build the root system for a crystallographic (family, rank) pair."""
    family = str(family).upper()
    if family == "G2":
        if rank != 2:
            raise ConfigurationError("G2 has rank 2")
    elif family in _MIN_RANK:
        if rank < _MIN_RANK[family]:
            raise ConfigurationError(f"{family}_{rank} is not a valid crystallographic pair")
    else:
        raise ConfigurationError(f"unsupported family {family!r}")

    pos = _positive_roots(family, rank)
    roots = np.array(pos + [-v for v in pos])
    # squared lengths are small integers, so the comparison is exact
    lensq = np.einsum("ij,ij->i", roots, roots)
    return RootSystem(family=family, rank=rank, roots=roots, long=lensq > lensq.min())


def reflect(root, mirror):
    """Weyl reflection of `root` in the hyperplane orthogonal to `mirror`."""
    return root - 2.0 * (root @ mirror) / (mirror @ mirror) * mirror
