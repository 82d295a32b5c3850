"""Root systems and Cartan-Weyl matrix representations.

Crystallographic families A, B, C, D and G2 are generated in explicit
orthonormal coordinates.  The A-series uses the (rank+1)-dimensional
realization alpha_i = e_i - e_{i+1}; B/C/D use the standard orthonormal
realizations; G2 is embedded in the A_2 hyperplane of R^3.

Matrix representations (defining representations) are normalized so that
tr(H_i H_j) = delta_ij and tr(E_a E_{-a}) = 1.  For B/C/D this
normalization rescales the weights of the Cartan action: [H, E_a] = w_a E_a
with w_a the root for the A-series and root/sqrt(2) for B/C/D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ConfigurationError


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

    def negative_index(self, i):
        """Index of -roots[i]; roots are stored as positives then negatives."""
        n = self.n_positive
        return i + n if i < n else i - n


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


# ---------------------------------------------------------------------------
# Cartan-Weyl matrix representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CartanWeylBasis:
    cartan: np.ndarray             # (n_cartan, d, d)
    step: np.ndarray               # (n_roots, d, d), E_a indexed like rs.roots
    negative: np.ndarray           # (n_roots,) index of -a, so step[negative] is E_-a


def _unit(d, i, j):
    m = np.zeros((d, d))
    m[i, j] = 1.0
    return m


def _raw_matrices_A(rank):
    d = rank + 1
    cartan = [np.diag(np.eye(d)[i]) for i in range(d)]
    steps = []
    for i in range(d):
        for j in range(i + 1, d):
            steps.append(_unit(d, i, j))
    return cartan, steps


def _raw_matrices_B(ell):
    d = 2 * ell + 1
    conj = lambda r: d - 1 - r   # noqa: E731
    z = ell                      # middle row
    cartan = [_unit(d, i, i) - _unit(d, conj(i), conj(i)) for i in range(ell)]
    steps = []
    for i in range(ell):
        for j in range(i + 1, ell):
            # e_i + e_j then e_i - e_j, matching _positive_roots ordering
            steps.append(_unit(d, i, conj(j)) - _unit(d, j, conj(i)))
            steps.append(_unit(d, i, j) - _unit(d, conj(j), conj(i)))
    for i in range(ell):
        steps.append(_unit(d, i, z) - _unit(d, z, conj(i)))
    return cartan, steps


def _raw_matrices_C(ell):
    d = 2 * ell
    cartan = [_unit(d, i, i) - _unit(d, ell + i, ell + i) for i in range(ell)]
    steps = []
    for i in range(ell):
        for j in range(i + 1, ell):
            steps.append(_unit(d, i, ell + j) + _unit(d, j, ell + i))
            steps.append(_unit(d, i, j) - _unit(d, ell + j, ell + i))
    for i in range(ell):
        steps.append(_unit(d, i, ell + i))
    return cartan, steps


def _raw_matrices_D(ell):
    d = 2 * ell
    conj = lambda r: d - 1 - r   # noqa: E731
    cartan = [_unit(d, i, i) - _unit(d, conj(i), conj(i)) for i in range(ell)]
    steps = []
    for i in range(ell):
        for j in range(i + 1, ell):
            steps.append(_unit(d, i, conj(j)) - _unit(d, j, conj(i)))
            steps.append(_unit(d, i, j) - _unit(d, conj(j), conj(i)))
    return cartan, steps


def build_cartan_weyl(rs):
    """Cartan-Weyl matrices for `rs`, normalized to the trace conditions.

    Raises CapabilityError for families without an implemented matrix
    representation (G2); the root data itself stays usable.
    """
    if rs.family == "A":
        cartan, pos_steps = _raw_matrices_A(rs.rank)
    elif rs.family == "B":
        cartan, pos_steps = _raw_matrices_B(rs.rank)
    elif rs.family == "C":
        cartan, pos_steps = _raw_matrices_C(rs.rank)
    elif rs.family == "D":
        cartan, pos_steps = _raw_matrices_D(rs.rank)
    else:
        raise CapabilityError(f"no matrix representation implemented for {rs.family}")

    cartan = np.array(cartan, dtype=complex)
    # global Cartan rescaling to tr(H_i H_j) = delta_ij
    gram = np.einsum("aij,bji->ab", cartan, cartan).real
    c = gram[0, 0]
    if not np.allclose(gram, c * np.eye(len(cartan)), atol=1e-10):
        raise ConfigurationError("Cartan trace form is not proportional to identity")
    cartan /= np.sqrt(c)

    # E_-a is the transpose of E_a; both are scaled to tr(E_a E_-a) = 1
    pos = np.array(pos_steps, dtype=complex)
    pos /= np.sqrt(np.einsum("kij,kij->k", pos, pos).real)[:, None, None]
    step = np.concatenate([pos, pos.transpose(0, 2, 1)])
    negative = np.array([rs.negative_index(i) for i in range(rs.n_roots)])
    return CartanWeylBasis(cartan=cartan, step=step, negative=negative)
