"""Root system generation and Cartan-Weyl matrix bases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_simple_roots
from ptlab.errors import CapabilityError, ConfigurationError
from ptlab.rootsys import (CartanWeylBasis, build_cartan_weyl,
                           build_root_system, reflect)

COUNTS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 12,
    ("B", 2): 8, ("B", 3): 18,
    ("C", 2): 8, ("C", 3): 18,
    ("D", 3): 12, ("D", 4): 24,
    ("G2", 2): 12,
}

FAMILY_RANKS = sorted(COUNTS)


@pytest.mark.parametrize("family,rank", FAMILY_RANKS)
def test_root_counts(family, rank):
    rs = build_root_system(family, rank)
    assert rs.n_roots == COUNTS[(family, rank)]
    assert rs.n_positive * 2 == rs.n_roots


@pytest.mark.parametrize("family,rank", FAMILY_RANKS)
def test_negation_closure(family, rank):
    rs = build_root_system(family, rank)
    for i in range(rs.n_roots):
        j = rs.negative_index(i)
        assert np.allclose(rs.roots[j], -rs.roots[i])
        assert rs.negative_index(j) == i


@pytest.mark.parametrize("family,rank", FAMILY_RANKS)
def test_length_orbits(family, rank):
    rs = build_root_system(family, rank)
    lensq = np.einsum("ij,ij->i", rs.roots, rs.roots)
    assert np.array_equal(rs.length_sq, lensq)
    assert rs.long.dtype == bool and rs.long.shape == (rs.n_roots,)
    if family in ("A", "D"):
        assert np.ptp(lensq) < 1e-12
        assert not rs.long.any()
    else:
        assert rs.long.any() and not rs.long.all()
        # one length per orbit, in the ratio 2 (B, C) or 3 (G2)
        long_sq, short_sq = set(lensq[rs.long]), set(lensq[~rs.long])
        assert len(long_sq) == len(short_sq) == 1
        assert long_sq.pop() / short_sq.pop() == pytest.approx(3.0 if family == "G2" else 2.0)
    # -a lies in the orbit of a
    assert all(rs.long[rs.negative_index(i)] == rs.long[i] for i in range(rs.n_roots))


@pytest.mark.parametrize("family,rank", FAMILY_RANKS)
def test_simple_roots_span_positives(family, rank):
    rs = build_root_system(family, rank)
    simple = rs.roots[list(rs.simple_roots)]
    assert len(rs.simple_roots) == rank
    # every positive root is a nonnegative integer combination of simples
    for i in range(rs.n_positive):
        coeffs, res, *_ = np.linalg.lstsq(simple.T, rs.roots[i], rcond=None)
        assert np.allclose(simple.T @ coeffs, rs.roots[i], atol=1e-9)
        assert np.all(coeffs > -1e-9)
        assert np.allclose(coeffs, np.round(coeffs), atol=1e-9)


@pytest.mark.parametrize("family,rank",
                         [("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 6)]
                         + [("C", r) for r in range(2, 6)] + [("D", r) for r in range(3, 7)]
                         + [("G2", 2)])
def test_simple_roots_match_reference_table(family, rank):
    rs = build_root_system(family, rank)
    derived = {tuple(rs.roots[i]) for i in rs.simple_roots}
    assert len(derived) == len(rs.simple_roots) == rank
    assert derived == {tuple(v) for v in reference_simple_roots(family, rank)}


@given(st.sampled_from(FAMILY_RANKS), st.data())
@settings(max_examples=60, deadline=None)
def test_weyl_reflection_closure(fr, data):
    rs = build_root_system(*fr)
    i = data.draw(st.integers(0, rs.n_roots - 1))
    j = data.draw(st.integers(0, rs.n_roots - 1))
    image = reflect(rs.roots[i], rs.roots[j])
    dist = np.abs(rs.roots - image).sum(axis=1)
    assert dist.min() < 1e-9


@pytest.mark.parametrize("family,rank", [("A", 0), ("B", 1), ("C", 1),
                                         ("D", 2), ("G2", 3), ("E", 8)])
def test_invalid_pairs_rejected(family, rank):
    with pytest.raises(ConfigurationError):
        build_root_system(family, rank)


# ---------------------------------------------------------------------------
# Cartan-Weyl bases
# ---------------------------------------------------------------------------

MATRIX_FAMILIES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                   ("C", 2), ("C", 3), ("D", 3), ("D", 4)]


@pytest.fixture(scope="module")
def bases():
    out = {}
    for fr in MATRIX_FAMILIES:
        rs = build_root_system(*fr)
        out[fr] = (rs, build_cartan_weyl(rs))
    return out


@pytest.mark.parametrize("fr", MATRIX_FAMILIES)
def test_trace_normalization(bases, fr):
    rs, cw = bases[fr]
    nH = cw.cartan.shape[0]
    for a in range(nH):
        for b in range(nH):
            tr = np.trace(cw.cartan[a] @ cw.cartan[b])
            assert tr == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)
    for i in range(rs.n_roots):
        tr = np.trace(cw.step[i] @ cw.step[rs.negative_index(i)])
        assert tr == pytest.approx(1.0, abs=1e-12)
    # the index array pairs each step operator with its E_-a in one stack
    tr = np.einsum("aij,aji->a", cw.step, cw.step[cw.negative])
    assert np.abs(tr - 1.0).max() < 1e-12
    assert np.array_equal(rs.roots[cw.negative], -rs.roots)


def cartan_weights(rs):
    """Weights w_a of [H, E_a] = w_a E_a under the trace normalization:
    the roots for the A series (in the full rank+1 Cartan space), the
    roots / sqrt(2) for B, C and D."""
    return rs.roots if rs.family == "A" else rs.roots / np.sqrt(2.0)


@pytest.mark.parametrize("fr", MATRIX_FAMILIES)
def test_cartan_step_commutators(bases, fr):
    rs, cw = bases[fr]
    w = cartan_weights(rs)
    for i in range(rs.n_roots):
        e = cw.step[i]
        for a in range(cw.cartan.shape[0]):
            comm = cw.cartan[a] @ e - e @ cw.cartan[a]
            assert np.abs(comm - w[i, a] * e).max() < 1e-12


@pytest.mark.parametrize("fr", MATRIX_FAMILIES)
def test_step_step_commutators(bases, fr):
    rs, cw = bases[fr]
    w = cartan_weights(rs)
    for i in range(rs.n_roots):
        j = rs.negative_index(i)
        comm = cw.step[i] @ cw.step[j] - cw.step[j] @ cw.step[i]
        expect = np.einsum("a,aij->ij", w[i], cw.cartan)
        assert np.abs(comm - expect).max() < 1e-12


@pytest.mark.parametrize("fr", MATRIX_FAMILIES)
def test_structure_constants(bases, fr):
    # closure: [E_a, E_b] is a nonzero multiple of E_(a+b) when a + b is a
    # root, and vanishes when a + b is neither a root nor zero
    rs, cw = bases[fr]
    for i in range(rs.n_roots):
        for j in range(rs.n_roots):
            if j == rs.negative_index(i):
                continue
            comm = cw.step[i] @ cw.step[j] - cw.step[j] @ cw.step[i]
            dist = np.abs(rs.roots - (rs.roots[i] + rs.roots[j])).sum(axis=1)
            k = int(np.argmin(dist))
            if dist[k] > 1e-9:
                assert np.abs(comm).max() < 1e-12
                continue
            eps = np.trace(comm @ cw.step[rs.negative_index(k)])
            assert np.abs(comm - eps * cw.step[k]).max() < 1e-12
            assert abs(eps) > 1e-8


@pytest.mark.parametrize("fr", MATRIX_FAMILIES)
def test_basis_root_scaling(bases, fr):
    # the weights read off the matrices, not assumed: [H_a, E] / E at the
    # largest entry of E
    rs, cw = bases[fr]
    read = np.zeros((rs.n_roots, cw.cartan.shape[0]))
    for k, e in enumerate(cw.step):
        i0, j0 = np.unravel_index(np.argmax(np.abs(e)), e.shape)
        for a, h in enumerate(cw.cartan):
            read[k, a] = ((h @ e - e @ h)[i0, j0] / e[i0, j0]).real
    assert np.allclose(read, cartan_weights(rs), atol=1e-12)


def test_g2_matrices_unsupported():
    rs = build_root_system("G2", 2)
    with pytest.raises(CapabilityError):
        build_cartan_weyl(rs)
