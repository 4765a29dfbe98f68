"""Gram map, rank classification, norm minimization and saturation."""

import numpy as np
import pytest

from futuretube import actions as A
from futuretube import geometry as G
from futuretube.quotient import (
    gram_map,
    gram_rank,
    kempf_ness_minimize,
    saturation_probe,
)
from futuretube.rng import stream_for

iI = 1j * np.eye(2)


def test_gram_frozen():
    assert np.allclose(gram_map(iI[None]), [[-1.0]])
    got = gram_map(np.stack([iI, 1j * np.diag([1.0, -1.0])]))
    assert np.allclose(got, [[-1.0, 0.0], [0.0, 1.0]])


def test_gram_diagonal_is_det():
    for i in range(100):
        s = stream_for(4, "gram-diag", i)
        Z = np.stack([s.matrix() for _ in range(3)])
        Gm = gram_map(Z)
        assert np.max(np.abs(np.diag(Gm) - G.det2(Z))) <= 1e-12 * (
            1 + np.max(np.abs(G.det2(Z)))
        )
        assert np.array_equal(Gm, Gm.T)


def test_gram_invariance():
    for i in range(300):
        s = stream_for(4, "gram-inv", i)
        Z = np.stack([s.matrix() for _ in range(2)])
        p = A.make_unimodular(np.stack([s.matrix() + 2 * np.eye(2), s.matrix() + 2 * np.eye(2)]))
        d = np.linalg.norm(gram_map(A.act_complex(p, Z)) - gram_map(Z))
        assert d <= 1e-9 * (1 + np.linalg.norm(gram_map(Z)))


def test_gram_rank():
    assert gram_rank(np.array([[-1.0]])) == 1
    assert gram_rank(np.zeros((3, 3))) == 0
    s = stream_for(4, "gram-rank", 0)
    Z = np.stack([s.matrix() for _ in range(4)])
    assert gram_rank(gram_map(Z)) == 4  # generic nondegeneracy


def test_kempf_ness_diag21():
    # independent oracle: on a nonzero-determinant fiber the squared norm
    # s1^2 + s2^2 with s1 s2 = |det| has minimum 2 |det|
    Z = np.diag([2.0, 1.0]).astype(complex)
    expected = 2.0 * abs(G.det2(Z))
    r = kempf_ness_minimize(Z)
    assert r.classification == "closed"
    assert abs(r.achieved_norm_sq - expected) <= 1e-6
    # the returned point has the achieved norm and the start's determinant
    assert abs(float(np.sum(np.abs(r.point) ** 2)) - r.achieved_norm_sq) <= 1e-8
    assert abs(G.det2(r.point)[0] - G.det2(Z)) <= 1e-12


def test_kempf_ness_nilpotent():
    r = kempf_ness_minimize(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    assert r.classification == "non_closed"
    assert r.achieved_norm_sq <= 1e-6


def test_kempf_ness_already_minimal():
    r = kempf_ness_minimize(iI)
    assert r.classification == "closed"
    assert r.achieved_norm_sq == 2.0
    # a start of least norm is its own nearest point of least norm
    assert np.max(np.abs(r.point - iI)) <= 1e-15


def test_kempf_ness_objective_monotone():
    # line-search contract: replaying the minimizer step cap shows a
    # nonincreasing objective; here just check final <= initial
    for i in range(20):
        s = stream_for(4, "kn-mono", i)
        Z = np.stack([s.matrix() for _ in range(3)])
        r = kempf_ness_minimize(Z)
        assert r.achieved_norm_sq <= float(np.sum(np.abs(Z) ** 2)) + 1e-12


def test_kempf_ness_rank3_never_non_closed():
    closed = 0
    total = 0
    for i in range(60):
        s = stream_for(4, "kn-rank3", i)
        Z = np.stack([s.matrix() for _ in range(3)])
        if gram_rank(gram_map(Z)) < 3:
            continue
        total += 1
        r = kempf_ness_minimize(Z)
        assert r.classification in ("closed", "inconclusive")
        closed += r.classification == "closed"
    assert total > 0
    assert closed >= 0.95 * total


def test_saturation_probe_random():
    for i in range(6):
        s = stream_for(4, "sat-rand", i)
        Z = G.sample_tube_point(s, 2)
        rep = saturation_probe(Z)
        assert rep.certified_in_extended_tube
        assert rep.verdict == "certified"
        assert rep.gram_distance <= 1e-9 * (1 + np.linalg.norm(gram_map(Z)))


def test_saturation_probe_trivial_and_degenerate():
    rep = saturation_probe(iI)
    assert rep.certified_in_extended_tube

    # non-closed orbit inside the tube: second component differs by a
    # nilpotent shear, the closed orbit below still meets the tube
    Z = np.stack([iI, iI + 0.5 * np.array([[0.0, 1.0], [0.0, 0.0]])])
    rep = saturation_probe(Z)
    assert rep.certified_in_extended_tube
    assert rep.reduced_margin is not None and rep.reduced_margin > 0


def test_saturation_probe_requires_tube_point():
    with pytest.raises(ValueError):
        saturation_probe(np.eye(2, dtype=complex))
