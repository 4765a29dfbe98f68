"""Kempf-Ness in closed form against oracles that do not use it: tuples
built from a Witt basis with a known span and radical, the nilpotent unit
at many scales, the Gram matrix and nuclear norm of the returned point,
and the orientation of four spanning components."""

import numpy as np
import pytest

from futuretube.actions import act_complex, sample_sl2
from futuretube.quotient import gram_map, kempf_ness_minimize, kempf_ness_minimize_all, saturation_probe
from futuretube.rng import stream_for

iI = 1j * np.eye(2)
# (iI, iI + 0.5 shear): its orbit is not closed, the infimum 4 sits at (iI, iI)
UNIT_DEGENERATE = np.stack([iI, iI + 0.5 * np.array([[0.0, 1.0], [0.0, 0.0]])])
NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def from_pauli(Xp):
    """Components (N, 2, 2) of the columns x' = (x0, i x1, i x2, i x3) of a
    4 x N matrix, with Z = x0 I + x1 s1 + x2 s2 + x3 s3, so x'^T x' = det Z."""
    x0, x1, x2, x3 = Xp[0], -1j * Xp[1], -1j * Xp[2], -1j * Xp[3]
    return np.stack([np.stack([x0 + x3, x1 - 1j * x2], -1), np.stack([x1 + 1j * x2, x0 - x3], -1)], -2)


def random_tuples(label, n, count=8):
    """count tuples of n components, each drawn from its own stream."""
    out = []
    for i in range(count):
        s = stream_for(17, label, 100 * n + i)
        out.append(np.stack([s.matrix() for _ in range(n)]))
    return np.stack(out)


def witt_tuple(span, radical, n, i):
    """n components spanning `span` dimensions, `radical` of them isotropic
    and orthogonal to the whole span, moved by a random SL2 x SL2 pair."""
    e = np.eye(4)
    # f1, f2 are isotropic and orthogonal; the rest of the span is
    # non-degenerate and orthogonal to them
    f = [(e[0] + 1j * e[1]) / 2**0.5, (e[2] + 1j * e[3]) / 2**0.5]
    basis = np.stack(f[:radical] + list(e[2 * radical : span + radical]), axis=1)
    s = stream_for(13, "kn-witt", 100 * span + 10 * radical + i)
    C = s.complex_normals(span * n).reshape(span, n)
    pair = np.stack([sample_sl2(s), sample_sl2(s)])
    return act_complex(pair, from_pauli(basis @ C))


# (span, radical, n): the radical is isotropic and orthogonal to the span,
# so span + radical <= 4
WITT_CLASSES = [
    (d, r, n) for n in (2, 3, 4) for r in (0, 1, 2) for d in range(max(r, 1), n + 1) if d + r <= 4
]


@pytest.mark.parametrize("span,radical,n", WITT_CLASSES)
def test_witt_classes_are_closed_iff_the_radical_is_zero(span, radical, n):
    Z = np.stack([witt_tuple(span, radical, n, i) for i in range(4)])
    want = "closed" if radical == 0 else "non_closed"
    for Y, r in zip(Z, kempf_ness_minimize_all(Z)):
        assert r.classification == want
        nuclear = np.linalg.svd(gram_map(Y), compute_uv=False).sum()
        assert abs(r.achieved_norm_sq - 2.0 * nuclear) <= 1e-12 * np.sum(np.abs(Y) ** 2)
        # the point spans the non-degenerate part of the span, no more
        rank = span - radical
        sv = np.linalg.svd(r.point.reshape(n, 4), compute_uv=False)
        assert sv[rank - 1] > 1e-6 * sv[0] if rank else not r.point.any()
        assert np.all(sv[rank:] <= 1e-12 * sv[0])


def test_nilpotent_unit_is_not_closed_at_every_scale():
    for t in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3):
        r = kempf_ness_minimize(t * NILPOTENT)
        assert r.classification == "non_closed"
        assert r.achieved_norm_sq <= 1e-24 * t**2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 32])
def test_point_has_the_gram_matrix_and_twice_its_nuclear_norm(n):
    Z = random_tuples("kn-gram", n)
    for Y, r in zip(Z, kempf_ness_minimize_all(Z)):
        G = gram_map(Y)
        W = r.point
        nuclear = np.linalg.svd(G, compute_uv=False).sum()
        assert abs(np.sum(np.abs(W) ** 2) - r.achieved_norm_sq) <= 1e-13 * r.achieved_norm_sq
        assert abs(r.achieved_norm_sq - 2.0 * nuclear) <= 1e-13 * r.achieved_norm_sq
        assert np.max(np.abs(gram_map(W) - G)) <= 1e-13 * np.max(np.abs(G))
        # a point of least norm is its own nearest minimal point
        again = kempf_ness_minimize(W)
        assert again.classification == "closed"
        assert np.max(np.abs(again.point - W)) <= 1e-12 * np.max(np.abs(W))


def four_column_det(Y):
    # the entries of the first four components as the columns of a 4 x 4 matrix
    return np.linalg.det(Y[:4].reshape(4, 4).T)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_four_spanning_components_keep_their_orientation(n):
    # SL2 x SL2 acts with determinant one on the four entries; the
    # transpose has the same Gram matrix but lies in the mirror orbit.
    # Components of unequal sizes put the nearest minimal point far from
    # the start
    Z = random_tuples("kn-orient", n) * 4.0 ** np.arange(n)[:, None, None]
    Zt = Z.swapaxes(-1, -2)
    for Y, r, t in zip(Z, kempf_ness_minimize_all(Z), kempf_ness_minimize_all(Zt)):
        bound = 1e-12 * np.prod(np.linalg.norm(Y[:4].reshape(4, 4), axis=1))
        assert abs(four_column_det(r.point) - four_column_det(Y)) <= bound
        assert abs(four_column_det(t.point) + four_column_det(Y)) <= bound


def test_unit_degenerate_leaves_the_sublinear_tail():
    r = kempf_ness_minimize(UNIT_DEGENERATE)
    assert r.classification == "non_closed"
    assert abs(r.achieved_norm_sq - 4.0) <= 1e-13

    rep = saturation_probe(UNIT_DEGENERATE)
    assert rep.certified_in_extended_tube
    assert rep.reduced_margin is not None and rep.reduced_margin > 0
