"""Kempf-Ness solver: the non-closed unit-degenerate pair, the chart
derivatives against a direct formula and finite differences, and the
Hermitian directions the Newton step moves along."""

import numpy as np

from futuretube.actions import BASIS, expm_traceless, realize
from futuretube.quotient import (
    _HERM,
    _kn_gradient_hessian,
    _norm_sq,
    kempf_ness_minimize,
    saturation_probe,
)
from futuretube.rng import stream_for

iI = 1j * np.eye(2)
# (iI, iI + 0.5 shear): its orbit is not closed, the infimum 4 sits at (iI, iI)
UNIT_DEGENERATE = np.stack([iI, iI + 0.5 * np.array([[0.0, 1.0], [0.0, 0.0]])])


def einsum_gradient_hessian(Y):
    """The chart gradient and Hessian written out as separate einsums."""
    S = np.einsum("nij,nkj->ik", Y, np.conj(Y))
    T = np.einsum("nji,njk->ik", np.conj(Y), Y)
    ga = 2.0 * np.einsum("kij,ji->k", BASIS, S).real
    gb = 2.0 * np.einsum("kji,ji->k", BASIS, T).real
    grad = np.concatenate([ga, gb])

    VL = np.einsum("kab,nbc->knac", BASIS, Y)
    VR = np.einsum("nab,kcb->knac", Y, BASIS)
    V = np.concatenate([VL, VR])
    G = 2.0 * np.einsum("knab,lnab->kl", np.conj(V), V).real
    BB = np.einsum("kab,lbc->klac", BASIS, BASIS)
    C_LL = np.einsum("klac,ca->kl", BB, S)
    C_LL = (C_LL + C_LL.T).real
    Bt = np.swapaxes(BASIS, 1, 2)
    BBt = np.einsum("kab,lbc->klac", Bt, Bt)
    C_RR = np.einsum("klac,ca->kl", BBt, T)
    C_RR = (C_RR + C_RR.T).real
    T1 = np.einsum("nba,kbc,ncd->knad", np.conj(Y), BASIS, Y)
    C_LR = 2.0 * np.einsum("knad,lad->kl", T1, BASIS).real
    H = G + np.block([[C_LL, C_LR], [C_LR.T, C_RR]])
    return grad, H


def random_tuple(i, n):
    s = stream_for(5, "kn-kernel", i)
    return np.stack([s.matrix() for _ in range(n)])


def test_unit_degenerate_leaves_the_sublinear_tail():
    r = kempf_ness_minimize(UNIT_DEGENERATE)
    assert r.classification == "closed"
    assert r.iterations <= 300
    assert abs(r.achieved_norm_sq - 4.0) <= 1e-6

    rep = saturation_probe(UNIT_DEGENERATE)
    assert rep.verdict == "certified"
    assert rep.reduced_margin is not None and rep.reduced_margin > 0


def test_gradient_hessian_matches_einsum_formula():
    for n in (1, 2, 3, 8):
        for i in range(5):
            Y = random_tuple(10 * n + i, n)
            grad, H = _kn_gradient_hessian(Y)
            ref_grad, ref_H = einsum_gradient_hessian(Y)
            assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))
            assert np.max(np.abs(H - ref_H)) <= 1e-12 * np.max(np.abs(ref_H))
            assert np.array_equal(H, H.T)


def test_gradient_hessian_finite_differences():
    # F(exp(t d_g) Y exp(t d_h)^t) along random chart directions d
    for i in range(5):
        Y = random_tuple(100 + i, 3)
        grad, H = _kn_gradient_hessian(Y)
        d = stream_for(5, "kn-fd-dir", i).normals(12)

        def F(t):
            A, B = expm_traceless(realize(t * d[:6])), expm_traceless(realize(t * d[6:]))
            return _norm_sq(A @ Y @ B.T)

        h = 1e-4
        first = (F(h) - F(-h)) / (2 * h)
        second = (F(h) - 2 * F(0.0) + F(-h)) / h**2
        scale = _norm_sq(Y) * (1 + float(d @ d))
        assert abs(first - grad @ d) <= 1e-6 * scale
        assert abs(second - d @ H @ d) <= 1e-4 * scale


def test_hermitian_directions():
    assert np.allclose(_HERM.T @ _HERM, np.eye(6))
    for c in _HERM.T:
        for x in (c[:6], c[6:]):
            assert np.allclose(realize(x), realize(x).conj().T)
    # the complement generates SU(2) x SU(2): no gradient there, and the
    # Hessian on the Hermitian directions is positive semidefinite
    gauge = np.eye(12) - _HERM @ _HERM.T
    for i in range(20):
        Y = random_tuple(200 + i, 3)
        grad, H = _kn_gradient_hessian(Y)
        assert np.linalg.norm(gauge @ grad) <= 1e-12 * np.linalg.norm(grad)
        w = np.linalg.eigvalsh(_HERM.T @ H @ _HERM)
        assert w[0] >= -1e-12 * w[-1]
