"""Group actions, exponentials, vector fields and the adjoint."""

import numpy as np
import pytest

from futuretube import actions as A
from futuretube import geometry as G
from futuretube.rng import stream_for

iI = 1j * np.eye(2)
E1 = np.array([1.0, 0, 0, 0, 0, 0])


def central_difference(f, t, h=1e-5):
    return (f(t + h) - f(t - h)) / (2 * h)


def test_exp_algebra_frozen():
    assert np.allclose(A.exp_algebra(np.zeros(6), 3.7), np.eye(2))
    t = 0.83
    assert np.allclose(A.exp_algebra(E1, t), np.diag([np.exp(t), np.exp(-t)]))
    rot = np.array([0.0, 1.0, -1.0, 0, 0, 0])  # e2 - e3
    want = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    assert np.allclose(A.exp_algebra(rot, t), want)


def test_exp_det_one_and_series_overlap():
    for i in range(100):
        s = stream_for(2, "act-exp", i)
        xi = A.sample_algebra(s)
        E = A.exp_algebra(xi, 0.5)
        assert abs(G.det2(E) - 1) < 1e-10
    # both branches agree around the series threshold
    s = stream_for(2, "act-exp-small", 0)
    xi = A.sample_algebra(s)
    M = A.realize(xi)
    M /= np.linalg.norm(M)
    for eps in (2e-6, 1e-6, 5e-7):
        direct = A.expm_traceless(eps * M)
        acc = np.eye(2, dtype=complex)
        term = np.eye(2, dtype=complex)
        for k in range(1, 10):
            term = term @ (eps * M) / k
            acc = acc + term
        assert np.max(np.abs(direct - acc)) < 1e-12


def test_act_real_frozen():
    Z = G.as_tuple_point(iI)
    assert np.allclose(A.act_real(np.eye(2), Z), Z)
    r = 1.7
    g = np.diag([r, 1 / r]).astype(complex)
    assert np.allclose(A.act_real(g, iI), 1j * np.diag([r**2, r**-2]))


def test_act_real_preserves_det_tube_and_im_conjugation():
    for i in range(200):
        s = stream_for(2, "act-real", i)
        Z = G.sample_tube_point(s, 2)
        g = A.sample_sl2(s)
        W = A.act_real(g, Z)
        assert G.tube_mask(W)
        assert np.max(np.abs(G.det2(W) - G.det2(Z))) <= 1e-10 * (1 + np.max(np.abs(G.det2(Z))))
        want = g @ G.hermitian_im(Z) @ g.conj().T
        assert np.max(np.abs(G.hermitian_im(W) - want)) <= 1e-10 * (1 + np.max(np.abs(want)))


def test_act_complex_group_law_and_embedding():
    for i in range(100):
        s = stream_for(2, "act-cplx", i)
        Z = G.sample_tube_point(s, 2)
        g = A.sample_sl2(s)
        p = np.stack([g, np.conj(g)])
        assert np.max(np.abs(A.act_complex(p, Z) - A.act_real(g, Z))) <= 1e-12 * (
            1 + np.max(np.abs(Z))
        )
        p1 = A.make_unimodular(np.stack([s.matrix() + 2 * np.eye(2), s.matrix() + 2 * np.eye(2)]))
        p2 = A.make_unimodular(np.stack([s.matrix() + 2 * np.eye(2), s.matrix() + 2 * np.eye(2)]))
        lhs = A.act_complex(p1, A.act_complex(p2, Z))
        rhs = A.act_complex(p1 @ p2, Z)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + np.max(np.abs(rhs)))
        assert np.max(np.abs(G.det2(A.act_complex(p1, Z)) - G.det2(Z))) <= 1e-9 * (
            1 + np.max(np.abs(G.det2(Z)))
        )


def test_act_complex_matches_the_matrix_products():
    # the broadcast shapes of orbit_minimize_all's trial points, (k, 1) pairs on k
    # points, and of flow_monotonicity's grids, (s, T, 1) pairs on (s, 1)
    s = stream_for(2, "act-cplx-matmul", 0)
    pairs = np.stack([np.stack([A.sample_sl2(s), A.sample_sl2(s)]) for _ in range(12)])
    for p, Z in (
        (pairs[:, None], np.stack([G.sample_tube_point(s, 32) for _ in range(12)])),
        (pairs.reshape(3, 4, 1, 2, 2, 2), np.stack([G.sample_tube_point(s, 2) for _ in range(3)])[:, None]),
    ):
        ref = p[..., 0, :, :] @ Z @ p[..., 1, :, :].swapaxes(-1, -2)
        got = A.act_complex(p, Z)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_act_complex_on_stacked_pairs_equals_the_one_pair_calls():
    s = stream_for(2, "act-cplx-stack", 0)
    g = np.stack([A.sample_sl2(s) for _ in range(3)])
    h = np.stack([A.sample_sl2(s) for _ in range(3)])
    W = s.matrix()
    Zs = np.stack([G.sample_tube_point(s, 2) for _ in range(3)])
    # three pairs on one matrix, and pair i on point i of a stack
    on_one = A.act_complex(np.stack([g, h], axis=1), W)
    on_each = A.act_complex(np.stack([g, h], axis=1)[:, None], Zs)
    assert on_one.shape == (3, 2, 2) and on_each.shape == (3, 2, 2, 2)
    for i in range(3):
        assert np.array_equal(on_one[i], A.act_complex(np.stack([g[i], h[i]]), W))
        assert np.array_equal(on_each[i], A.act_complex(np.stack([g[i], h[i]]), Zs[i]))


def real_field(xi, Z):
    # the field of xi under the real action, sum_k xi_k F_k
    return np.tensordot(xi, A.orbit_fields(Z), 1)


def test_real_vector_field_frozen_and_fd():
    # e1 at i*I: i(e1 + e1) = 2i e1
    V = real_field(E1, G.as_tuple_point(iI))
    assert np.allclose(V[0], 2j * np.diag([1.0, -1.0]))
    assert np.max(np.abs(real_field(np.zeros(6), G.as_tuple_point(iI)))) == 0

    for i in range(50):
        s = stream_for(2, "act-field", i)
        Z = G.sample_tube_point(s, 2)
        xi = A.sample_algebra(s)

        def curve(t):
            return A.act_real(A.exp_algebra(xi, t), Z)

        fd = (curve(1e-5) - curve(-1e-5)) / 2e-5
        assert np.max(np.abs(real_field(xi, Z) - fd)) <= 1e-8 * (
            1 + np.max(np.abs(fd))
        )


def test_real_vector_field_linear_in_xi():
    s = stream_for(2, "act-lin", 0)
    Z = G.sample_tube_point(s, 2)
    a, b = A.sample_algebra(s), A.sample_algebra(s)
    lhs = real_field(2.5 * a - 0.5 * b, Z)
    rhs = 2.5 * real_field(a, Z) - 0.5 * real_field(b, Z)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1 + np.max(np.abs(rhs)))


def test_apply_J():
    s = stream_for(2, "act-J", 0)
    V = np.stack([s.matrix(), s.matrix()])
    assert np.max(np.abs(A.apply_J(A.apply_J(V)) + V)) == 0
    # J of the real field is the derivative of the transverse flow
    Z = G.sample_tube_point(s, 2)
    xi = A.sample_algebra(s)

    def curve(t):
        return A.act_complex(A.flow_pairs(xi, 1j * t), Z)

    fd = (curve(1e-5) - curve(-1e-5)) / 2e-5
    want = A.apply_J(real_field(xi, Z))
    assert np.max(np.abs(want - fd)) <= 1e-8 * (1 + np.max(np.abs(fd)))


def test_conjugation_action():
    # adjoint is the conjugation g xi g^-1 read back in the basis
    g = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    assert np.allclose(A.adjoint(g, [0, 0, 1, 0, 0, 0]), [0, -1, 0, 0, 0, 0])  # e3 -> -e2
    for i in range(100):
        s = stream_for(2, "act-conj", i)
        g = A.sample_sl2(s)
        xi = A.sample_algebra(s)
        want = g @ A.realize(xi) @ np.linalg.inv(g)
        got = A.realize(A.adjoint(g, xi))
        assert np.max(np.abs(got - want)) <= 1e-10 * (1 + np.max(np.abs(want)))


def test_adjoint_properties():
    s = stream_for(2, "act-adj", 0)
    for i in range(100):
        g = A.sample_sl2(s)
        xi = A.sample_algebra(s)
        eta = A.sample_algebra(s)
        assert np.allclose(A.adjoint(np.eye(2), xi), xi)
        back = A.adjoint(g, A.adjoint(A.adj2(g), xi))
        assert np.max(np.abs(back - xi)) <= 1e-10 * (1 + np.max(np.abs(xi)))
        # bracket compatibility through the matrix realization
        X, Y = A.realize(xi), A.realize(eta)
        br = A.coefficients(X @ Y - Y @ X)
        lhs = A.adjoint(g, br)
        Xg, Yg = A.realize(A.adjoint(g, xi)), A.realize(A.adjoint(g, eta))
        rhs = A.coefficients(Xg @ Yg - Yg @ Xg)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * (1 + np.max(np.abs(rhs)))


def test_group_pair_normalization():
    s = stream_for(2, "act-pair", 0)
    p = A.make_unimodular(np.stack([3.0 * s.matrix(), 0.2 * s.matrix()]))
    assert abs(G.det2(p[0]) - 1) < 1e-10
    assert abs(G.det2(p[1]) - 1) < 1e-10
    with pytest.raises(ValueError):
        A.make_unimodular(np.zeros((2, 2)))


def test_coefficients_realize_roundtrip():
    for i in range(50):
        s = stream_for(2, "act-coef", i)
        xi = A.sample_algebra(s)
        assert np.allclose(A.coefficients(A.realize(xi)), xi)
