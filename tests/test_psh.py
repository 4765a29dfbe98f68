"""Potential, derivatives, Levi forms, moment map and flow monotonicity."""

import warnings

import numpy as np
import pytest

from futuretube import actions as A
from futuretube import geometry as G
from futuretube import psh
from futuretube.rng import stream_for
from futuretube.suites import ExperimentConfig, run_suite

iI = 1j * np.eye(2)
E1 = np.array([1.0, 0, 0, 0, 0, 0])


def bare_fd(f, t0, h):
    """Plain central difference, independent of the library helper."""
    return (f(t0 + h) - f(t0 - h)) / (2 * h)


def test_phi_frozen():
    assert psh.phi(np.stack([iI, iI])) == 2.0
    assert psh.phi((2j * np.eye(2))[None]) == 0.25
    assert abs(psh.phi(np.array([[1j, 1.0], [0.0, 1j]])[None]) - 4.0 / 3.0) < 1e-15
    with pytest.raises(G.DomainError):
        psh.phi(np.eye(2, dtype=complex)[None])



def test_phi_when_det_im_overflows():
    # det Im = 1e310 overflows; its inverse is a subnormal double
    assert psh.phi(np.diag([1e155j, 1e155j])[None]) == pytest.approx(1e-310, rel=1e-12)
    assert psh.phi(np.stack([iI, 1e308 * iI])) == 1.0
    # 1 / det Im underflows to zero: never returned as phi = 0.0
    for x in (1e200, 1e308):
        with pytest.raises(G.DomainError):
            psh.phi(np.diag([x * 1j, x * 1j])[None])
        with pytest.raises(G.DomainError):
            psh.phi(np.stack([x * iI, x * iI]))

def test_dphi_frozen():
    # Hermitian tangents have no Im part, so the derivative vanishes
    s = stream_for(3, "psh-dphi", 0)
    Zt = G.as_tuple_point(iI)
    H = G.hermitians(s.normals(4))
    assert psh.dphi(Zt, G.as_tuple_point(H)) == 0.0
    # formula substitution: -(1)^{-1} tr(I) = -2
    assert psh.dphi(Zt, G.as_tuple_point(iI)) == -2.0


def test_dphi_matches_fd():
    for i in range(200):
        s = stream_for(3, "psh-dphi-fd", i)
        Z = G.sample_tube_point(s, 2)
        V = np.stack([s.matrix(), s.matrix()])
        an = psh.dphi(Z, V)
        fd = psh.directional_derivative(psh.phi, Z, V[None])
        assert abs(an - fd[0]) <= 1e-6 * (1 + abs(an))


def test_directional_derivative_basics():
    Z = G.as_tuple_point(iI)

    def f(Y):
        return Y[:, 0, 0, 0].real

    V = np.zeros((1, 1, 2, 2), dtype=complex)
    V[0, 0, 0, 0] = 1.0
    d = psh.directional_derivative(f, Z, V)
    assert abs(d[0] - 1.0) < 1e-12
    z = psh.directional_derivative(psh.phi, Z, 0.0 * V)
    assert z[0] == 0.0


def test_moment_map_zero_on_ip():
    assert np.linalg.norm(psh.moment_map(G.as_tuple_point(iI))) == 0.0
    for i in range(100):
        s = stream_for(3, "psh-ip", i)
        Av = s.matrix()
        P = Av @ Av.conj().T + 0.3 * np.eye(2)
        assert np.linalg.norm(psh.moment_map(G.as_tuple_point(1j * P))) <= 1e-10


def test_moment_calibration_plus_three():
    """The pinned sign convention: component along e1 at I + i diag(2, 1/2).

    Independent oracle: bare finite difference of t -> phi(exp(i t e1) . Z).
    """
    Z = G.as_tuple_point(np.eye(2) + 1j * np.diag([2.0, 0.5]))
    m = psh.moment_map(Z)
    assert abs(m[0] - 3.0) <= 1e-12

    def along(t):
        return psh.phi(A.act_complex(A.flow_pairs(E1, 1j * t), Z))

    assert abs(bare_fd(along, 0.0, 1e-6) - 3.0) <= 1e-4


def test_moment_matches_flow_fd_all_components():
    for i in range(100):
        s = stream_for(3, "psh-mfd", i)
        Z = G.sample_tube_point(s, 2)
        m = psh.moment_map(Z)
        for k in range(6):
            e = np.zeros(6)
            e[k] = 1.0

            def along(t):
                return psh.phi(A.act_complex(A.flow_pairs(e, 1j * t), Z))

            fd = bare_fd(along, 0.0, 1e-6)
            assert abs(m[k] - fd) <= 1e-6 * (1 + abs(fd))


def test_moment_equivariance():
    for i in range(100):
        s = stream_for(3, "psh-equi", i)
        Z = G.sample_tube_point(s, 2)
        g = A.sample_sl2(s)
        xi = A.sample_algebra(s)
        lhs = float(np.dot(psh.moment_map(A.act_real(g, Z)), xi))
        rhs = float(np.dot(psh.moment_map(Z), A.adjoint(A.adj2(g), xi)))
        assert abs(lhs - rhs) <= 1e-6 * (1 + abs(lhs))


def test_phi_invariance():
    for i in range(200):
        s = stream_for(3, "psh-inv", i)
        Z = G.sample_tube_point(s, 2)
        g = A.sample_sl2(s)
        assert abs(psh.phi(A.act_real(g, Z)) - psh.phi(Z)) <= 1e-10 * psh.phi(Z)


def test_levi_calibration():
    # f = |z|^2 on a one-dimensional probe has Levi form [[1]]
    def f(Y):
        return abs(Y[:, 0, 0, 0]) ** 2

    B = np.zeros((1, 1, 2, 2), dtype=complex)
    B[0, 0, 0, 0] = 1.0
    L = psh.levi_form(f, np.zeros((1, 2, 2), dtype=complex) + iI, B)
    assert abs(L[0, 0] - 1.0) < 1e-9

    # pluriharmonic fields have zero Levi form
    def g(Y):
        return 2.0 * Y[:, 0, 0, 1].real - 0.5 * Y[:, 0, 1, 0].imag

    L = psh.levi_form(g, G.as_tuple_point(iI), B)
    assert abs(L[0, 0]) < 1e-10


def test_levi_analytic_matches_stencil():
    for i in range(10):
        s = stream_for(3, "psh-levi", i)
        n = 1 + (i % 2)
        Z = G.sample_tube_point(s, n)
        dirs = A.full_tangent_basis(n)
        Lan = psh.levi_form_phi(Z, dirs)
        Lst = psh.levi_form(psh.phi, Z, dirs)
        assert np.linalg.norm(Lan - Lst) <= 1e-4 * np.linalg.norm(Lst)
        assert np.max(np.abs(Lan - Lan.conj().T)) == 0.0


def test_levi_strictly_positive():
    for i in range(60):
        s = stream_for(3, "psh-spsh", i)
        n = 1 + (i % 3)
        Z = G.sample_tube_point(s, n)
        L = psh.levi_form_phi(Z, A.full_tangent_basis(n))
        assert np.linalg.eigvalsh(L)[0] > 0.0


def test_levi_frozen_value_at_identity_direction():
    # hand computation: L(I, I) = |tr I|^2/2 - tr(adj(I) I^H)/4 = 2 - 1/2
    B = np.zeros((1, 1, 2, 2), dtype=complex)
    B[0, 0] = np.eye(2)
    L = psh.levi_form_phi(G.as_tuple_point(iI), B)
    assert abs(L[0, 0] - 1.5) < 1e-14


def test_stencil_domain_error():
    # close to the boundary along one axis, so an i-step drives det Im < 0
    Z = G.as_tuple_point(1j * np.diag([1e-4, 1.0]))
    B = np.zeros((1, 1, 2, 2), dtype=complex)
    B[0, 0, 0, 0] = 1.0
    with pytest.raises(psh.StencilDomainError):
        psh.levi_form(psh.phi, Z, B)


def test_omega_convention_calibration():
    """omega(1, i) = 4 for f = |z|^2 under d^c = i(d'-d''), omega = -d d^c.

    Reimplements the finite-difference d^c construction locally for the
    calibration field, independent of the library path.
    """

    def f(z):
        return abs(z) ** 2

    def dxy(g, z, v, h=1e-5):
        return (g(z + h * v) - g(z - h * v)) / (2 * h)

    def dc(z, v):
        # d^c f (v) = df(J v)
        return dxy(f, z, 1j * v)

    h = 1e-5
    z0 = 0.3 + 0.2j
    V, W = 1.0, 1j
    dV = (dc(z0 + h * V, W) - dc(z0 - h * V, W)) / (2 * h)
    dW = (dc(z0 + h * W, V) - dc(z0 - h * W, V)) / (2 * h)
    assert abs(-(dV - dW) - 4.0) < 1e-6


def test_omega_antisymmetry_positivity_and_levi_identity():
    for i in range(30):
        s = stream_for(3, "psh-omega", i)
        Z = G.sample_tube_point(s, 2)
        V = np.stack([s.matrix(), s.matrix()])
        W = np.stack([s.matrix(), s.matrix()])
        ovw = psh.omega_eval(Z, V[None], W[None])[0]
        owv = psh.omega_eval(Z, W[None], V[None])[0]
        assert ovw == -owv  # antisymmetric by construction
        assert psh.omega_eval(Z, V[None], V[None])[0] == 0.0
        assert psh.omega_eval(Z, V[None], A.apply_J(V)[None])[0] > 0.0
        # cross-check against the analytic Levi pairing:
        # omega(V, W) = -4 Im sum L_jk V_j conj(W_k)
        L = psh.levi_form_phi(Z, A.full_tangent_basis(2))
        an = -4.0 * float(np.imag(V.reshape(-1) @ L @ np.conj(W.reshape(-1))))
        assert abs(ovw - an) <= 1e-5 * (1 + abs(an))


def test_flow_monotonicity():
    # stationary: i*I is fixed by the unitary-algebra direction e2 - e3
    rot = np.array([0.0, 1.0, -1.0, 0, 0, 0])
    rep = psh.flow_monotonicity(rot[None], G.as_tuple_point(iI)[None], t_max=0.5, steps=10)[0]
    assert rep.nondecreasing and rep.strict_when_moving
    assert max(rep.displacements) <= 1e-12
    assert max(rep.values) - min(rep.values) <= 1e-12

    # single sample at t_max = 0
    rep = psh.flow_monotonicity(E1[None], G.as_tuple_point(iI)[None], t_max=0.0, steps=0)[0]
    assert len(rep.values) == 1 and rep.nondecreasing

    # strictly increasing when the flow moves
    for i in range(60):
        s = stream_for(3, "psh-flow", i)
        Z = G.sample_tube_point(s, 2)
        xi = A.sample_algebra(s)
        xi /= np.linalg.norm(xi)
        rep = psh.flow_monotonicity(xi[None], Z[None], t_max=0.25, steps=25)[0]
        assert rep.nondecreasing
        assert rep.strict_when_moving
        assert len(rep.values) >= 2


def test_flow_truncates_at_domain_exit():
    # a strong push along e1 eventually leaves the tube
    Z = G.as_tuple_point(np.eye(2) * 0.0 + 1j * np.diag([1.0, 0.05]))
    rep = psh.flow_monotonicity(E1[None], Z[None], t_max=3.0, steps=60)[0]
    assert rep.truncated_at is not None
    assert len(rep.values) == rep.truncated_at


# det Im of both components overflows to inf; phi is 2.0025e-310 by rescaling
OVERFLOWING = np.stack([1e155 * iI + 1e154 * np.array([[1.0, 2.0], [3.0, 0.0]]), 1e155 * iI])


def test_derivative_kernels_reject_det_im_overflow():
    assert psh.phi(OVERFLOWING) == pytest.approx(2.0025e-310, rel=1e-4)
    with pytest.raises(G.DomainError):
        psh.dphi(OVERFLOWING, OVERFLOWING)
    with pytest.raises(G.DomainError):
        psh.moment_map(OVERFLOWING)
    with pytest.raises(G.DomainError):
        psh.levi_form_phi(OVERFLOWING, A.full_tangent_basis(2))


def test_dphi_on_a_stack_matches_each_direction():
    Z = G.sample_tube_point(stream_for(5, "psh-dphi-stack", 0), 3)
    F = A.orbit_fields(Z)
    V = np.concatenate([F, A.apply_J(F)])
    values = psh.dphi(Z, V)
    assert values.shape == (12,)
    assert all(values[k] == psh.dphi(Z, V[k]) for k in range(12))
    # moment_map is the closed form of the same six derivatives
    mu = psh.moment_map(Z)
    assert np.max(np.abs(values[6:] - mu)) <= 1e-13 * np.max(np.abs(mu))


@pytest.mark.parametrize("n", [1, 2, 3, 32])
def test_closed_form_orbit_derivatives_match_the_kernels_on_the_fields(n):
    # the moment and the Levi matrices from per-component traces, against
    # dphi along the J fields and levi_form_phi on the fields themselves
    Z = np.stack([G.sample_tube_point(stream_for(5, "psh-orbit-closed", i), n) for i in range(5)])
    F = A.orbit_fields(Z)
    m, levi = psh.orbit_derivatives(Z)
    H = levi(np.ones(5, dtype=bool))
    assert m.shape == (5, 6) and H.shape == (5, 6, 6)
    assert np.array_equal(psh.moment_map(Z), m)
    mu = psh.dphi(Z[:, None], A.apply_J(F))
    L = psh.levi_form_phi(Z, F)
    for i in range(5):
        assert np.max(np.abs(m[i] - mu[i])) <= 1e-13 * np.max(np.abs(mu[i]))
        assert np.max(np.abs(H[i] - L[i])) <= 1e-13 * np.max(np.abs(L[i]))
    # a selection of the rows gives their matrices of the whole stack, bit for bit
    sel = np.array([True, False, True, True, False])
    assert np.array_equal(levi(sel), H[sel])


def test_overflowing_det_im_raises_no_warning():
    # phi rescales and the derivative kernels raise DomainError without a
    # numpy RuntimeWarning first, so warnings-as-errors runs behave the same
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert psh.phi(OVERFLOWING) == pytest.approx(2.0025e-310, rel=1e-4)
        assert psh.phi(np.stack([OVERFLOWING, OVERFLOWING])).shape == (2,)
        for kernel in (
            lambda Z: psh.dphi(Z, Z),
            psh.moment_map,
            lambda Z: psh.levi_form_phi(Z, A.full_tangent_basis(2)),
        ):
            with pytest.raises(G.DomainError):
                kernel(OVERFLOWING)


# Im Z of the first component is 1e155 I plus an off-diagonal of size
# 1.4e154: its det Im overflows as inf - inf, though the point lies in the tube
FOUND = np.stack([1e155 * iI + np.array([[0.0, 1e154 + 2e154j], [3e154, 0.0]]), 1e155 * iI])


def test_negative_definite_points_lie_outside_the_tube():
    # det Im = 1 > 0 at -iI, but Im Z is negative definite
    for Z in (G.as_tuple_point(-iI), np.stack([-iI, iI])):
        for kernel in (
            psh.phi,
            lambda Z: psh.dphi(Z, Z),
            psh.moment_map,
            lambda Z: psh.levi_form_phi(Z, A.full_tangent_basis(len(Z))),
        ):
            with pytest.raises(G.DomainError, match="outside the tube"):
                kernel(Z)


def test_tiny_tube_points_raise_named_domain_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for x in (1e-161, 1e-170):
            Z = G.as_tuple_point(x * iI)
            assert G.tube_mask(Z)
            # 1 / det Im overflows
            with pytest.raises(G.DomainError, match="phi overflows"):
                psh.phi(Z)
        # det Im = 1e-200 is a double, its square is not
        Z = G.as_tuple_point(1e-100 * iI)
        assert psh.phi(Z) == 1e200
        for kernel in (
            lambda Z: psh.dphi(Z, Z),
            psh.moment_map,
            lambda Z: psh.levi_form_phi(Z, A.full_tangent_basis(1)),
        ):
            with pytest.raises(G.DomainError, match="det Im underflows"):
                kernel(Z)
        # det Im = 1e-120: phi and the moment as before
        Z = G.as_tuple_point(1e-60 * iI)
        assert psh.phi(Z) == 1e120
        assert np.array_equal(psh.moment_map(Z), np.zeros(6))


def test_overflowing_tube_point_has_a_phi_and_a_named_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert psh.phi(FOUND) == 2.0204081632653e-310
        assert psh.phi_in_tube(FOUND[None]) == psh.phi(FOUND)
        for kernel in (
            lambda Z: psh.dphi(Z, Z),
            psh.moment_map,
            lambda Z: psh.levi_form_phi(Z, A.full_tangent_basis(2)),
        ):
            with pytest.raises(G.DomainError, match="det Im overflows"):
                kernel(FOUND)


def test_psh_levi_passes_at_seed_2():
    # record 30's stencil check: 1.10e-4 against the 1e-4 bound without the
    # Richardson step, from the O(h^2) truncation error at h = 1e-3
    assert run_suite(ExperimentConfig(suite="psh-levi", seed=2)).verdict == "pass"
