"""Coordinate identities, tube membership and sampling."""

import numpy as np
import pytest

from futuretube import geometry as G
from futuretube.quotient import gram_map
from futuretube.rng import stream_for

iI = 1j * np.eye(2)


def test_lorentz_product_signature():
    assert G.lorentz_product([1, 0, 0, 0], [1, 0, 0, 0]) == 1
    assert G.lorentz_product([0, 1, 0, 0], [0, 1, 0, 0]) == -1
    # direct bilinear expansion: 1*1 - 1*(-1) = 2
    assert G.lorentz_product([1, 1, 0, 0], [1, -1, 0, 0]) == 2


def test_to_matrix_frozen():
    Z = G.to_matrix([1, 0, 0, 0])
    assert np.allclose(Z, np.eye(2))
    assert G.det2(Z) == 1

    Z = G.to_matrix([0, 0, 0, 1])
    assert np.allclose(Z, np.diag([1.0, -1.0]))
    assert G.det2(Z) == -1

    Z = G.to_matrix([1j, 0, 0, 0])
    assert np.allclose(Z, 1j * np.eye(2))
    assert G.det2(Z) == -1


def test_det_equals_lorentz_square():
    for i in range(200):
        s = stream_for(1, "geom-det", i)
        z = G.sample_four_vector(s)
        zz = G.lorentz_product(z, z)
        assert abs(G.det2(G.to_matrix(z)) - zz) <= 1e-12 * (1 + abs(zz))


def test_from_matrix_roundtrip():
    for i in range(200):
        s = stream_for(1, "geom-rt", i)
        z = G.sample_four_vector(s)
        assert np.max(np.abs(G.from_matrix(G.to_matrix(z)) - z)) <= 1e-14 * (
            1 + np.max(np.abs(z))
        )


def test_hermitian_im_frozen():
    # i*I -> I
    assert np.allclose(G.hermitian_im(iI), np.eye(2))
    # direct evaluation of (Z - Z^H)/2i
    H = G.hermitian_im(np.array([[1j, 3.0], [0.0, 1j]]))
    assert np.allclose(H, np.array([[1.0, -1.5j], [1.5j, 1.0]]))
    assert abs(G.det_im(np.array([[1j, 3.0], [0.0, 1j]])) - (-1.25)) < 1e-15
    # real symmetric kills the imaginary part
    S = np.array([[2.0, 0.7], [0.7, -1.0]], dtype=complex)
    assert np.max(np.abs(G.hermitian_im(S))) == 0.0


def test_hermitian_im_exact_structure():
    for i in range(100):
        s = stream_for(1, "geom-herm", i)
        Z = s.matrix()
        H = G.hermitian_im(Z)
        assert np.array_equal(H, H.conj().T)
        assert H[0, 0].imag == 0.0 and H[1, 1].imag == 0.0
        tr = H[0, 0] + H[1, 1]
        assert tr.imag == 0.0


def test_det_im_matches_lorentz_of_imag_part():
    for i in range(200):
        s = stream_for(1, "geom-imid", i)
        z = G.sample_four_vector(s)
        want = G.lorentz_product(z.imag, z.imag).real
        got = G.det_im(G.to_matrix(z))
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_positive_definite_criterion():
    # a Hermitian H is positive definite iff 1j * H lies in the tube
    assert G.tube_mask(G.as_tuple_point(1j * np.eye(2, dtype=complex)))
    assert not G.tube_mask(G.as_tuple_point(1j * np.diag([1.0, -1.0]).astype(complex)))
    # det < 0 case from the hermitian_im example
    assert not G.tube_mask(G.as_tuple_point(1j * np.array([[1.0, -1.5j], [1.5j, 1.0]])))


def test_tube_membership():
    assert G.tube_mask(np.stack([iI, iI]))
    assert not G.tube_mask(np.stack([iI, np.eye(2, dtype=complex)]))
    Z = np.array([[1j, 1.0], [0.0, 1j]])
    assert G.tube_mask(G.as_tuple_point(Z))
    assert abs(G.det_im(Z) - 0.75) < 1e-15


def _polarized_det(Z, W):
    # the off-diagonal Gram entry (det(Z+W) - det Z - det W)/2
    return complex(gram_map(np.stack([Z, W]))[0, 1])


def test_matrix_lorentz_product():
    assert _polarized_det(iI, iI) == G.det2(iI)
    assert _polarized_det(iI, 1j * np.diag([1.0, -1.0])) == 0
    s = stream_for(1, "geom-pol", 0)
    Z = s.matrix()
    assert _polarized_det(Z, np.zeros((2, 2))) == 0
    # polarization diagonal identity on random input
    assert abs(_polarized_det(Z, Z) - G.det2(Z)) <= 1e-12 * (1 + abs(G.det2(Z)))


def test_tube_sampling_and_det_bound():
    for i in range(300):
        s = stream_for(1, "geom-tube", i)
        W = G.sample_tube_matrix(s)
        assert G.tube_mask(G.as_tuple_point(W))
        # det Im Z <= |det Z| on the tube
        assert G.det_im(W) <= abs(G.det2(W)) + 1e-12


def test_tube_margin_sign():
    s = stream_for(1, "geom-margin", 0)
    W = G.sample_tube_matrix(s)
    assert G.tube_margin(W[None]) > 0
    assert G.tube_margin(-W[None]) < 0


def test_tube_test_and_margin_at_every_magnitude():
    import warnings

    # det Im of the first component is inf - inf in plain arithmetic
    found = np.stack([1e155 * iI + np.array([[0.0, 1e154 + 2e154j], [3e154, 0.0]]), 1e155 * iI])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert G.tube_mask(found)
        # 1e155 - |1e154 (-1 + i)|
        assert G.tube_margin(found) == pytest.approx(1e155 - np.sqrt(2.0) * 1e154, rel=1e-12)
        assert G.tube_margin(found) == pytest.approx(8.5857864376e154, rel=1e-10)
        assert not G.tube_mask(-found)
        # det Im = 1e-340 underflows to 0 in plain arithmetic
        tiny = G.as_tuple_point(1e-170 * iI)
        assert G.tube_mask(tiny)
        assert G.tube_margin(tiny) == 1e-170
        assert not G.tube_mask(-tiny)
        assert not G.tube_mask(np.zeros((1, 2, 2), dtype=complex))


def test_phi_domain_error_outside():
    from futuretube.psh import phi

    with pytest.raises(G.DomainError):
        phi(np.eye(2, dtype=complex)[None])


def test_as_tuple_point_shapes():
    assert G.as_tuple_point(iI).shape == (1, 2, 2)
    assert G.as_tuple_point(np.stack([iI, iI])).shape == (2, 2, 2)
    with pytest.raises(ValueError):
        G.as_tuple_point(np.zeros((3, 3)))
