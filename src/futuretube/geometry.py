"""Lorentz four-vectors, 2x2 matrix coordinates and the tube domain.

The matrix picture is canonical here: a four-vector z = (z0, z1, z2, z3)
maps to

    Z = [[z0 + z3, z1 - i z2],
         [z1 + i z2, z0 - z3]]

so that det Z equals the complex-bilinear Lorentz square <z, z>.  The tube
is the set of matrices whose Hermitian imaginary part (Z - Z^H)/2i is
positive definite; tuples belong componentwise.  All values are plain
numpy arrays: a matrix point is (2, 2) complex, a tuple point (N, 2, 2).
Every kernel of the package takes tuple points as a stack (..., N, 2, 2)
and matrices as (..., 2, 2) and returns results with the same leading
axes; a bare matrix becomes a tuple point (as_tuple_point) only where
input enters the program.
"""

import numpy as np

__all__ = [
    "DomainError",
    "IDENTITY",
    "lorentz_product",
    "to_matrix",
    "from_matrix",
    "det2",
    "adj2",
    "hermitian_im",
    "det_im",
    "scaled_det_im",
    "as_tuple_point",
    "tube_mask",
    "tube_margin",
    "four_vectors",
    "hermitians",
    "tube_matrices",
    "sample_four_vector",
    "sample_tube_matrix",
    "sample_tube_point",
]


class DomainError(ValueError):
    """Raised when a point leaves the domain of the requested quantity."""


IDENTITY = np.eye(2, dtype=complex)


def lorentz_product(z, w):
    """Complex-bilinear product z0*w0 - z1*w1 - z2*w2 - z3*w3 of
    four-vectors (..., 4)."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    p = z[..., 0] * w[..., 0] - z[..., 1] * w[..., 1]
    return p - z[..., 2] * w[..., 2] - z[..., 3] * w[..., 3]


def to_matrix(z):
    """Matrix coordinates of a four-vector; det(to_matrix(z)) = <z, z>.

    A stack (..., 4) gives the matrices (..., 2, 2)."""
    z = np.asarray(z, dtype=complex)
    Z = np.empty(z.shape[:-1] + (2, 2), dtype=complex)
    Z[..., 0, 0] = z[..., 0] + z[..., 3]
    Z[..., 0, 1] = z[..., 1] - 1j * z[..., 2]
    Z[..., 1, 0] = z[..., 1] + 1j * z[..., 2]
    Z[..., 1, 1] = z[..., 0] - z[..., 3]
    return Z


def from_matrix(Z):
    """Inverse of to_matrix; a stack (..., 2, 2) gives the four-vectors (..., 4)."""
    Z = np.asarray(Z, dtype=complex)
    x, y = Z[..., 0, 0], Z[..., 0, 1]
    w, v = Z[..., 1, 0], Z[..., 1, 1]
    return np.stack([(x + v) / 2, (y + w) / 2, (w - y) / (2j), (x - v) / 2], axis=-1)


def det2(M):
    """Determinant of 2x2 matrices, vectorized over leading axes."""
    M = np.asarray(M)
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def adj2(M):
    """Adjugate of 2x2 matrices; M @ adj2(M) = det2(M) * I."""
    M = np.asarray(M)
    out = np.empty_like(M)
    out[..., 0, 0] = M[..., 1, 1]
    out[..., 0, 1] = -M[..., 0, 1]
    out[..., 1, 0] = -M[..., 1, 0]
    out[..., 1, 1] = M[..., 0, 0]
    return out


def _im_parts(Z):
    """Diagonal a, d of hermitian_im(Z) and b = i times its (0,1) entry."""
    a = Z[..., 0, 0].imag
    d = Z[..., 1, 1].imag
    b = (Z[..., 0, 1] - np.conj(Z[..., 1, 0])) * 0.5
    return a, d, b


def hermitian_im(Z):
    """(Z - Z^H)/2i, built exactly Hermitian: real diagonal, one stored
    off-diagonal value and its conjugate."""
    Z = np.asarray(Z, dtype=complex)
    a, d, b = _im_parts(Z)
    H = np.empty_like(Z)
    H[..., 0, 0] = a
    H[..., 1, 1] = d
    H[..., 0, 1] = -1j * b
    H[..., 1, 0] = np.conj(H[..., 0, 1])
    return H


def det_im(Z):
    """det(hermitian_im(Z)) computed in real arithmetic."""
    a, d, b = _im_parts(np.asarray(Z, dtype=complex))
    return a * d - (b.real**2 + b.imag**2)


def _scaled_im_parts(Z):
    """a, d, Re b and Im b of _im_parts(Z) times 2^-e, and e, the
    np.frexp exponent of the largest of the four in each component (not
    the largest exponent: a zero part has exponent 0).  The scaling is
    exact: a formula of degree k in them, times 2^(k e), is the unscaled
    formula bit for bit wherever both stay normal doubles."""
    a, d, b = _im_parts(np.asarray(Z, dtype=complex))
    br, bi = b.real, b.imag
    e = np.frexp(np.fmax(np.fmax(np.fabs(a), np.fabs(d)), np.fmax(np.fabs(br), np.fabs(bi))))[1]
    return np.ldexp(a, -e), np.ldexp(d, -e), np.ldexp(br, -e), np.ldexp(bi, -e), e


def scaled_det_im(Z):
    """det_im(Z) as (a, q, e) with det Im = q 2^(2e) and a = Im Z_00 2^-e;
    q is at most 1 in size, so no finite point overflows it."""
    a, d, br, bi, e = _scaled_im_parts(Z)
    return a, a * d - (br**2 + bi**2), e


def as_tuple_point(Z):
    """Coerce a (2,2) matrix or an (N,2,2) stack, N >= 1, to tuple-point shape."""
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim == 2:
        Z = Z[None, :, :]
    if Z.ndim != 3 or Z.shape[1:] != (2, 2) or len(Z) == 0:
        raise ValueError(f"expected (N,2,2) tuple point, got shape {Z.shape}")
    return Z


def tube_mask(Z):
    """Per-point tube test over a stack (..., N, 2, 2) of tuple points.

    A point is in the tube iff every component has positive definite
    Hermitian imaginary part, a > 0 and q > 0 of scaled_det_im, at every
    magnitude of finite entries; a stack (m, N, 2, 2) gives m booleans.
    """
    a, q, _ = scaled_det_im(Z)
    return np.all((a > 0) & (q > 0), axis=-1)


def tube_margin(Z):
    """Smallest eigenvalue of hermitian_im over all components of each
    point of a stack (..., N, 2, 2).

    Positive exactly on the tube; used as a robust membership margin.
    It is taken of the scaled parts of _scaled_im_parts and scaled back.
    """
    a, d, br, bi, e = _scaled_im_parts(Z)
    rad = np.sqrt((a - d) ** 2 + 4.0 * (br**2 + bi**2))
    return np.min(np.ldexp((a + d - rad) / 2.0, e), axis=-1)


def four_vectors(x):
    """Complex four-vectors from (..., 8) normals, real and imaginary parts interleaved."""
    return x[..., 0::2] + 1j * x[..., 1::2]


def hermitians(x):
    """Hermitian 2x2 matrices from (..., 4) normals: diagonal a, d, off-diagonal q."""
    q = x[..., 2] + 1j * x[..., 3]
    H = np.empty(x.shape[:-1] + (2, 2), dtype=complex)
    H[..., 0, 0] = x[..., 0]
    H[..., 0, 1] = q
    H[..., 1, 0] = np.conj(q)
    H[..., 1, 1] = x[..., 1]
    return H


def tube_matrices(x):
    """Tube members Z = R + iP from (..., 12) normals.

    The first 8 give A (entries in row order), the last 4 the Hermitian
    R; P = A A^H + 0.1 I is positive definite, and its 0.1 margin keeps
    samples away from the boundary of the cone.
    """
    A = four_vectors(x[..., :8]).reshape(x.shape[:-1] + (2, 2))
    P = A @ np.conj(np.swapaxes(A, -1, -2)) + 0.1 * IDENTITY
    return hermitians(x[..., 8:]) + 1j * P


# The samplers read rng.normals(m) into the formulas above.  A stream
# gives one sample; a block of streams, whose normals(m) has shape
# (count, m), gives all of its samples stacked along a leading axis.


def sample_four_vector(rng):
    """Four complex components with standard-normal real and imaginary parts."""
    return four_vectors(rng.normals(8))


def sample_tube_matrix(rng):
    """Random tube member from 12 normals of rng; see tube_matrices."""
    return tube_matrices(rng.normals(12))


def sample_tube_point(rng, n):
    """Random n-tuple of tube members from 12 n normals of rng."""
    x = rng.normals(12 * n)
    return tube_matrices(x.reshape(x.shape[:-1] + (n, 12)))
