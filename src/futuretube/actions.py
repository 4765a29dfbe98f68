"""SL2(C), SU(2) and their actions on tuples of 2x2 matrices.

The real group acts by g * Z = g Z conj(g)^t componentwise; its
complexification SL2 x SL2 acts by (g, h) * Z = g Z h^t, and the real
form sits inside the product as g -> (g, conj(g)).  The real Lie algebra
sl2(C) is handled as six real coordinates over the fixed ordered basis

    e1 = [[1,0],[0,-1]]   e2 = [[0,1],[0,0]]   e3 = [[0,0],[1,0]]
    e4 = i e1             e5 = i e2            e6 = i e3

which pins the components of moment values across implementations.
"""

import numpy as np

from .geometry import det2, adj2

__all__ = [
    "BASIS",
    "realize",
    "coefficients",
    "expm_traceless",
    "exp_algebra",
    "make_unimodular",
    "act_real",
    "act_complex",
    "flow_pairs",
    "apply_J",
    "adjoint",
    "sample_sl2",
    "sample_su2",
    "sample_algebra",
    "full_tangent_basis",
    "orbit_fields",
]

_E1 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_E2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_E3 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

BASIS = np.stack([_E1, _E2, _E3, 1j * _E1, 1j * _E2, 1j * _E3])
BASIS_DAG = np.conj(np.swapaxes(BASIS, -1, -2))
_BASIS_ROWS = BASIS.reshape(6, 4)


def realize(xi):
    """Matrix of an algebra vector: sum of c_k e_k (traceless by basis).

    A stack (m, 6) gives the m matrices."""
    xi = np.asarray(xi, dtype=float)
    return np.dot(xi, _BASIS_ROWS).reshape(xi.shape[:-1] + (2, 2))


def coefficients(X):
    """Basis coordinates of a traceless complex 2x2 matrix (exact).

    A stack (m, 2, 2) gives the m coordinate rows (m, 6)."""
    X = np.asarray(X, dtype=complex)
    p = (X[..., 0, 0] - X[..., 1, 1]) / 2
    q = X[..., 0, 1]
    r = X[..., 1, 0]
    return np.stack([p.real, q.real, r.real, p.imag, q.imag, r.imag], axis=-1)


# numpy buffers each broadcast operand of a ufunc call, up to 8192
# elements: past this many entries in an operand, the products of
# expm_traceless and _mul2 are taken entry by entry, which keeps the
# buffers at a quarter of the size and is faster.  Below it one broadcast
# product by columns and rows makes 3 ufunc calls to the entrywise 12,
# and the solvers' small stacks are dominated by that call overhead
# (entrywise at every size made perfbench's orbit-solvers report_s 13%
# slower on 2 vCPUs)
_ENTRYWISE = 1024


def expm_traceless(M):
    """exp of a traceless 2x2: cosh(d) I + sinh(d)/d M with d^2 = -det M.

    Below |d| = 1e-6 a degree-4 series is used; the two branches agree to
    better than 1e-12 in the overlap.  Each matrix of a stack (..., 2, 2)
    takes the branch its own |d| selects.
    """
    M = np.asarray(M, dtype=complex)
    dsq = np.reshape(-det2(M), -1)
    d = np.sqrt(dsq)
    small = np.abs(d) < 1e-6
    c = np.cosh(d)
    s = np.sinh(d) / np.where(small, 1.0, d)
    if small.any():
        q = dsq[small]
        c[small] = 1.0 + q / 2.0 + q * q / 24.0
        s[small] = 1.0 + q / 6.0 + q * q / 120.0
    c, s = c.reshape(M.shape[:-2]), s.reshape(M.shape[:-2])
    # [[c + s M00, s M01], [s M10, c + s M11]]; entry by entry on a large
    # stack, as _mul2 multiplies
    if M.size <= _ENTRYWISE:
        E = s[..., None, None] * M
    else:
        E = np.empty_like(M)
        for r in range(2):
            for k in range(2):
                np.multiply(s, M[..., r, k], out=E[..., r, k])
    E[..., 0, 0] += c
    E[..., 1, 1] += c
    return E


def exp_algebra(xi, t=1.0):
    """Matrix exponential of t * xi for an algebra vector xi."""
    return expm_traceless(t * realize(xi))


def make_unimodular(g):
    """Scale to det 1 with the principal square root of the determinant.

    A stack (m, 2, 2) scales each matrix by its own determinant."""
    g = np.asarray(g, dtype=complex)
    d = det2(g)
    if (np.abs(d) < 1e-12).any():
        raise ValueError("matrix is numerically singular, cannot normalize det")
    return g / np.sqrt(d)[..., None, None]


def act_real(g, Z):
    """Real action g * Z = g Z conj(g)^t componentwise.

    g broadcasts against Z as a matrix product does: a stack (m, 1, 2, 2)
    acts on a stack of points (m, N, 2, 2) point by point."""
    g = np.asarray(g, dtype=complex)
    return g @ np.asarray(Z, dtype=complex) @ g.conj().swapaxes(-1, -2)


def act_complex(p, Z):
    """Complexified action (g, h) * Z = g Z h^t componentwise.

    p is one array (..., 2, 2, 2) with the pair (g, h) on axis -3, as
    flow_pairs gives it; a stack of pairs broadcasts against Z as g does
    in act_real."""
    p = np.asarray(p, dtype=complex)
    gZ = _mul2(p[..., 0, :, :], np.asarray(Z, dtype=complex))
    return _mul2(gZ, p[..., 1, :, :].swapaxes(-1, -2))


def _mul2(X, Y):
    # the 2x2 products X Y, broadcast over leading axes, from numpy's
    # elementwise products (matmul makes one call per matrix of a stack);
    # by columns and rows or entry by entry, the arithmetic is the same
    if max(X.size, Y.size) <= _ENTRYWISE:
        out = X[..., :, :1] * Y[..., :1, :]
        out += X[..., :, 1:] * Y[..., 1:, :]
        return out
    out = np.empty(np.broadcast_shapes(X.shape, Y.shape), dtype=complex)
    for r in range(2):
        for c in range(2):
            o = out[..., r, c]
            np.multiply(X[..., r, 0], Y[..., 0, c], out=o)
            o += X[..., r, 1] * Y[..., 1, c]
    return out


def flow_pairs(xi, tau):
    """Group pair exp(tau * (xi, conj(xi))) for complex time tau, as one
    array with the pair (A, B) on axis -3.

    Real tau gives the real one-parameter flow, tau = i t the transverse
    flow along the complexified direction.  An array of times gives the
    pairs with the shape of tau in front; so does a stack of directions
    (m, 6) with one time each, tau of shape (m,).
    """
    X = realize(xi)
    return expm_traceless(np.asarray(tau)[..., None, None, None] * np.stack([X, np.conj(X)], axis=-3))


def apply_J(V):
    """Ambient complex structure: multiply every entry by i."""
    return 1j * np.asarray(V, dtype=complex)


def adjoint(g, xi):
    """Ad(g) xi = g xi g^{-1} for unimodular g (inverse via adjugate),
    expressed back in the fixed basis (exact linear algebra).

    Stacks g (m, 2, 2) and xi (m, 6) give the m rows of Ad(g_k) xi_k."""
    g = np.asarray(g, dtype=complex)
    return coefficients(g @ realize(xi) @ adj2(g))


def sample_sl2(rng):
    """Random SL2(C) element: complex normal matrix, det-normalized.

    Reads 8 normals of rng, and 8 more for each candidate rejected
    because |det| <= 1e-3.
    """
    while True:
        M = rng.matrix()
        if abs(det2(M)) > 1e-3:
            return make_unimodular(M)


def sample_su2(rng):
    """Random SU(2) element from a normalized complex normal pair.

    Reads 4 normals of rng, and 4 more for each rejected pair of norm
    <= 1e-6.
    """
    while True:
        ar, ai, br, bi = rng.normals(4).tolist()
        a = ar + 1j * ai
        b = br + 1j * bi
        n = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
        if n > 1e-6:
            a, b = a / n, b / n
            return np.array([[a, b], [-np.conj(b), np.conj(a)]])


def sample_algebra(rng):
    """Six standard-normal basis coefficients."""
    return rng.normals(6)


def full_tangent_basis(n):
    """The 4n unit matrix directions of an n-tuple tangent space.

    Order: component index, then entries (0,0), (0,1), (1,0), (1,1).
    """
    return np.eye(4 * n, dtype=complex).reshape(4 * n, n, 2, 2)


# _FIELD_MAP[k] maps the entries (0,0), (0,1), (1,0), (1,1) of a component
# to those of field k: its row p is e_k E_p + E_p e_k^H for the unit matrix E_p
_UNITS = np.eye(4, dtype=complex).reshape(4, 2, 2)
_FIELD_MAP = (
    np.einsum("kab,pbc->kpac", BASIS, _UNITS) + np.einsum("pab,kbc->kpac", _UNITS, BASIS_DAG)
).reshape(6, 4, 4)


def orbit_fields(Z):
    """The six basis vector fields at each point of a stack (..., N, 2, 2),
    shape (..., 6, N, 2, 2).

    Field k is e_k Z + Z e_k^H, linear in the four entries of each
    component, so all six come from one matrix product with the constant
    map _FIELD_MAP, laid out so that the product is already in field
    order and C-contiguous.  The map's entries are 0, +-1, +-2, +-i and
    +-2i, and each field entry is the sum of at most two exact products,
    so the result equals the two products e_k Z and Z e_k^H added, bit
    for bit.
    """
    Z = np.asarray(Z, dtype=complex)
    F = Z.reshape(Z.shape[:-3] + (1, Z.shape[-3], 4)) @ _FIELD_MAP
    return F.reshape(F.shape[:-1] + (2, 2))


def _dots(a, b):
    # dot products of the last axes, each the BLAS dot of a one-row call
    # (so np.linalg.norm of a real row is np.sqrt(_dots(a, a)), bit for bit)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norms(x):
    # np.linalg.norm of each complex row (..., k), bit for bit
    return np.sqrt(_dots(x.real, x.real) + _dots(x.imag, x.imag))
