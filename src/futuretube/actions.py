"""SL2(C), SU(2) and their actions on tuples of 2x2 matrices.

The real group acts by g * Z = g Z conj(g)^t componentwise; its
complexification SL2 x SL2 acts by (g, h) * Z = g Z h^t, and the real
form sits inside the product as g -> (g, conj(g)).  The real Lie algebra
sl2(C) is handled as six real coordinates over the fixed ordered basis

    e1 = [[1,0],[0,-1]]   e2 = [[0,1],[0,0]]   e3 = [[0,0],[1,0]]
    e4 = i e1             e5 = i e2            e6 = i e3

which pins the components of moment values across implementations.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import IDENTITY, as_tuple_point, det2, adj2

__all__ = [
    "BASIS",
    "GroupPair",
    "realize",
    "coefficients",
    "expm_traceless",
    "exp_algebra",
    "make_unimodular",
    "act_real",
    "act_complex",
    "flow_pair",
    "flow_point",
    "real_vector_field",
    "apply_J",
    "conjugation_action",
    "adjoint",
    "sample_sl2",
    "sample_su2",
    "sample_algebra",
    "damped_newton",
    "descend",
]

_E1 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_E2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_E3 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

BASIS = np.stack([_E1, _E2, _E3, 1j * _E1, 1j * _E2, 1j * _E3])
BASIS_DAG = np.conj(np.swapaxes(BASIS, -1, -2))
_BASIS_ROWS = BASIS.reshape(6, 4)


def realize(xi):
    """Matrix of an algebra vector: sum of c_k e_k (traceless by basis)."""
    return np.dot(np.asarray(xi, dtype=float), _BASIS_ROWS).reshape(2, 2)


def coefficients(X):
    """Basis coordinates of a traceless complex 2x2 matrix (exact)."""
    X = np.asarray(X, dtype=complex)
    p = (X[0, 0] - X[1, 1]) / 2
    q = X[0, 1]
    r = X[1, 0]
    return np.array([p.real, q.real, r.real, p.imag, q.imag, r.imag])


def expm_traceless(M):
    """exp of a traceless 2x2: cosh(d) I + sinh(d)/d M with d^2 = -det M.

    Below |d| = 1e-6 a degree-4 series is used; the two branches agree to
    better than 1e-12 in the overlap.  A stack (m, 2, 2) gives the m
    exponentials, each with the branch its own |d| selects, equal to the
    one-matrix calls.
    """
    M = np.asarray(M, dtype=complex)
    dsq = np.reshape(-det2(M), -1)
    d = np.sqrt(dsq)
    c = np.empty_like(d)
    s = np.empty_like(d)
    small = np.abs(d) < 1e-6
    q = dsq[small]
    c[small] = 1.0 + q / 2.0 + q * q / 24.0
    s[small] = 1.0 + q / 6.0 + q * q / 120.0
    big = ~small
    c[big] = np.cosh(d[big])
    s[big] = np.sinh(d[big]) / d[big]
    shape = M.shape[:-2] + (1, 1)
    return c.reshape(shape) * IDENTITY + s.reshape(shape) * M


def exp_algebra(xi, t=1.0):
    """Matrix exponential of t * xi for an algebra vector xi."""
    return expm_traceless(t * realize(xi))


def make_unimodular(g):
    """Scale to det 1 with the principal square root of the determinant."""
    g = np.asarray(g, dtype=complex)
    d = det2(g)
    if abs(d) < 1e-12:
        raise ValueError("matrix is numerically singular, cannot normalize det")
    return g / np.sqrt(d)


@dataclass(frozen=True)
class GroupPair:
    """Element (g, h) of SL2 x SL2; factors are det-normalized on make()."""

    g: np.ndarray
    h: np.ndarray

    @classmethod
    def make(cls, g, h):
        return cls(make_unimodular(g), make_unimodular(h))

    @classmethod
    def real_form(cls, g):
        g = make_unimodular(g)
        return cls(g, np.conj(g))

    @classmethod
    def identity(cls):
        return cls(IDENTITY.copy(), IDENTITY.copy())


def act_real(g, Z):
    """Real action g * Z = g Z conj(g)^t componentwise."""
    g = np.asarray(g, dtype=complex)
    return g @ np.asarray(Z, dtype=complex) @ g.conj().T


def act_complex(p, Z):
    """Complexified action (g, h) * Z = g Z h^t componentwise."""
    if isinstance(p, GroupPair):
        g, h = p.g, p.h
    else:
        g, h = p
    g, h = np.asarray(g, dtype=complex), np.asarray(h, dtype=complex)
    return g @ np.asarray(Z, dtype=complex) @ h.T


def flow_pair(xi, tau):
    """Group pair exp(tau * (xi, conj(xi))) for complex time tau.

    Real tau gives the real one-parameter flow, tau = i t the transverse
    flow along the complexified direction.  An array of times gives two
    stacks of matrices with the shape of tau in front.
    """
    X = realize(xi)
    E = expm_traceless(np.asarray(tau)[..., None, None, None] * np.stack([X, np.conj(X)]))
    return E[..., 0, :, :], E[..., 1, :, :]


def flow_point(xi, tau, Z):
    """Point moved by flow_pair(xi, tau).

    A 1-d array of m times gives the stack of the m moved points.
    """
    Z = np.asarray(Z, dtype=complex)
    # one axis per tuple axis of Z, so each pair acts on every component
    tau = np.reshape(tau, np.shape(tau) + (1,) * (Z.ndim - 2))
    A, B = flow_pair(xi, tau)
    return A @ Z @ np.swapaxes(B, -1, -2)


def real_vector_field(xi, Z):
    """d/dt at 0 of act_real(exp(t xi), Z): xi Z + Z xi^H componentwise."""
    X = realize(xi)
    Z = np.asarray(Z, dtype=complex)
    return X @ Z + Z @ X.conj().T


def apply_J(V):
    """Ambient complex structure: multiply every entry by i."""
    return 1j * np.asarray(V, dtype=complex)


def conjugation_action(g, X):
    """g X g^{-1} for unimodular g (inverse via adjugate)."""
    g = np.asarray(g, dtype=complex)
    return g @ np.asarray(X, dtype=complex) @ adj2(g)


def adjoint(g, xi):
    """Ad(g) xi expressed back in the fixed basis (exact linear algebra)."""
    return coefficients(conjugation_action(g, realize(xi)))


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


def orbit_fields(Z):
    """Stack of the six basis vector fields at Z, shape (6, N, 2, 2)."""
    Z = as_tuple_point(Z)
    return np.einsum("kab,nbc->knac", BASIS, Z) + np.einsum(
        "nab,kbc->knac", Z, BASIS_DAG
    )


def damped_newton(grad, H, lam):
    """Step d solving (H + lam I) d = -grad, with the derivative grad . d.

    Both solvers pass a positive semidefinite H taken along non-compact
    directions only: orbit_minimize the Levi matrix of phi along the
    transverse fields, kempf_ness_minimize the chart Hessian of the norm
    restricted to the Hermitian directions.  So lam > 0 is plain
    Levenberg damping, and no shift for negative curvature is needed.
    Falls back to steepest descent -grad when the solve fails or does not
    give a descent direction, so the returned derivative is always < 0
    for a nonzero gradient.
    """
    fallback = -grad, -float(grad @ grad)
    try:
        d = np.linalg.solve(H + lam * np.eye(len(grad)), -grad)
    except np.linalg.LinAlgError:
        return fallback
    deriv = float(grad @ d)
    if not np.isfinite(deriv) or deriv >= 0.0:
        return fallback
    return d, deriv


def descend(Y, value, model, chart, objective, max_iters):
    """Armijo descent of an objective over an exponential chart of SL2 x SL2.

    model(Y, value, pair) is called at the start and after every accepted
    move, so its last call describes the returned point; the GroupPair
    carries the start to Y.  It returns None to stop, or a function giving a
    direction d and the derivative (< 0) of the objective along it, called
    only while iterations remain.  chart(d, s) gives the pair (A, B) of
    the step s d; the trial point is A Y B^t.  objective(Yt) is inf
    outside its domain.

    Steps start at 1 and halve until objective(Yt) <= value + 1e-4 s deriv;
    a step below 1e-18 ends the descent.  The pair is renormalized to
    det 1 after every move.  Returns the final point, its value, the pair
    and the number of accepted moves.
    """
    pair = GroupPair.identity()
    it = 0
    while True:
        direction = model(Y, value, pair)
        if direction is None or it >= max_iters:
            break
        d, deriv = direction()
        s = 1.0
        while s >= 1e-18:
            A, B = chart(d, s)
            Yt = A @ Y @ B.T
            vt = objective(Yt)
            if vt <= value + 1e-4 * s * deriv:
                break
            s *= 0.5
        else:
            break
        Y, value = Yt, vt
        pair = GroupPair.make(A @ pair.g, B @ pair.h)
        it += 1
    return Y, value, pair, it
