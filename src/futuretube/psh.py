"""The invariant exhaustion, its derivatives, Levi forms and moment map.

The potential is

    phi(Z) = sum_j 1 / det Im(Z^j)

on tuples in the tube.  Conventions are pinned once and used everywhere:
d^c = i(d' - d'') so that d^c phi(V) = dphi(J V), the form is
omega = 2i d'd'' phi = -d d^c phi, and the moment value along a basis
direction e_k is

    mu_k(Z) = dphi(J field_k(Z)) = d/dt phi(exp(i t e_k) . Z) at t = 0.

On the calibration field |z|^2 over C these conventions give a Levi form
of 1 and omega(1, i) = 4.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import (
    DomainError,
    adj2,
    det_im,
    hermitian_im,
    scaled_det_im,
    tube_mask,
)
from .actions import (
    _FIELD_MAP,
    _dots,
    act_complex,
    apply_J,
    flow_pairs,
    real_vector_field,
)

__all__ = [
    "StencilDomainError",
    "FlowReport",
    "phi",
    "dphi",
    "directional_derivative",
    "moment_map",
    "levi_form",
    "levi_form_phi",
    "orbit_derivatives",
    "phi_in_tube",
    "omega_eval",
    "flow_monotonicity",
]


class StencilDomainError(DomainError):
    """A finite-difference stencil point left the domain; resample or shrink."""


def _positive_det_im(Z):
    """det_im(Z) in plain arithmetic; DomainError unless it is finite and
    Z lies in the tube.  The scaled tube test runs only to name an error."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = det_im(Z)
    if not d.max(initial=0.0) < np.inf:
        raise DomainError("det Im overflows: the point is too large to evaluate")
    if not (d.min(initial=np.inf) > 0.0 and Z[..., 0, 0].imag.min(initial=np.inf) > 0.0):
        if tube_mask(Z).all():
            raise DomainError("det Im underflows: the point is too small to evaluate")
        raise DomainError("Im Z is not positive definite: point is outside the tube")
    return d


def _nonzero(p):
    # a power of det Im values d > 0, taken with overflows ignored: inf
    # makes its terms 0, but 0 (an underflow) raises DomainError
    if not p.min(initial=np.inf) > 0.0:
        raise DomainError("det Im underflows: the point is too small to evaluate")
    return p


def phi(Z):
    """Invariant potential of each point of a stack (..., N, 2, 2);
    positive on the tube.

    Each term 1/det Im(Z^j) is 2^(-2e)/q of scaled_det_im, which no step
    overflows, exact where 1/det Im is a normal double.  DomainError
    when a point lies outside the tube or a value is not a finite
    positive double.
    """
    values = phi_in_tube(Z)
    if not values.max(initial=0.0) < np.inf:
        if tube_mask(Z).all():
            raise DomainError("phi overflows: det Im is too small to represent 1/det Im")
        raise DomainError("Im Z is not positive definite: point is outside the tube")
    return values


def phi_in_tube(Z):
    """phi at the points of a stack (m, N, 2, 2) that lie in the tube and
    inf at the others, from one scaled_det_im for the test and the values;
    a value that overflows is inf too, the barrier to a descent."""
    a, q, e = scaled_det_im(Z)
    inside = np.all((a > 0) & (q > 0), axis=-1)
    # the terms of points outside are discarded; [()] leaves one point a scalar
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values = np.where(inside, np.sum(np.ldexp(1.0 / q, -2 * e), axis=-1), np.inf)[()]
    if not values.min(initial=np.inf) > 0.0:
        raise DomainError("phi underflows: det Im is too large to represent 1/det Im")
    return values


def _trace_adj_product(P, Q):
    # tr(adj(P) Q) for Hermitian 2x2 stacks, real by symmetry
    return (
        P[..., 1, 1] * Q[..., 0, 0]
        + P[..., 0, 0] * Q[..., 1, 1]
        - P[..., 0, 1] * Q[..., 1, 0]
        - P[..., 1, 0] * Q[..., 0, 1]
    ).real


def dphi(Z, V):
    """Differential of phi at Z along the tangent tuple V.

    Per component: -tr(P^{-1} Q)/det P with P = Im Z^j and Q = Im V^j,
    both in the Hermitian (Z - Z^H)/2i sense.  Stacks Z and V
    (..., N, 2, 2) broadcast against each other.
    """
    Z = np.asarray(Z, dtype=complex)
    return _dphi(hermitian_im(Z), _positive_det_im(Z), np.asarray(V, dtype=complex))


def _dphi(P, d, V):
    # dphi at points with Im part P and det Im d
    tr = _trace_adj_product(P, hermitian_im(V))
    with np.errstate(over="ignore"):
        return -np.sum(tr / _nonzero(d**2), axis=-1)


def _levi(adjP, d, V):
    """Levi matrices of phi over directions V (..., m, N, 2, 2) at points
    whose Im parts have adjugates adjP (..., N, 2, 2) and dets d (..., N).

    With A = V/2i and t_a = tr(adj P A_a) per component,
    L_ab = sum_j 2 t_a conj(t_b) / p^3 - tr(adj A_a A_b^H) / p^2, both
    sums taken as one matrix product over the components (and the four
    entries); Hermitian-symmetrized.
    """
    A = V * (-0.5j)
    P = adjP[..., None, :, :, :]
    t = (
        P[..., 0, 0] * A[..., 0, 0]
        + P[..., 0, 1] * A[..., 1, 0]
        + P[..., 1, 0] * A[..., 0, 1]
        + P[..., 1, 1] * A[..., 1, 1]
    )
    with np.errstate(over="ignore"):
        # d**2 >= d**3 where d <= 1, so it underflows only if d**3 does
        w3, w2 = 2.0 / _nonzero(d**3), 1.0 / d**2
    X = adj2(A) * w2[..., None, :, None, None]
    L = (t * w3[..., None, :]) @ _dagger(t) - _flat(X) @ _dagger(_flat(A))
    return (L + _dagger(L)) / 2.0


def _dagger(M):
    return np.conj(np.swapaxes(M, -1, -2))


def _flat(V):
    # directions (..., m, N, 2, 2) as rows (..., m, 4N) of their entries
    return V.reshape(V.shape[:-3] + (4 * V.shape[-3],))


def _orbit_traces(Z):
    """Traces tau (..., 6, N) of the six orbit fields against the
    adjugates of Im Z^j, and det Im (..., N), at points (..., N, 2, 2).

    With A = adj Im Y and F_k = e_k Y + Y e_k^H, tau_k = tr(A F_k) =
    tr(e_k Y A) + tr(e_k^H A Y), a constant map of the entries of Y A and
    A Y.  It is real: Y = X + i P with X, P Hermitian, and the imaginary
    part tr(adj P (e_k P + P e_k^H)) = det P tr(e_k + e_k^H) vanishes.  Over
    the basis, with Y00 = x + i a, Y11 = y + i d, s = Y01 + Y10 and
    t = Y01 - Y10,

        tau = (2 (d x - a y), d Re s - y Im s, a Re s - x Im s,
               Re s Re t + Im s Im t, d Im t + y Re t, -a Im t - x Re t).
    """
    Z = np.asarray(Z, dtype=complex)
    det = _positive_det_im(Z)
    x, a = Z[..., 0, 0].real, Z[..., 0, 0].imag
    y, d = Z[..., 1, 1].real, Z[..., 1, 1].imag
    s, t = Z[..., 0, 1] + Z[..., 1, 0], Z[..., 0, 1] - Z[..., 1, 0]
    sr, si, tr, ti = s.real, s.imag, t.real, t.imag
    tau = np.stack(
        [
            2.0 * (d * x - a * y),
            d * sr - y * si,
            a * sr - x * si,
            sr * tr + si * ti,
            d * ti + y * tr,
            -a * ti - x * tr,
        ],
        axis=-2,
    )
    return tau, det


def _orbit_moment(tau, d):
    # mu_k = dphi(J F_k) = -sum_j tau_k / d_j^2, as one matrix-vector
    # product per point, whose rounding does not depend on the stack
    with np.errstate(over="ignore"):
        w2 = 1.0 / _nonzero(d**2)
    return -(tau @ w2[..., None])[..., 0]


def _gram_map():
    """Constant map (36, 16) from S = sum_j z_j z_j^H / d_j^2, z_j the four
    entries of Y_j, to the Gram part of the Levi matrices of the fields.

    That part is sum_j tr(adj A_a A_b^H) / d_j^2 with A_a = F_a / 2i, and
    the entries of adj F_a and F_b are the rows z _FIELD_MAP[a] ADJ and
    z _FIELD_MAP[b] of each component, with ADJ the adjugate as a 4 x 4
    map; so entry (a, b) is sum_pq (_FIELD_MAP[a] ADJ _FIELD_MAP[b]^H)_pq S_pq / 4.
    """
    adj = adj2(np.eye(4, dtype=complex).reshape(4, 2, 2)).reshape(4, 4)
    K = np.einsum("apr,rs,bqs->abpq", _FIELD_MAP, adj, np.conj(_FIELD_MAP))
    return 0.25 * K.reshape(36, 16)


_GRAM_MAP = _gram_map()


def _orbit_levi(P, tau, d):
    # the Levi matrices of orbit_derivatives, from _orbit_traces(P)
    with np.errstate(over="ignore"):
        # d**2 >= d**3 where d <= 1, so it underflows only if d**3 does
        w3, w2 = 0.5 / _nonzero(d**3), 1.0 / d**2
    # the two sums one after the other, so that one stack-sized
    # temporary is alive at a time; S from its conjugate, conj(z w2)^T z
    L = (tau * w3[..., None, :]) @ tau.swapaxes(-1, -2)
    z = P.reshape(P.shape[:-2] + (4,))
    zw = z * w2[..., None]
    S = np.conj(np.conj(zw, out=zw).swapaxes(-1, -2) @ z)
    # a batched matrix-vector product: its rounding does not depend on the stack
    L = L - (_GRAM_MAP @ S.reshape(S.shape[:-2] + (16, 1))).reshape(L.shape)
    return (L + _dagger(L)) / 2.0


def orbit_derivatives(P):
    """Moment values of a stack of points (b, N, 2, 2), and the Levi
    matrices of their six orbit fields on demand, in closed form.

    Returns the moment (b, 6), which is moment_map of the stack, bit for
    bit, and a function that, given a boolean selection of the rows,
    returns their Levi matrices (k, 6, 6); 4 Re of one is the normal
    Hessian omega(field_k, J field_l).  Both come from the real traces
    tau of _orbit_traces, and no field is built.  A Levi matrix is _levi
    over the six fields: its first sum is sum_j tau_a tau_b / (2 d_j^3)
    (t = tau / 2i there), its second the constant map _GRAM_MAP of the
    weighted Gram matrix S = sum_j z_j z_j^H / d_j^2 of the entries z_j
    of each component; Hermitian-symmetrized.
    """
    P = np.asarray(P, dtype=complex)
    tau, d = _orbit_traces(P)

    def levi(sel):
        return _orbit_levi(P[sel], tau[sel], d[sel])

    return _orbit_moment(tau, d), levi


# matrices per call of f in levi_form: bounds a stencil's memory at large N
_STACK_MATRICES = 2**14


def directional_derivative(f, Z, V):
    """Central differences of f at Z along each direction of the stack V
    (m, N, 2, 2), with steps h = 1e-4 and h/2 and one Richardson step.

    f maps a stack (k, N, 2, 2) of points to their k values, as phi does.
    Points Z (..., N, 2, 2) take directions V (..., m, N, 2, 2) and give
    the values (..., m); all their difference points take one call of f.
    Domain errors from f propagate so callers can resample.
    """
    Z = np.asarray(Z, dtype=complex)
    V = np.asarray(V, dtype=complex)
    if V.ndim != Z.ndim + 1:
        raise ValueError(f"expected a (m,N,2,2) stack of directions per point, got shape {V.shape}")
    h = 1e-4
    Z = Z[..., None, :, :, :]
    points = np.stack([Z + h * V, Z - h * V, Z + h / 2.0 * V, Z - h / 2.0 * V])
    values = np.reshape(f(points.reshape((-1,) + V.shape[-3:])), (4,) + V.shape[:-3])
    f1p, f1m, f2p, f2m = values
    d1 = (f1p - f1m) / (2.0 * h)
    d2 = (f2p - f2m) / (2.0 * (h / 2.0))
    return (4.0 * d2 - d1) / 3.0


def moment_map(Z):
    """Six moment components <mu(Z), e_k> over the fixed basis, (..., 6)
    for points (..., N, 2, 2), in the closed form orbit_derivatives
    shares."""
    return _orbit_moment(*_orbit_traces(Z))


def levi_form(f, Z, directions):
    """Levi form of a scalar field by complex finite differences: the
    Hermitian-symmetrized (d, d) matrix over d directions.

    Entry (a, b) approximates the mixed second derivative of
    s, t -> f(Z + s B_a + t B_b) in s and conj(t), from evaluations at
    steps {0, +-h, +-ih}, h = 1e-3, in each complex variable.  f maps a stack
    (k, N, 2, 2) of points to their k values, as phi does.  The stencil
    has 1 + 4d + 16 d(d-1)/2 points for d directions: with T the zero
    step followed by the 4d steps +-hB_a, +-ihB_a, point k is
    Z + T[i_k] + T[j_k].  It is built and evaluated in chunks of at most
    _STACK_MATRICES matrices, one call of f each, so that memory stays
    bounded at large N.  A domain error from f raises StencilDomainError.
    """
    Z = np.asarray(Z, dtype=complex)
    B = np.asarray(directions, dtype=complex)
    d = B.shape[0]
    h = 1e-3
    hB, ihB = h * B, h * (1j * B)
    steps = np.stack([hB, -hB, ihB, -ihB], axis=1).reshape((4 * d,) + Z.shape)
    T = np.concatenate([np.zeros_like(Z)[None], steps])
    # the 16 points of a pair (a, b): real or imaginary step in a, then in
    # b (dxx, dxy, dyx, dyy), each with the signs ++, +-, -+, --
    ca, cb, sa, sb = np.indices((2, 2, 2, 2)).reshape(4, 16)
    a, b = np.triu_indices(d, 1)
    axis = np.arange(1, 4 * d + 1)
    i = np.concatenate([[0], axis, (1 + 4 * a[:, None] + 2 * ca + sa).ravel()])
    j = np.concatenate([[0], np.zeros_like(axis), (1 + 4 * b[:, None] + 2 * cb + sb).ravel()])

    size = max(1, _STACK_MATRICES // Z.shape[0])
    try:
        values = np.concatenate(
            [f(Z + T[i[k : k + size]] + T[j[k : k + size]]) for k in range(0, len(i), size)]
        )
    except DomainError as exc:
        raise StencilDomainError(f"stencil point left the domain: {exc}") from exc

    hh = 4.0 * h * h
    L = np.zeros((d, d), dtype=complex)
    D = values[1 : 4 * d + 1].reshape(d, 4)
    L[np.diag_indices(d)] = (D[:, 0] + D[:, 1] + D[:, 2] + D[:, 3] - 4.0 * values[0]) / hh
    X = values[4 * d + 1 :].reshape(-1, 4, 4)
    dxx, dxy, dyx, dyy = ((X[..., 0] - X[..., 1] - X[..., 2] + X[..., 3]) / hh).T
    # d^2/ds dconj(t) = (dxx + i dxy - i dyx + dyy)/4
    L[a, b] = (dxx + 1j * dxy - 1j * dyx + dyy) / 4.0
    L[b, a] = np.conj(L[a, b])
    return (L + L.conj().T) / 2.0


def levi_form_phi(Z, directions):
    """Analytic Levi form of phi over the given complex directions.

    Closed form from the 2x2 polarization of det: with P = Im Z^j,
    p = det P, A = V/2i, B = -W^H/2i,

        L(V, W) = sum_j 2 tr(adj P A) tr(adj P B) / p^3 - tr(adj A B) / p^2.

    Returns the Hermitian (..., m, m) matrices over m directions at
    points (..., N, 2, 2), with the directions shared (m, N, 2, 2) or per
    point (..., m, N, 2, 2); they match the finite-difference stencil to
    the stated stencil tolerance.
    """
    Z = np.asarray(Z, dtype=complex)
    return _levi(adj2(hermitian_im(Z)), _positive_det_im(Z), np.asarray(directions, dtype=complex))


def omega_eval(Z, V, W):
    """Kaehler form omega(V, W) at Z from first differences of d^c phi.

    d^c phi(U) at a point Y is dphi(Y, J U); omega = -d(d^c phi) reduces
    for constant coordinate fields to
    -(D_V d^c phi(W) - D_W d^c phi(V)), antisymmetric by construction.
    The differences are directional_derivative's, whose Richardson step
    keeps residuals at reduced points well below the isotropy tolerance.
    Stacks V, W (m, N, 2, 2) give the m values of the pairs (V_k, W_k);
    all 8m difference points take one dphi call.
    """
    V = np.asarray(V, dtype=complex)
    W = np.asarray(W, dtype=complex)
    # D_V along J W, then D_W along J V, paired point by point, once for
    # each of the four difference points
    J = np.concatenate([apply_J(W), apply_J(V)] * 4)
    d = directional_derivative(lambda P: dphi(P, J), Z, np.concatenate([V, W]))
    return -(d[: len(V)] - d[len(V):])


@dataclass
class FlowReport:
    """Samples of t -> mu_xi along the transverse flow exp(i t xi)."""

    ts: list
    values: list
    displacements: list
    truncated_at: int | None
    nondecreasing: bool
    strict_when_moving: bool


def flow_monotonicity(xi, Z, t_max, steps, slack=1e-9):
    """Sample mu_xi(exp(i t xi) . Z) on a uniform grid and grade monotonicity.

    Truncates (and records where) at the first grid point that leaves the
    tube; truncation is reported, never raised.  Strictness is required
    only across steps that move the point by more than 1e-9.  Stacks of
    directions xi (s, 6) and points Z (s, N, 2, 2) give the list of the s
    reports, flow k moving point k along direction k.  All s (steps + 1)
    flow points are built as one stack, tested with one tube_mask, and
    the kept ones evaluated with one dphi call.  Grid points past a
    truncation may overflow; they are built without warnings and never
    evaluated.  DomainError unless every start lies in the tube.
    """
    Z = np.asarray(Z, dtype=complex)
    xi = np.asarray(xi, dtype=float)
    if not tube_mask(Z).all():
        raise DomainError("flow must start inside the tube")
    if steps <= 0 or t_max == 0.0:
        ts = [0.0]
    else:
        ts = [t_max * i / steps for i in range(steps + 1)]

    with np.errstate(over="ignore", invalid="ignore"):
        # one pair per flow and time, acting on every component
        pairs = flow_pairs(xi[:, None, None], 1j * np.array(ts)[:, None])
        points = act_complex(pairs, Z[:, None])
        inside = tube_mask(points)
    # each flow keeps its points before its first exit; points[k, 0] is
    # Z[k] itself, so at least one value is kept.  Only the kept points
    # stay alive.
    keep = np.logical_and.accumulate(inside, axis=1)
    kept = keep.sum(axis=1)
    owner = np.repeat(np.arange(len(Z)), kept)
    pairs = None
    points = points[keep]
    # the steps between consecutive kept points and their norms, each as
    # np.linalg.norm takes it, bit for bit; a step across two flows is
    # computed but belongs to neither
    D = (points[1:] - points[:-1]).reshape(len(points) - 1, 4 * Z.shape[-3])
    displacements = np.sqrt(_dots(D.real, D.real) + _dots(D.imag, D.imag))
    D = None
    values = dphi(points, apply_J(real_vector_field(xi[owner], points)))
    within = owner[1:] == owner[:-1]
    falls = within & ~(values[1:] >= values[:-1] - slack)
    flat = within & (displacements > 1e-9) & ~(values[1:] > values[:-1])
    nondecreasing = np.bincount(owner[1:][falls], minlength=len(Z)) == 0
    strict = np.bincount(owner[1:][flat], minlength=len(Z)) == 0

    reports = []
    ends = np.cumsum(kept).tolist()
    for k, (a, b) in enumerate(zip([0] + ends[:-1], ends)):
        reports.append(
            FlowReport(
                ts=ts[: b - a],
                values=values[a:b].tolist(),
                displacements=[0.0] + displacements[a : b - 1].tolist(),
                truncated_at=None if b - a == len(ts) else b - a,
                nondecreasing=bool(nondecreasing[k]),
                strict_when_moving=bool(strict[k]),
            )
        )
    return reports
