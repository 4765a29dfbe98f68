"""Invariant-theory quotient: Gram map, rank tests and orbit probes.

The Gram image (pairwise Lorentz products of the tuple components) is the
computable proxy for the categorical quotient throughout the package.
Closed-orbit detection minimizes the squared Frobenius norm over the
complexified group through a 12-parameter exponential chart.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import IDENTITY, DomainError, as_tuple_point, det2, tube_mask, tube_margin
from .actions import (
    BASIS,
    _dots,
    act_complex,
    damped_newton,
    descend,
    expm_traceless,
    realize,
)

__all__ = [
    "gram_map",
    "gram_rank",
    "OrbitProbeReport",
    "kempf_ness_minimize",
    "kempf_ness_minimize_all",
    "SaturationReport",
    "saturation_probe",
    "saturation_probe_all",
]


def gram_map(Z):
    """Symmetric N x N matrices (..., N, N) of pairwise Lorentz products
    <Z^i, Z^j> of points (..., N, 2, 2).

    Diagonal entries are exactly det Z^j by polarization; the whole matrix
    is invariant under the complexified action.  Raises DomainError when
    a product overflows.
    """
    Z = np.asarray(Z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        d = det2(Z)
        pair = det2(Z[..., :, None, :, :] + Z[..., None, :, :, :])
        Gm = (pair - d[..., :, None] - d[..., None, :]) / 2.0
    if not np.isfinite(Gm).all():
        raise DomainError("Lorentz products overflow: the point is too large for the Gram map")
    # float addition order breaks exact symmetry; mirror the upper triangle
    return np.triu(Gm) + np.swapaxes(np.triu(Gm, 1), -1, -2)


def gram_rank(Gm, tol=1e-8):
    """Numeric rank: singular values above tol times the largest."""
    s = np.linalg.svd(np.asarray(Gm), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


_GRAD_TOL = 1e-8
_COLLAPSE_TOL = 1e-10
# no `closed` verdict while the norm sits this far below the start:
# on collapsing orbits the gradient (~ 2F) crosses _GRAD_TOL first
_COLLAPSE_GUARD = 1e-6
_DIVERGENCE_BOUND = 1e3
_MAX_ITERS = 10000


@dataclass
class OrbitProbeReport:
    achieved_norm_sq: float
    minimizer: np.ndarray  # the pair (g, h) as one (2, 2, 2) array
    converged: bool
    iterations: int
    gradient_norm: float
    classification: str  # closed | non_closed | inconclusive


def _norm_sq(Y):
    """Squared norm of a point (N, 2, 2), or of each point of a stack."""
    return np.sum(Y.real**2 + Y.imag**2, axis=(-3, -2, -1))


def _kn_map():
    """Constant map from P = sum_n conj(Y_n) (x) Y_n to the chart derivatives.

    The squared norm is quadratic in Y, so its chart gradient and Hessian
    at (g, h) = (e, e) are real parts of linear functionals of the 4 x 4
    matrix P[pq, rs] = sum_n conj(Y_n[p, q]) Y_n[r, s].  With
    S = sum_j Y_j Y_j^H and T = sum_j Y_j^H Y_j the gradient is
    (2 Re tr(e_k S), 2 Re tr(e_k^t T)); the Hessian is twice the Gram
    matrix of the twelve tangents {e_k Y, Y e_k^t} plus the curvature of
    the exponential chart, tr(e_k e_l S) and tr(e_k^t e_l^t T) symmetrized
    on the diagonal blocks and 2 Re tr(Y^H e_k Y e_l^t) off them.  Rows
    are returned stacked, the 12 gradient rows first, as a (156, 16)
    array acting on P flattened.
    """
    B, Bc, eye = BASIS, np.conj(BASIS), np.eye(2)
    e = np.einsum
    grad = 2.0 * np.concatenate([e("kpr,qs->kpqrs", B, eye), e("kqs,pr->kpqrs", B, eye)])
    C_LL = e("kpb,lbr,qs->klpqrs", B, B, eye)
    C_RR = e("kbs,lqb,pr->klpqrs", B, B, eye)
    H = np.zeros((12, 12, 2, 2, 2, 2), dtype=complex)
    H[:6, :6] = 2.0 * e("kbp,lbr,qs->klpqrs", Bc, B, eye) + C_LL + C_LL.swapaxes(0, 1)
    H[6:, 6:] = 2.0 * e("kaq,las,pr->klpqrs", Bc, B, eye) + C_RR + C_RR.swapaxes(0, 1)
    H[:6, 6:] = 2.0 * (e("krp,lqs->klpqrs", Bc, B) + e("kpr,lqs->klpqrs", B, B))
    H[6:, :6] = H[:6, 6:].swapaxes(0, 1)
    # equal on Hermitian P; averaging makes the returned Hessian exactly symmetric
    H = 0.5 * (H + H.swapaxes(0, 1))
    return np.concatenate([grad.reshape(12, 16), H.reshape(144, 16)])


_KN_MAP = _kn_map()


def _kn_gradient_hessian(Y):
    """Chart gradient and Hessian of the squared norm at (g, h) = (e, e).

    One 4 x 4 product P = sum_n conj(Y_n) (x) Y_n, then the constant map
    _KN_MAP.  Points (..., N, 2, 2) give (..., 12) and (..., 12, 12);
    the gradient rows are contiguous.
    """
    Yf = Y.reshape(Y.shape[:-3] + (-1, 4))
    P = np.conj(Yf).swapaxes(-1, -2) @ Yf
    # a batched matrix-vector product: its rounding does not depend on m
    gH = (_KN_MAP @ P.reshape(P.shape[:-2] + (16, 1)))[..., 0].real
    return np.ascontiguousarray(gH[..., :12]), gH[..., 12:].reshape(gH.shape[:-1] + (12, 12))


# Orthonormal chart coordinates of the Hermitian directions, e1,
# (e2 + e3)/sqrt 2 and (e5 - e6)/sqrt 2 in each factor (rows: e1..e6).
# The other six directions generate SU(2) x SU(2), which keeps the norm.
_R = 0.5**0.5
_HERM = np.kron(
    np.eye(2),
    [[1.0, 0.0, 0.0], [0.0, _R, 0.0], [0.0, _R, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, _R], [0.0, 0.0, -_R]],
)


def _kn_chart(d, s):
    return expm_traceless(realize(s[:, None, None] * d.reshape(-1, 2, 6)))


def kempf_ness_minimize(Z):
    """Minimize the squared Frobenius norm over the complexified orbit;
    the stack of one of kempf_ness_minimize_all, which documents it."""
    return kempf_ness_minimize_all(as_tuple_point(Z)[None])[0]


# classifications as the model keeps them, named once at the end
_CLASSES = ("inconclusive", "closed", "non_closed")
_INCONCLUSIVE, _CLOSED, _NON_CLOSED = range(3)


def kempf_ness_minimize_all(Zs):
    """kempf_ness_minimize of every start of a stack (B, N, 2, 2), in lockstep.

    Returns the list of B reports; each equals kempf_ness_minimize of its
    start, bit for bit.  A damped Newton method on SL2(C)/SU(2) x
    SL2(C)/SU(2), descending with actions.descend over the chart
    (g, h) = (exp X, exp X') with X, X' Hermitian.  The norm is
    SU(2) x SU(2)-invariant, so its gradient has no component along the
    six skew-Hermitian chart directions; along a Hermitian direction it
    is a positive sum of exponentials, so the chart Hessian restricted to
    the six Hermitian directions is positive semidefinite.  Each move
    solves that 6 x 6 system with Levenberg damping 0.01 |grad| (no
    curvature shift) and is line-searched from a unit trial step; steps
    longer than 100 are cut back to 100.  On the full twelve-parameter
    chart the gauge directions couple to the Hermitian ones through
    curvature of size ~ |grad|, of either sign; damping by that curvature
    made the descent crawl near the limit of a non-closed orbit.  Where
    the norm collapses, it decays exponentially along the escape
    direction, and the Newton steps keep a bounded length, so it falls at
    a geometric rate.

    Classification: `closed` once the chart gradient drops below 1e-8
    at bounded parameters, `non_closed` when the norm collapses below
    1e-10 relative to the start or the parameters leave the divergence
    bound 1e3 while still descending, else `inconclusive`.  A start of
    norm zero is its own closed orbit: `closed` after 0 iterations, it
    never enters the descent.  The descent stops after _MAX_ITERS moves.
    """
    Z0 = np.asarray(Zs, dtype=complex)
    if Z0.ndim != 4 or Z0.shape[2:] != (2, 2):
        raise ValueError(f"expected a (B,N,2,2) stack of tuple points, got shape {Z0.shape}")
    F0 = _norm_sq(Z0)
    run = np.flatnonzero(F0)
    F0 = F0[run]
    gradient_norm = np.empty(len(run))
    kind = np.empty(len(run), dtype=int)

    def model(live, Y, F, pairs):
        grad, H = _kn_gradient_hessian(Y)
        # np.linalg.norm of each row, bit for bit
        gn = gradient_norm[live] = np.sqrt(_dots(grad, grad))
        f0 = F0[live]
        collapsed = F <= _COLLAPSE_TOL * f0
        small = (gn <= _GRAD_TOL) & (F > _COLLAPSE_GUARD * f0)
        factors = pairs.view(float).reshape(len(F), 2, 8)
        # objective is monotone along accepted moves, so this is escape
        far = _dots(factors, factors).max(axis=1) > _DIVERGENCE_BOUND**2
        # collapse decides first, then a small gradient (closed only at
        # bounded parameters), then divergence
        non_closed = collapsed | far & ~small
        closed = small & ~far
        kind[live] = np.where(non_closed, _NON_CLOSED, np.where(closed, _CLOSED, _INCONCLUSIVE))

        def direction(sel):
            gh = (_HERM.T @ grad[sel, :, None])[..., 0]
            d, deriv = damped_newton(gh, _HERM.T @ H[sel] @ _HERM, 0.01 * gn[sel])
            # steps longer than 100 are cut back to 100, the others scaled by 1.0
            cut = 100.0 / np.maximum(np.sqrt(_dots(d, d)), 100.0)
            return (_HERM @ (cut[:, None] * d)[..., None])[..., 0], cut * deriv

        return collapsed | small | far, direction

    _, F, pairs, its = descend(Z0[run], F0, model, _kn_chart, _norm_sq, _MAX_ITERS)
    # the budget ran out first: no stop rule applies to the last point
    kind[its >= _MAX_ITERS] = _INCONCLUSIVE
    minimizers = np.repeat(IDENTITY[None, None], len(Z0), axis=0).repeat(2, axis=1)
    minimizers[run] = pairs
    reports = [OrbitProbeReport(0.0, m, True, 0, 0.0, "closed") for m in minimizers]
    for k, b in enumerate(run):
        reports[b] = OrbitProbeReport(
            achieved_norm_sq=float(F[k]),
            minimizer=minimizers[b],
            converged=bool(kind[k] == _CLOSED),
            iterations=int(its[k]),
            gradient_norm=float(gradient_norm[k]),
            classification=_CLASSES[kind[k]],
        )
    return reports


@dataclass
class SaturationReport:
    classification: str
    certified_in_extended_tube: bool
    gram_distance: float
    closed_point: np.ndarray
    witness_kind: str
    reduced_margin: float | None
    verdict: str  # certified | probe failed


def saturation_probe(Z):
    """Probe whether the closed orbit under the starting point meets the tube;
    the stack of one of saturation_probe_all, which documents it."""
    return saturation_probe_all(as_tuple_point(Z)[None])[0]


def saturation_probe_all(Zs):
    """saturation_probe of every start of a stack (B, N, 2, 2).

    Returns the list of B reports; each equals saturation_probe of its
    start, bit for bit.  One kempf_ness_minimize_all call minimizes the
    norm from every start, and the reached point stands in for the
    closed orbit.  The witness is that point when it lies in the tube,
    else, for a `closed` classification, the start itself, to which the
    inverse of the recorded minimizer carries the reached point.  One
    orbit_minimize_all call reduces all witnesses; a witness is certified
    when its reduction converges to a tube point.  Without a witness, or
    when the reduction does not certify, the probe reports "probe
    failed", never a refutation.  Raises ValueError when any start lies
    outside the tube.
    """
    from .reduction import orbit_minimize_all

    Z = np.asarray(Zs, dtype=complex)
    if Z.ndim != 4 or Z.shape[2:] != (2, 2):
        raise ValueError(f"expected a (B,N,2,2) stack of tuple points, got shape {Z.shape}")
    if not tube_mask(Z).all():
        raise ValueError("saturation probe starts from a tube point")
    kn = kempf_ness_minimize_all(Z)
    W = act_complex(np.array([r.minimizer for r in kn]).reshape(-1, 1, 2, 2, 2), Z)
    inside = tube_margin(W) > 0.0
    # the minimizer carries Z to W, so on a closed orbit its inverse carries W back to Z
    have = inside | np.array([r.classification == "closed" for r in kn], dtype=bool)
    witness = np.where(inside[:, None, None, None], W, Z)
    reduced = orbit_minimize_all(witness[have])
    R = np.array([rr.reduced_point for rr in reduced]).reshape((-1,) + Z.shape[1:])
    certified = np.zeros(len(Z), dtype=bool)
    certified[have] = np.array([rr.converged for rr in reduced], dtype=bool) & tube_mask(R)
    margin = np.zeros(len(Z))
    margin[certified] = tube_margin(R[certified[have]])
    gram_shift = gram_map(W) - gram_map(Z)

    reports = []
    for b, r in enumerate(kn):
        kind = "kn_point" if inside[b] else "minimizer_inverse" if have[b] else "none"
        reports.append(
            SaturationReport(
                classification=r.classification,
                certified_in_extended_tube=bool(certified[b]),
                gram_distance=float(np.linalg.norm(gram_shift[b])),
                closed_point=W[b],
                witness_kind=kind,
                reduced_margin=float(margin[b]) if certified[b] else None,
                verdict="certified" if certified[b] else "probe failed",
            )
        )
    return reports
