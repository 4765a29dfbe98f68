"""Invariant-theory quotient: Gram map, rank tests and orbit probes.

The Gram image (pairwise Lorentz products of the tuple components) is the
computable proxy for the categorical quotient throughout the package.
Closed-orbit detection takes a point of least norm in each orbit closure
in closed form, from the Takagi factorization of the Gram matrix.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import DomainError, as_tuple_point, det2, tube_mask, tube_margin

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


# x' = _PAULI (z00, z01, z10, z11): the Pauli coordinates (x0, x1, x2, x3)
# of a 2 x 2 matrix as (x0, i x1, i x2, i x3), so that x'^T x' = det Z and
# |x'|^2 = |Z|^2 / 2.  Its inverse is 2 _PAULI^H.
_PAULI = 0.5 * np.array([[1, 0, 0, 1], [0, 1j, 1j, 0], [0, -1, 1, 0], [1j, 0, 0, -1j]])
# rank decisions on values quadratic in Z, relative to |Z|^2: at most
# _ZERO is zero, above _NONZERO is not, and in between is undecided
_ZERO = 1e-12
_NONZERO = 1e-8


@dataclass
class OrbitProbeReport:
    achieved_norm_sq: float
    point: np.ndarray  # a point of least norm in the orbit closure, (N, 2, 2)
    classification: str  # closed | non_closed | inconclusive


def _norm_sq(Y):
    """Squared norm of each point of a stack (..., N, 2, 2)."""
    return np.sum(Y.real**2 + Y.imag**2, axis=(-3, -2, -1))


def kempf_ness_minimize(Z):
    """The least norm over the orbit closure of a point;
    the stack of one of kempf_ness_minimize_all, which documents it."""
    return kempf_ness_minimize_all(as_tuple_point(Z)[None])[0]


def kempf_ness_minimize_all(Zs):
    """A point of least squared norm in the orbit closure of every start of
    a stack (B, N, 2, 2), with the classification of the start's orbit.

    Returns the list of B reports; each equals kempf_ness_minimize of its
    start, bit for bit.  With the components in the coordinates x' of
    _PAULI as the columns of a 4 x N matrix X', SL2 x SL2 acts as
    SO(4, C) on the left, SU(2) x SU(2) as SO(4, R), and
    gram_map(Z) = G = X'^T X'.  The least norm over the orbit closure is
    2 ||G||_* (Kempf-Ness), reached by the Takagi point W' = S^1/2 U^T
    of G = U S U^T.  One QR of X'^T = Q R, R of size k x 4 with
    k = min(N, 4), reduces G to R R^T = V S V^T, of size k x k, whose
    Takagi factorization is one eigh of its real 2k x 2k form; then
    W' = S^1/2 (Q V)^T.  Last, W' moves to the point of its O(4, R)-orbit
    nearest X'.  That point lies in the orbit closure of Z: where X'
    spans four dimensions and the orbit is closed, the nearest point
    keeps the orientation of X', so W is in the orbit of Z and not in
    that of its transpose.

    Classification: the orbit is closed iff rank G = rank X' (its span
    is a non-degenerate subspace), and `inconclusive` when a singular
    value of G, or a squared one of X', lies between 1e-12 and 1e-8
    times |Z|^2.  A zero start is its own closed orbit, of norm 0.
    """
    Z = np.asarray(Zs, dtype=complex)
    if Z.ndim != 4 or Z.shape[2:] != (2, 2) or Z.shape[1] == 0:
        raise ValueError(f"expected a (B,N,2,2) stack of tuple points, got shape {Z.shape}")
    Q, R = np.linalg.qr(Z.reshape(Z.shape[:2] + (4,)) @ _PAULI.T)
    k = R.shape[-2]
    S = R @ R.swapaxes(-1, -2)
    # S conj(v) = s v for v = a + ib, where (a, b) is an eigenvector of this
    # real form with eigenvalue s; its top k eigenvalues are the s >= 0
    s, E = np.linalg.eigh(np.block([[S.real, S.imag], [S.imag, -S.real]]))
    s, V = s[..., k:], E[..., :k, k:] + 1j * E[..., k:, k:]
    # rank G from the Takagi values s, rank X' from its squared singular values
    F = _norm_sq(Z)[:, None]
    q = np.stack([s, np.linalg.svd(R, compute_uv=False) ** 2])
    rank_g, rank_x = np.count_nonzero(q > _NONZERO * F, axis=-1)
    undecided = ((q > _ZERO * F) & (q <= _NONZERO * F)).any(axis=(0, 2))
    root = np.sqrt(np.where(s > _ZERO * F, s, 0.0))
    T = root[..., :, None] * V.swapaxes(-1, -2)  # W' = T Q^T
    # O = (U Vh)^T maximizes Re tr(O W' X'^H) = tr(O A) over O(4, R), for
    # the SVD A = U D Vh, and O W' is the same for every point W' of one
    # O(4, R)-orbit.  On a closed orbit of rank 4 take W' = K X0 and
    # X' = K' exp(iH) X0, with K, K' in SO(4, R), H real antisymmetric and
    # X0 X0^H real (a Kempf-Ness point): A = K X0 X0^H cos(H) K'^T has
    # det A > 0, so O W' is in the orbit of X', not in its mirror image.
    # Below rank 4 a reflection of a zero row of W' joins the two
    U, _, Vh = np.linalg.svd(np.pad((T @ np.conj(R)).real, ((0, 0), (0, 4 - k), (0, 0))))
    W = Q @ T.swapaxes(-1, -2) @ (U @ Vh)[:, :k] @ (2.0 * np.conj(_PAULI))
    W = W.reshape(Z.shape)
    return [
        OrbitProbeReport(
            achieved_norm_sq=float(f),
            point=w,
            classification="inconclusive" if u else "closed" if g == x else "non_closed",
        )
        for f, w, u, g, x in zip(_norm_sq(W), W, undecided, rank_g, rank_x)
    ]


@dataclass
class SaturationReport:
    classification: str
    certified_in_extended_tube: bool
    gram_distance: float
    closed_point: np.ndarray
    witness_kind: str
    reduced_margin: float | None


def saturation_probe(Z):
    """Probe whether the closed orbit under the starting point meets the tube;
    the stack of one of saturation_probe_all, which documents it."""
    return saturation_probe_all(as_tuple_point(Z)[None])[0]


def saturation_probe_all(Zs):
    """saturation_probe of every start of a stack (B, N, 2, 2).

    Returns the list of B reports; each equals saturation_probe of its
    start, bit for bit.  One kempf_ness_minimize_all call gives a point
    of least norm in every orbit closure, which stands in for the closed
    orbit.  The witness is that point when it lies in the tube, else, for
    a `closed` classification, the start itself, which lies on the same
    orbit.  One orbit_minimize_all call reduces all witnesses; a witness
    is certified when its reduction converges to a tube point.  Without a
    witness, or when the reduction does not certify, the report is not
    certified, which is no refutation.  Raises DomainError, a ValueError,
    when any start lies outside the tube.
    """
    from .reduction import orbit_minimize_all

    Z = np.asarray(Zs, dtype=complex)
    kn = kempf_ness_minimize_all(Z)  # checks the shape of the stack
    if not tube_mask(Z).all():
        raise DomainError("saturation probe starts from a tube point")
    W = np.array([r.point for r in kn]).reshape(Z.shape)
    inside = tube_mask(W)
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
        kind = "kn_point" if inside[b] else "start" if have[b] else "none"
        reports.append(
            SaturationReport(
                classification=r.classification,
                certified_in_extended_tube=bool(certified[b]),
                gram_distance=float(np.linalg.norm(gram_shift[b])),
                closed_point=W[b],
                witness_kind=kind,
                reduced_margin=float(margin[b]) if certified[b] else None,
            )
        )
    return reports
