"""Boundary estimates: normal forms and sequence scans.

A tube matrix is brought to a balanced upper-triangular normal form by a
special-unitary conjugation followed by a diag(r, 1/r) scaling, which is
the compactness mechanism behind the mod-group boundedness experiments.
Sequence scans grade two behaviors on point sequences: divergence of the
fiberwise minimum when the quotient image converges to the boundary, and
boundedness of normalized representatives when the potential stays low.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DomainError,
    as_tuple_point,
    det2,
    det_im,
    tube_mask,
)
from .actions import _norms, act_real, exp_algebra
from .psh import phi
from .quotient import gram_map
from .reduction import orbit_minimize_all
from . import serialize

__all__ = [
    "NormalForm",
    "normal_form",
    "schur_unitary",
    "TriangularBounds",
    "triangular_bounds_check",
    "ScanOptions",
    "ScanRecord",
    "ScanReport",
    "parse_sequence",
    "boundary_scan",
]


# Stacked forms of scalar operations, rounded as numpy rounds the scalar
# operation on one entry: an array's complex product may fuse a
# multiply-add, and np.abs of a complex array may round differently from
# the scalar abs, in the last bit.


def _product(a, b):
    # complex a b of arrays of one shape in real arithmetic, as numpy's
    # scalar product rounds it
    out = np.empty_like(a)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _modulus(z):
    # |z| of each entry, as the scalar abs gives it
    return np.hypot(z.real, z.imag)


def schur_unitary(M):
    """Special-unitary u with u M u^{-1} upper triangular, deterministic.

    The eigenvalue of smaller magnitude lands at (1,1); ties break on
    (Re, Im), and equal keys keep (t - s)/2.  The eigenvector phase makes
    its largest component real positive, which pins u.  Matrices
    (..., 2, 2) give the unitaries and triangular forms (..., 2, 2).
    """
    M = np.asarray(M, dtype=complex)
    t = M[..., 0, 0] + M[..., 1, 1]
    # t t rounded as a numpy scalar product, det2 as an array product
    s = np.sqrt(_product(t, t) - 4.0 * det2(M) + 0j)
    lo, hi = (t - s) / 2.0, (t + s) / 2.0
    m_lo, m_hi = _modulus(lo), _modulus(hi)
    # hi only when its key (abs, real, imag) is strictly the smaller
    take_hi = (m_hi < m_lo) | (
        (m_hi == m_lo) & ((hi.real < lo.real) | ((hi.real == lo.real) & (hi.imag < lo.imag)))
    )
    lam = np.where(take_hi, hi, lo)
    B = M - lam[..., None, None] * np.eye(2)
    n0, n1 = _norms(B[..., 0, :]), _norms(B[..., 1, :])
    first = n0 >= n1
    row = np.where(first[..., None], B[..., 0, :], B[..., 1, :])
    scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1)))
    scalar = np.where(first, n0, n1) <= 1e-14 * scale  # M is (numerically) scalar
    v = np.stack([-row[..., 1], row[..., 0]], axis=-1)
    v[scalar] = (1.0, 0.0)  # a unit vector, which the division keeps exactly
    v = v / _norms(v)[..., None]
    m0, m1 = _modulus(v[..., 0]), _modulus(v[..., 1])
    big = m0 >= m1
    v = v * (np.conj(np.where(big, v[..., 0], v[..., 1])) / np.where(big, m0, m1))[..., None]
    U = np.empty_like(M)
    U[..., 0, 0], U[..., 1, 0] = v[..., 0], v[..., 1]
    U[..., 0, 1], U[..., 1, 1] = -np.conj(v[..., 1]), np.conj(v[..., 0])
    u = U.conj().swapaxes(-1, -2)
    return u, u @ M @ U


def _balancing(r):
    # the diagonal matrices diag(r, 1/r) of an array of r
    D = np.zeros(r.shape + (2, 2), dtype=complex)
    D[..., 0, 0] = r
    D[..., 1, 1] = 1.0 / r
    return D


@dataclass
class NormalForm:
    """Balanced triangular forms X = D(r) (u W u^{-1}) D(r) of matrices
    (..., 2, 2); r has their leading shape."""

    u: np.ndarray
    r: np.ndarray
    X: np.ndarray

    def group_element(self):
        return _balancing(np.asarray(self.r)) @ self.u


def normal_form(W):
    """Normal forms of tube matrices (..., 2, 2).

    Triangularize by the deterministic Schur unitary, then balance the
    diagonal magnitudes with r^4 = |X22/X11|.  Inside the tube both
    diagonal entries are nonzero (det Im <= |det| keeps det away from 0),
    so the balancing is always defined, and the result stays in the tube.
    DomainError unless every matrix lies in the tube.
    """
    W = np.asarray(W, dtype=complex)
    if not tube_mask(W[..., None, :, :]).all():
        raise DomainError("normal_form is defined on tube matrices")
    u, X1 = schur_unitary(W)
    x, y = _modulus(X1[..., 0, 0]), _modulus(X1[..., 1, 1])
    if (x < 1e-300).any() or (y < 1e-300).any():
        raise DomainError("degenerate diagonal, point is not in the tube")
    # math.pow rounds as the scalar power does; the array power may not
    r = np.reshape([math.pow(q, 0.25) for q in np.ravel(y / x).tolist()], np.shape(x))
    D = _balancing(r)
    return NormalForm(u=u, r=r, X=D @ X1 @ D)


@dataclass
class TriangularBounds:
    quarter_z_sq: np.ndarray
    im_diag_product: np.ndarray
    abs_det: np.ndarray
    strict_lower_ok: np.ndarray  # |z|^2/4 < Im x * Im y
    det_upper_ok: np.ndarray  # Im x * Im y <= |det|


def triangular_bounds_check(X):
    """The two inequalities tying the off-diagonal to the diagonal.

    For upper-triangular X in the tube: |z|^2/4 < Im x Im y <= |x y|.
    Matrices (..., 2, 2) give bounds whose fields have their leading
    shape.  ValueError unless every matrix is upper triangular,
    DomainError unless every one lies in the tube.
    """
    X = np.asarray(X, dtype=complex)
    scale = np.maximum(1.0, np.abs(X).max(axis=(-2, -1)))
    if (_modulus(X[..., 1, 0]) > 1e-10 * scale).any():
        raise ValueError("input is not upper triangular")
    if not tube_mask(X[..., None, :, :]).all():
        raise DomainError("triangular_bounds_check is defined on tube matrices")
    x, z, y = X[..., 0, 0], X[..., 0, 1], X[..., 1, 1]
    qz = 0.25 * _modulus(z) ** 2
    prod = x.imag * y.imag
    ad = _modulus(_product(x, y))
    return TriangularBounds(qz, prod, ad, qz < prod, prod <= ad)


# the threshold ladder of the weak-exhaustion verdict
_THRESHOLDS = (10.0, 100.0, 1000.0)


@dataclass
class ScanOptions:
    phi_bound: float = 50.0
    compact_bound: float = 100.0
    det_floor: float = 1e-6


@dataclass
class ScanRecord:
    index: int
    in_tube: bool
    phi: float | None
    psi: float | None
    psi_converged: bool
    gram: np.ndarray
    det_im: np.ndarray
    raw_max_entry: float
    rep_max_entry: float | None
    rep_min_det_im: float | None


@dataclass
class ScanReport:
    records: list
    gram_converged: bool
    det_im_to_zero: bool
    thresholds_crossed: dict
    weak_exhaustion_applicable: bool
    weak_exhaustion: bool
    phi_bounded: bool
    raw_escapes: bool
    compact_after_normalization: bool
    mod_real_applicable: bool
    mod_real_exhaustion: bool
    options: ScanOptions


def parse_sequence(doc):
    """Materialize a sequence specification into a list of tuple points.

    Three generator types: explicit `list` of points, `curve` giving each
    component as a polynomial in u = 1/k over matrix coefficients with an
    optional scalar denominator polynomial, and `translate` moving a base
    point by the one-parameter subgroup of an algebra vector.
    Malformed documents raise ValueError.
    """
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError("sequence specification must be a mapping with a 'type'")
    kind = doc["type"]
    if kind == "list":
        pts = doc.get("points")
        if not isinstance(pts, list) or not pts:
            raise ValueError("list sequence needs a nonempty 'points' array")
        out = [serialize.parse_point(p) for p in pts]
        n = out[0].shape[0]
        if any(p.shape[0] != n for p in out):
            raise ValueError("all points must share the tuple size")
        return out
    if kind == "curve":
        comps = doc.get("components")
        if not isinstance(comps, list) or not comps:
            raise ValueError("curve sequence needs a nonempty 'components' array")
        count = serialize.integer("curve 'k_count'", doc.get("k_count"))
        start = serialize.integer("curve 'k_start'", doc.get("k_start", 1))
        if count < 1 or start < 1:
            raise ValueError("curve 'k_count' and 'k_start' must be >= 1")
        parsed = []
        for comp in comps:
            if not isinstance(comp, dict) or not isinstance(comp.get("num"), list):
                raise ValueError("curve component needs a 'num' coefficient list")
            num = [serialize.parse_matrix(m) for m in comp["num"]]
            den = serialize.parse_reals(comp.get("den", [1.0]), "curve 'den'")
            if not num or all(c == 0.0 for c in den):
                raise ValueError("curve component has empty or zero polynomials")
            parsed.append((num, den))
        out = []
        for k in range(start, start + count):
            u = 1.0 / k
            mats = []
            for num, den in parsed:
                numv = sum(A * u**m for m, A in enumerate(num))
                denv = sum(c * u**m for m, c in enumerate(den))
                if abs(denv) < 1e-300:
                    raise ValueError(f"curve denominator vanishes at k={k}")
                mats.append(numv / denv)
            out.append(np.stack(mats))
        return out
    if kind == "translate":
        base = serialize.parse_point(doc.get("base"))
        gen = serialize.parse_algebra(doc.get("generator"))
        times = doc.get("times")
        if isinstance(times, dict):
            start_step = [times.get("start", 0.0), times.get("step", 1.0)]
            t0, dt = serialize.parse_reals(start_step, "translate 'start' and 'step'")
            count = serialize.integer("translate 'count'", times.get("count"))
            if count < 1:
                raise ValueError("translate 'count' must be >= 1")
            ts = [t0 + dt * i for i in range(count)]
        else:
            ts = serialize.parse_reals(times, "translate sequence 'times'")
        return [act_real(exp_algebra(gen, t), base) for t in ts]
    raise ValueError(f"unknown sequence type {kind!r}")


def boundary_scan(seq, opts=None):
    """Per-index diagnostics and the two boundary verdicts for a sequence.

    Verdict (a), weak exhaustion: applicable when the Gram images settle
    while some det Im drains to zero; it fires when the tail minimum of
    the fiberwise minimum clears every rung of the threshold ladder.
    Verdict (b), exhaustion mod the real group: applicable when phi stays
    bounded, the Gram images settle and the raw points leave the compact
    box; it holds when the normal-form representatives stay inside it.
    Sequences triggering neither premise are reported without verdicts.
    The Gram tail settles when every image g in it has
    |g - G_N|_max <= 1e-3 (1 + |G_N|_max), G_N the last image and |.|_max
    the largest entry modulus, and det Im drains when its last minimum is
    at most 1e-2 and half the first.
    The points share one tuple size.  Each per-point diagnostic (tube
    test, Gram image, det Im, phi, normal form, fiberwise minimum) takes
    one stacked call over all points, or over the points in the tube.
    """
    if opts is None:
        opts = ScanOptions()
    if isinstance(seq, dict):
        seq = parse_sequence(seq)
    points = [as_tuple_point(p) for p in seq]
    if not points:
        raise ValueError("empty sequence")
    if any(p.shape != points[0].shape for p in points):
        raise ValueError("all points must share the tuple size")

    P = np.stack(points)
    in_tube = tube_mask(P)
    grams = gram_map(P)
    dets = det_im(P)
    raw_max = np.abs(P).max(axis=(1, 2, 3))
    records = [
        ScanRecord(
            index=i,
            in_tube=bool(in_tube[i]),
            phi=None,
            psi=None,
            psi_converged=False,
            gram=grams[i],
            det_im=dets[i],
            raw_max_entry=float(raw_max[i]),
            rep_max_entry=None,
            rep_min_det_im=None,
        )
        for i in range(len(points))
    ]
    live = [r for r in records if r.in_tube]
    if live:
        Q = P[in_tube]
        rep = act_real(normal_form(Q[:, -1]).group_element()[:, None], Q)
        phis = phi(Q).tolist()
        rep_max = np.abs(rep).max(axis=(1, 2, 3)).tolist()
        rep_min_det = det_im(rep).min(axis=1).tolist()
        solved = orbit_minimize_all(Q)
        for k, (rec, rr) in enumerate(zip(live, solved)):
            rec.phi, rec.psi, rec.psi_converged = phis[k], rr.phi_min, rr.converged
            rec.rep_max_entry, rec.rep_min_det_im = rep_max[k], rep_min_det[k]
    gN = grams[-1]
    tail = grams[-(len(grams) // 3 + 1):]
    # largest entries, not Frobenius norms: on the curve i I/k in each of
    # n components the Frobenius ratio grows as n, the entrywise one does not
    gN_max = np.abs(gN).max()
    gram_converged = all(np.abs(g - gN).max() <= 1e-3 * (1.0 + gN_max) for g in tail)
    det_mins = dets.min(axis=1).tolist()
    det_im_to_zero = det_mins[-1] <= 1e-2 and det_mins[-1] <= 0.5 * det_mins[0]

    psis = [r.psi for r in live]
    # a rung is cleared when some tail of psi stays above it; the shortest
    # tail, the last psi alone, has the largest minimum
    crossed = {r: bool(psis) and psis[-1] > r for r in _THRESHOLDS}
    weak_applicable = gram_converged and det_im_to_zero and bool(psis)
    weak = weak_applicable and all(crossed.values())

    phis = [r.phi for r in live]
    phi_bounded = bool(phis) and max(phis) <= opts.phi_bound
    raw_escapes = max(r.raw_max_entry for r in records) >= opts.compact_bound
    compact = bool(live) and all(
        r.rep_max_entry <= opts.compact_bound and r.rep_min_det_im >= opts.det_floor for r in live
    )
    mod_applicable = gram_converged and phi_bounded and raw_escapes
    mod_real = mod_applicable and compact

    return ScanReport(
        records=records,
        gram_converged=gram_converged,
        det_im_to_zero=det_im_to_zero,
        thresholds_crossed=crossed,
        weak_exhaustion_applicable=weak_applicable,
        weak_exhaustion=weak,
        phi_bounded=phi_bounded,
        raw_escapes=raw_escapes,
        compact_after_normalization=compact,
        mod_real_applicable=mod_applicable,
        mod_real_exhaustion=mod_real,
        options=opts,
    )
