"""Boundary estimates: normal forms and sequence scans.

A tube matrix is brought to a balanced upper-triangular normal form by a
special-unitary conjugation followed by a diag(r, 1/r) scaling, which is
the compactness mechanism behind the mod-group boundedness experiments.
Sequence scans grade two behaviors on point sequences: divergence of the
fiberwise minimum when the quotient image converges to the boundary, and
boundedness of normalized representatives when the potential stays low.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import (
    DomainError,
    as_tuple_point,
    det2,
    det_im,
    tube_membership,
)
from .actions import act_real, exp_algebra
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


def schur_unitary(M):
    """Special-unitary u with u M u^{-1} upper triangular, deterministic.

    The eigenvalue of smaller magnitude lands at (1,1); ties break on
    (Re, Im).  The eigenvector phase makes its largest component real
    positive, which pins u.
    """
    M = np.asarray(M, dtype=complex)
    t = M[0, 0] + M[1, 1]
    s = np.sqrt(t * t - 4.0 * det2(M) + 0j)
    lam = min((t - s) / 2.0, (t + s) / 2.0, key=lambda z: (abs(z), z.real, z.imag))
    B = M - lam * np.eye(2)
    r0, r1 = B[0, :], B[1, :]
    row = r0 if np.linalg.norm(r0) >= np.linalg.norm(r1) else r1
    scale = max(1.0, float(np.max(np.abs(M))))
    if np.linalg.norm(row) <= 1e-14 * scale:
        v = np.array([1.0 + 0j, 0.0 + 0j])  # M is (numerically) scalar
    else:
        v = np.array([-row[1], row[0]])
        v = v / np.linalg.norm(v)
    i = 0 if abs(v[0]) >= abs(v[1]) else 1
    v = v * (np.conj(v[i]) / abs(v[i]))
    U = np.array([[v[0], -np.conj(v[1])], [v[1], np.conj(v[0])]])
    u = U.conj().T
    return u, u @ M @ U


@dataclass
class NormalForm:
    """Balanced triangular form X = D(r) (u W u^{-1}) D(r)."""

    u: np.ndarray
    r: float
    X: np.ndarray

    def group_element(self):
        return np.diag([self.r, 1.0 / self.r]).astype(complex) @ self.u


def normal_form(W):
    """Normal form of a single tube matrix.

    Triangularize by the deterministic Schur unitary, then balance the
    diagonal magnitudes with r^4 = |X22/X11|.  Inside the tube both
    diagonal entries are nonzero (det Im <= |det| keeps det away from 0),
    so the balancing is always defined, and the result stays in the tube.
    """
    W = np.asarray(W, dtype=complex)
    if not tube_membership(W):
        raise DomainError("normal_form is defined on tube matrices")
    u, X1 = schur_unitary(W)
    x, y = X1[0, 0], X1[1, 1]
    if abs(x) < 1e-300 or abs(y) < 1e-300:
        raise DomainError("degenerate diagonal, point is not in the tube")
    r = float((abs(y) / abs(x)) ** 0.25)
    D = np.diag([r, 1.0 / r]).astype(complex)
    return NormalForm(u=u, r=r, X=D @ X1 @ D)


@dataclass
class TriangularBounds:
    quarter_z_sq: float
    im_diag_product: float
    abs_det: float
    strict_lower_ok: bool  # |z|^2/4 < Im x * Im y
    det_upper_ok: bool  # Im x * Im y <= |det|


def triangular_bounds_check(X):
    """The two inequalities tying the off-diagonal to the diagonal.

    For upper-triangular X in the tube: |z|^2/4 < Im x Im y <= |x y|.
    """
    X = np.asarray(X, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(X))))
    if abs(X[1, 0]) > 1e-10 * scale:
        raise ValueError("input is not upper triangular")
    if not tube_membership(X):
        raise DomainError("triangular_bounds_check is defined on tube matrices")
    x, z, y = X[0, 0], X[0, 1], X[1, 1]
    qz = 0.25 * abs(z) ** 2
    prod = x.imag * y.imag
    ad = abs(x * y)
    return TriangularBounds(
        quarter_z_sq=qz,
        im_diag_product=prod,
        abs_det=ad,
        strict_lower_ok=bool(qz < prod),
        det_upper_ok=bool(prod <= ad),
    )


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
    The Gram tail settles within 1e-3 relative of the last image, and det
    Im drains when its last minimum is at most 1e-2 and half the first.
    The points share one tuple size; the fiberwise minima of all in-tube
    points come from one stacked orbit_minimize_all call.
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

    records = []
    for i, Zk in enumerate(points):
        ok = tube_membership(Zk)
        rec = ScanRecord(
            index=i,
            in_tube=ok,
            phi=None,
            psi=None,
            psi_converged=False,
            gram=gram_map(Zk),
            det_im=det_im(Zk),
            raw_max_entry=float(np.max(np.abs(Zk))),
            rep_max_entry=None,
            rep_min_det_im=None,
        )
        if ok:
            rec.phi = phi(Zk)
            nf = normal_form(Zk[-1])
            rep = act_real(nf.group_element(), Zk)
            rec.rep_max_entry = float(np.max(np.abs(rep)))
            rec.rep_min_det_im = float(np.min(det_im(rep)))
        records.append(rec)

    live = [r for r in records if r.in_tube]
    if live:
        solved = orbit_minimize_all(np.stack([points[r.index] for r in live]))
        for rec, rr in zip(live, solved):
            rec.psi = rr.phi_min
            rec.psi_converged = rr.converged
    grams = [r.gram for r in records]
    gN = grams[-1]
    tail = grams[-(len(grams) // 3 + 1):]
    gram_converged = all(
        np.linalg.norm(g - gN) <= 1e-3 * (1.0 + np.linalg.norm(gN)) for g in tail
    )
    det_mins = [float(np.min(r.det_im)) for r in records]
    det_im_to_zero = det_mins[-1] <= 1e-2 and det_mins[-1] <= 0.5 * det_mins[0]

    psis = [r.psi for r in live if r.psi is not None]
    # a rung is cleared when some tail of psi stays above it; the shortest
    # tail, the last psi alone, has the largest minimum
    crossed = {r: bool(psis) and psis[-1] > r for r in _THRESHOLDS}
    weak_applicable = gram_converged and det_im_to_zero and bool(psis)
    weak = weak_applicable and all(crossed.values())

    phis = [r.phi for r in live if r.phi is not None]
    phi_bounded = bool(phis) and max(phis) <= opts.phi_bound
    raw_escapes = max(r.raw_max_entry for r in records) >= opts.compact_bound
    compact = bool(live) and all(
        r.rep_max_entry is not None
        and r.rep_max_entry <= opts.compact_bound
        and r.rep_min_det_im >= opts.det_floor
        for r in live
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
