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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import DomainError, adj2, as_tuple_point, det_im, hermitian_im, tube_membership
from .actions import orbit_fields, real_vector_field, apply_J, flow_point

__all__ = [
    "StencilDomainError",
    "DerivEstimate",
    "LeviForm",
    "FlowReport",
    "phi",
    "dphi",
    "directional_derivative",
    "moment_map",
    "levi_form",
    "levi_form_phi",
    "omega_eval",
    "flow_monotonicity",
]


class StencilDomainError(DomainError):
    """A finite-difference stencil point left the domain; resample or shrink."""


def _positive_det_im(d):
    """The det Im values d; DomainError unless all are positive and finite."""
    if not d.min() > 0.0:
        raise DomainError("det Im <= 0: point is outside the tube")
    if not d.max() < np.inf:
        raise DomainError("det Im overflows: the point is too large to evaluate")
    return d


def phi(Z):
    """Invariant potential; positive on the tube.

    Raises DomainError when some det Im(Z^j) <= 0, signaling that the
    point left the tube.  When det Im overflows, each component is scaled
    by its largest |Im| entry s, and 1/det Im(Z^j) = 1/(det Im(Z^j/s) s^2);
    a potential that underflows to zero raises DomainError as well.
    """
    Z = as_tuple_point(Z)
    d = det_im(Z)
    if math.isfinite(d.max()):
        return float(np.sum(1.0 / _positive_det_im(d)))
    s = np.abs(hermitian_im(Z)).max(axis=(1, 2))
    value = float(np.sum(1.0 / _positive_det_im(det_im(Z / s[:, None, None])) / s / s))
    if not value > 0.0:
        raise DomainError("phi underflows: det Im is too large to represent 1/det Im")
    return value


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
    both in the Hermitian (Z - Z^H)/2i sense.  A stack V of shape
    (m, N, 2, 2) gives the array of the m differentials.
    """
    Z = as_tuple_point(Z)
    V = np.asarray(V, dtype=complex)
    stack = V.ndim == 4
    d = _positive_det_im(det_im(Z))
    tr = _trace_adj_product(hermitian_im(Z), hermitian_im(V if stack else as_tuple_point(V)))
    values = -np.sum(tr / d**2, axis=-1)
    return values if stack else float(values)


class DerivEstimate(NamedTuple):
    value: float
    error: float


def directional_derivative(f, Z, V):
    """Central difference of f along V with one Richardson step.

    Uses steps h = 1e-4 and h/2; the error field is the Richardson defect.
    Domain errors from f propagate so callers can resample.
    """
    Z = as_tuple_point(Z)
    V = as_tuple_point(V)
    h = 1e-4

    def central(hh):
        return (f(Z + hh * V) - f(Z - hh * V)) / (2.0 * hh)

    d1 = central(h)
    d2 = central(h / 2.0)
    return DerivEstimate((4.0 * d2 - d1) / 3.0, abs(d2 - d1) / 3.0)


def moment_map(Z):
    """Six moment components <mu(Z), e_k> over the fixed basis."""
    return dphi(Z, 1j * orbit_fields(Z))


@dataclass
class LeviForm:
    """Complex Hessian data over a probed subspace; Hermitian-symmetrized."""

    d: int
    entries: np.ndarray

    def min_eigenvalue(self):
        return float(np.linalg.eigvalsh(self.entries)[0])


def levi_form(f, Z, directions, h=1e-3):
    """Levi form of a scalar field by complex finite differences.

    Entry (a, b) approximates the mixed second derivative of
    s, t -> f(Z + s B_a + t B_b) in s and conj(t), from evaluations at
    steps {0, +-h, +-ih} in each complex variable.
    """
    Z = as_tuple_point(Z)
    B = np.asarray(directions, dtype=complex)
    d = B.shape[0]

    def ev(Y):
        try:
            return f(Y)
        except DomainError as exc:
            raise StencilDomainError(f"stencil point left the domain: {exc}") from exc

    f0 = ev(Z)
    L = np.zeros((d, d), dtype=complex)
    hh = 4.0 * h * h
    for a in range(d):
        Ba = B[a]
        L[a, a] = (
            ev(Z + h * Ba) + ev(Z - h * Ba) + ev(Z + 1j * h * Ba) + ev(Z - 1j * h * Ba) - 4.0 * f0
        ) / hh

    def mixed(da, db):
        return (
            ev(Z + h * da + h * db)
            - ev(Z + h * da - h * db)
            - ev(Z - h * da + h * db)
            + ev(Z - h * da - h * db)
        ) / hh

    for a in range(d):
        for b in range(a + 1, d):
            dxx = mixed(B[a], B[b])
            dxy = mixed(B[a], 1j * B[b])
            dyx = mixed(1j * B[a], B[b])
            dyy = mixed(1j * B[a], 1j * B[b])
            # d^2/ds dconj(t) = (dxx + i dxy - i dyx + dyy)/4
            L[a, b] = (dxx + 1j * dxy - 1j * dyx + dyy) / 4.0
            L[b, a] = np.conj(L[a, b])
    L = (L + L.conj().T) / 2.0
    return LeviForm(d=d, entries=L)


def levi_form_phi(Z, directions):
    """Analytic Levi form of phi over the given complex directions.

    Closed form from the 2x2 polarization of det: with P = Im Z^j,
    p = det P, A = V/2i, B = -W^H/2i,

        L(V, W) = sum_j 2 tr(adj P A) tr(adj P B) / p^3 - tr(adj A B) / p^2.

    Matches the finite-difference stencil to the stated stencil tolerance.
    """
    Z = as_tuple_point(Z)
    d = _positive_det_im(det_im(Z))
    adjP = adj2(hermitian_im(Z))

    V = np.asarray(directions, dtype=complex)  # (m, N, 2, 2)
    A = V * (-0.5j)
    Bm = np.conj(np.swapaxes(V, -1, -2)) * (0.5j)
    adjA = adj2(A)

    a = np.einsum("nij,anji->an", adjP, A)
    b = np.einsum("nij,bnji->bn", adjP, Bm)
    c = np.einsum("anij,bnji->abn", adjA, Bm)
    L = np.einsum("an,bn,n->ab", a, b, 2.0 / d**3) - np.einsum("abn,n->ab", c, 1.0 / d**2)
    L = (L + L.conj().T) / 2.0
    return LeviForm(d=V.shape[0], entries=L)


def omega_eval(Z, V, W):
    """Kaehler form omega(V, W) at Z from first differences of d^c phi.

    d^c phi(U) at a point Y is dphi(Y, J U); omega = -d(d^c phi) reduces
    for constant coordinate fields to
    -(D_V d^c phi(W) - D_W d^c phi(V)), antisymmetric by construction.
    The differences are directional_derivative's, whose Richardson step
    keeps residuals at reduced points well below the isotropy tolerance.
    """

    def d_along(D, U):
        return directional_derivative(lambda Y: dphi(Y, apply_J(U)), Z, D).value

    return -(d_along(V, W) - d_along(W, V))


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

    Truncates (and records where) if the flow leaves the tube; truncation
    is reported, never raised.  Strictness is required only across steps
    that move the point by more than 1e-9.
    """
    Z = as_tuple_point(Z)
    if not tube_membership(Z):
        raise DomainError("flow must start inside the tube")
    xi = np.asarray(xi, dtype=float)
    if steps <= 0 or t_max == 0.0:
        ts = [0.0]
    else:
        ts = [t_max * i / steps for i in range(steps + 1)]

    values = []
    kept_ts = []
    displacements = []
    truncated_at = None
    prev = None
    for i, t in enumerate(ts):
        Zt = flow_point(xi, 1j * t, Z)
        if not tube_membership(Zt):
            truncated_at = i
            break
        values.append(dphi(Zt, apply_J(real_vector_field(xi, Zt))))
        kept_ts.append(t)
        displacements.append(0.0 if prev is None else float(np.linalg.norm(Zt - prev)))
        prev = Zt

    nondecreasing = all(
        values[i + 1] >= values[i] - slack for i in range(len(values) - 1)
    )
    strict = all(
        values[i + 1] > values[i]
        for i in range(len(values) - 1)
        if displacements[i + 1] > 1e-9
    )
    return FlowReport(
        ts=kept_ts,
        values=values,
        displacements=displacements,
        truncated_at=truncated_at,
        nondecreasing=nondecreasing,
        strict_when_moving=strict,
    )
