"""Orbit minimization of the potential and the minimum-principle checks.

The minimizer descends along the six transverse directions exp(i s xi),
using the moment value itself as the gradient: mu_xi is exactly the
derivative of phi along exp(i t xi).  The potential is its own barrier,
so trial steps leaving the tube are rejected by the line search.  Reduced
points realize the fiberwise minimum, and the checks below grade the
structure expected there: vanishing symplectic form on the real orbit,
positive normal Hessian, and the Levi identity between the fiberwise
minimum and the potential on a metric-orthogonal section.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import (
    IDENTITY,
    DomainError,
    adj2,
    as_tuple_point,
    det2,
    hermitian_im,
    tube_mask,
)
from .actions import (
    _dots,
    act_real,
    apply_J,
    damped_newton,
    descend,
    flow_pairs,
    full_tangent_basis,
    orbit_fields,
)
from .psh import (
    dphi,
    levi_form,
    levi_form_phi,
    moment_map,
    omega_eval,
    orbit_derivatives,
    phi_in_tube,
)
from .quotient import gram_rank

__all__ = [
    "ConvergenceError",
    "ReductionResult",
    "orbit_minimize",
    "orbit_minimize_all",
    "big_psi",
    "LagrangianReport",
    "lagrangian_check",
    "CriticalityReport",
    "critical_iff_moment_zero",
    "section_probe",
    "SectionLeviReport",
    "section_levi_identity",
]


class ConvergenceError(RuntimeError):
    """The orbit minimizer did not reach the requested moment tolerance."""


@dataclass
class ReductionResult:
    start: np.ndarray
    minimizer: np.ndarray  # the pair (g, h) as one (2, 2, 2) array
    reduced_point: np.ndarray
    phi_min: float
    moment_norm: float
    converged: bool
    iterations: int


# moves per solve; a start still descending after them is unconverged
_MAX_ITERS = 2000


def _transverse_chart(xi, s):
    return flow_pairs(xi, 1j * s)


def _gauge(Z):
    """g = det(P)^(1/4) P^(-1/2) for P = Im Z^1 of each point of a stack.

    g is Hermitian with det 1, and g Z g^H has Im of its first component
    sqrt(det P) I.  g does not change when P is scaled, so it is taken
    from Q = P / (tr P / 2), whose entries are at most 1 in size: with
    s = sqrt(det Q), sqrt(Q) = (Q + s I) / sqrt(tr Q + 2 s), so
    g = (adj Q + s I) / sqrt(s (tr Q + 2 s)).  No finite P overflows it,
    and it is I exactly when P is scalar.
    """
    P = hermitian_im(Z[:, 0])
    Q = P / (0.5 * P[:, 0, 0] + 0.5 * P[:, 1, 1]).real[:, None, None]
    s = np.sqrt(det2(Q).real)
    trace = (Q[:, 0, 0] + Q[:, 1, 1]).real
    return (adj2(Q) + s[:, None, None] * IDENTITY) / np.sqrt(s * (trace + 2.0 * s))[:, None, None]


def orbit_minimize(Z, moment_tol=1e-8):
    """Minimize phi over the local complexified orbit of Z.

    The stack of one of orbit_minimize_all, which documents the method.
    Converged means the moment norm fell below moment_tol.
    Non-convergence is reported through the flag, not raised: it signals
    either an exhausted budget of _MAX_ITERS moves or a fiber whose
    infimum this probe did not attain.
    """
    return orbit_minimize_all(as_tuple_point(Z)[None], moment_tol)[0]


def orbit_minimize_all(Zs, moment_tol=1e-8):
    """orbit_minimize of every start of a stack (B, N, 2, 2), in lockstep.

    Returns the list of B results; each equals orbit_minimize of its
    start, bit for bit.  Each start is first gauge-fixed by the real
    group: g = det(P)^(1/4) P^(-1/2) with P = Im of its first component
    makes that Im scalar, so only SU(2) is left free along the real
    orbit, and the cost of a solve no longer depends on where its start
    lies on that orbit.  g is folded into the returned minimizer, the
    pair (g, h) as one (2, 2, 2) array.
    Moves are then Z <- exp(i s xi) . Z, descending with
    actions.descend.  The moment value is the gradient of phi in the
    exp(i g) chart, and its derivative along the chart is the normal
    Hessian J_kl = omega(field_k, J field_l) = 4 Re <field_k, field_l>_Levi,
    so a damped solve of J xi = -mu is a Newton step for the zero of the
    moment; psh.orbit_derivatives gives both in closed form from one
    set of per-component traces per iteration, without building the
    fields.  The damping 0.01 |mu| handles the gauge directions where
    the fields degenerate (point stabilizers).  Trial steps leaving the
    tube are rejected.
    """
    Z0 = np.asarray(Zs, dtype=complex)
    if Z0.ndim != 4 or Z0.shape[2:] != (2, 2):
        raise ValueError(f"expected a (B,N,2,2) stack of tuple points, got shape {Z0.shape}")
    if not tube_mask(Z0).all():
        raise DomainError("orbit_minimize starts from a tube point")
    g0 = _gauge(Z0)
    Y0 = act_real(g0[:, None], Z0)
    moment_norm = np.zeros(len(Z0))

    def model(live, P, value, pairs):
        m, levi = orbit_derivatives(P)
        mn = np.sqrt(_dots(m, m))  # np.linalg.norm of each row, bit for bit
        moment_norm[live] = mn

        def direction(sel):
            # the normal Hessian only where the descent goes on
            return damped_newton(m[sel], 4.0 * np.real(levi(sel)), 0.01 * mn[sel] + 1e-300)

        return mn <= moment_tol, direction

    P, phi_min, pairs, its = descend(
        Y0, phi_in_tube(Y0), model, _transverse_chart, phi_in_tube, _MAX_ITERS
    )
    # det g0 = 1 up to rounding, so the products stay unimodular
    minimizers = pairs @ np.stack([g0, np.conj(g0)], axis=1)
    return [
        ReductionResult(
            start=Z0[b],
            minimizer=minimizers[b],
            reduced_point=P[b],
            phi_min=float(phi_min[b]),
            moment_norm=float(moment_norm[b]),
            converged=bool(moment_norm[b] <= moment_tol),
            iterations=int(its[b]),
        )
        for b in range(len(Z0))
    ]


def big_psi(Zs, moment_tol=1e-8):
    """Infimum of phi over the local orbit: the induced quotient function.

    The array of the m values of a stack (m, N, 2, 2), from one
    orbit_minimize_all call.  Raises ConvergenceError if some reduction
    did not converge, and DomainError if some point is outside the tube.
    """
    results = orbit_minimize_all(Zs, moment_tol)
    for r in results:
        if not r.converged:
            raise ConvergenceError(f"moment norm {r.moment_norm:.2e} after {r.iterations} iterations")
    return np.array([r.phi_min for r in results])


@dataclass
class LagrangianReport:
    max_omega: float
    orbit_dim: int
    complex_orbit_dim: int
    dimension_ok: bool
    normal_hessian_positive: bool
    passed: bool


def lagrangian_check(R, tol=1e-5):
    """Grade isotropy of the real orbit through a reduced point.

    Evaluates omega on all basis field pairs and checks the dimension side
    condition: the real orbit span is half the real dimension of the
    complex orbit span (Lagrangian inside the fiber).  Also reports whether
    omega(F, J F) > 0 for every nonzero field F (positive normal Hessian),
    which `passed` does not include.
    """
    if not R.converged:
        raise ValueError("lagrangian_check needs a converged reduction")
    Zr = R.reduced_point
    F = orbit_fields(Zr)
    scale = 1.0 + float(np.linalg.norm(Zr))
    live = [k for k in range(6) if np.linalg.norm(F[k]) > 1e-10 * scale]
    pairs = [(a, b) for i, a in enumerate(live) for b in live[i + 1 :]]
    # the omega pairs and then the normal Hessian values, in one call
    V = F[[a for a, _ in pairs] + live]
    W = np.concatenate([F[[b for _, b in pairs]], apply_J(F[live])])
    omegas = omega_eval(Zr, V, W) if live else np.zeros(0)
    worst = max([0.0] + [abs(w) for w in omegas[: len(pairs)].tolist()])
    normal_pos = bool(np.all(omegas[len(pairs) :] > 0.0))
    V = F[live].reshape(len(live), F[0].size)
    Vc = np.concatenate([V, 1j * V])
    rank_real = gram_rank(np.hstack([V.real, V.imag]), tol=1e-6)
    rank_complex = gram_rank(np.hstack([Vc.real, Vc.imag]), tol=1e-6)
    dimension_ok = 2 * rank_real == rank_complex
    return LagrangianReport(
        max_omega=worst,
        orbit_dim=rank_real,
        complex_orbit_dim=rank_complex,
        dimension_ok=dimension_ok,
        normal_hessian_positive=normal_pos,
        passed=bool(worst <= tol and dimension_ok),
    )


@dataclass
class CriticalityReport:
    moment_norm: float
    orbit_gradient_norm: float
    consistent: bool


def critical_iff_moment_zero(Z):
    """Compare the moment norm with the orbit-restricted gradient of phi.

    The twelve orbit directions are the six basis fields and their J
    images; invariance kills the first six, the J directions carry the
    moment components, so the two norms vanish together.
    """
    Z = as_tuple_point(Z)
    m = moment_map(Z)
    F = orbit_fields(Z)
    gn = float(np.linalg.norm(dphi(Z, np.concatenate([F, apply_J(F)]))))
    mn = float(np.linalg.norm(m))
    tol = 1e-6
    consistent = (mn <= tol and gn <= tol) or (mn > tol and gn > tol)
    return CriticalityReport(moment_norm=mn, orbit_gradient_norm=gn, consistent=consistent)


def section_probe(base):
    """Metric-orthogonal complement of the complex orbit tangent at a
    reduced point, orthonormalized in the Kaehler metric of phi: a stack
    (d, N, 2, 2) of directions.

    The metric Hermitian form is 4 x the Levi form (our omega convention
    gives omega(V, JV) = 4 <V, V>_Levi).  Orthogonality to the orbit makes
    the minimum-section through the probe flat to first order, which is
    the condition the Levi identity needs.
    """
    base = as_tuple_point(base)
    n = base.shape[0]
    full = full_tangent_basis(n)
    dim = 4 * n
    L = levi_form_phi(base, full)
    # in column-vector form the Levi pairing L(v, w) reads w^H conj(L) v,
    # so the metric matrix for flattened tangents is the conjugate
    M = 4.0 * np.conj(L)
    w, U = np.linalg.eigh(M)
    if np.min(w) <= 0:
        raise ValueError("metric form is not positive definite at the base")
    Msqrt = (U * np.sqrt(w)) @ U.conj().T
    Minvs = (U / np.sqrt(w)) @ U.conj().T

    F = orbit_fields(base).reshape(6, dim)
    _, s, Vh = np.linalg.svd(F, full_matrices=False)
    t = int(np.sum(s > 1e-8 * s[0]))  # 0 when the fields vanish
    # columns spanning span_C{fields}: plain transpose, the conjugate
    # rows of Vh span the conjugate space instead; the trailing left
    # singular vectors of their metric image span its complement
    Uy = np.linalg.svd(Msqrt @ Vh[:t].T)[0]
    X = Minvs @ Uy[:, t:]
    # Uy has Euclidean-orthonormal columns so X is metric-orthonormal
    # already; re-orthonormalize against roundoff
    gram = X.conj().T @ M @ X
    chol = np.linalg.cholesky(gram)
    X = X @ np.linalg.inv(chol).conj().T

    fcols = F.T / max(1e-300, float(np.max(np.abs(F))))
    ortho_defect = float(np.max(np.abs(X.conj().T @ M @ fcols))) if t else 0.0
    onb_defect = float(np.max(np.abs(X.conj().T @ M @ X - np.eye(X.shape[1]))))
    if max(ortho_defect, onb_defect) > 1e-8:
        raise ValueError("section directions failed the orthonormality tolerance")
    return X.T.reshape(-1, n, 2, 2)


@dataclass
class SectionLeviReport:
    deviation: float
    min_eigenvalue: float
    levi_phi: np.ndarray
    passed: bool


def section_levi_identity(base, dev_tol=1e-3, eig_tol=1e-6):
    """Compare the Levi form of the fiberwise minimum with that of phi.

    The fiberwise minimum through the probe is evaluated by nested orbit
    minimization of each stencil chunk in lockstep (inner moment tolerance
    1e-10 keeps second-difference noise under the acceptance band).
    Passing means relative deviation <= dev_tol with minimum eigenvalue
    >= -eig_tol.  The section_probe directions are never empty: a tube
    matrix has det != 0, so at n = 1 its complex orbit {det W = lambda}
    leaves d = 1 of them, and at n >= 2, d >= 4n - 6.
    """
    mn = float(np.linalg.norm(moment_map(base)))
    if mn > 1e-6:
        raise ValueError(f"probe base is not reduced (moment norm {mn:.2e})")
    directions = section_probe(base)
    A = levi_form(lambda Y: big_psi(Y, 1e-10), base, directions)
    B = levi_form_phi(base, directions)
    deviation = float(np.linalg.norm(A - B) / np.linalg.norm(B))
    min_eig = float(np.linalg.eigvalsh((A + A.conj().T) / 2.0)[0])
    return SectionLeviReport(
        deviation=deviation,
        min_eigenvalue=min_eig,
        levi_phi=B,
        passed=bool(deviation <= dev_tol and min_eig >= -eig_tol),
    )
