"""Orbit minimization, the fiberwise minimum and the reduction checks."""

import numpy as np
import pytest

from futuretube import actions as A
from futuretube import geometry as G
from futuretube import psh, reduction
from futuretube.quotient import gram_map, kempf_ness_minimize_all, saturation_probe
from futuretube.reduction import (
    ConvergenceError,
    big_psi,
    critical_iff_moment_zero,
    lagrangian_check,
    orbit_minimize,
    orbit_minimize_all,
    section_levi_identity,
    section_probe,
)
from futuretube.rng import stream_for

iI = 1j * np.eye(2)


def fiber_minimum(c):
    """Independent oracle for the single-matrix fiber minimum of phi.

    On the fiber det = c every tube point is unitarily conjugate to an
    upper-triangular [[x, z], [0, y]] with x y = c, where
    det Im = Im x Im y - |z|^2/4.  The off-diagonal only hurts, and
    maximizing Im x Im y = |c| sin(t) sin(arg c - t) over t gives
    |c| sin^2(arg c / 2) = (|c| - Re c)/2, so min phi = 2/(|c| - Re c).
    """
    c = complex(c)
    return 2.0 / (abs(c) - c.real)


def brute_force_orbit_min(Z, rng, rounds=3000):
    """Crude independent descent: random transverse moves, keep improvements."""
    P = G.as_tuple_point(Z).copy()
    best = psh.phi(P)
    step = 0.5
    for _ in range(rounds):
        xi = rng.normals(6)
        xi /= np.linalg.norm(xi)
        for sgn in (1.0, -1.0):
            Q = A.act_complex(A.flow_pairs(xi, 1j * sgn * step), P)
            if G.tube_mask(Q):
                v = psh.phi(Q)
                if v < best:
                    P, best = Q, v
                    break
        else:
            step *= 0.97
            if step < 1e-6:
                break
    return best


def test_orbit_minimize_frozen_examples():
    r = orbit_minimize(iI)
    assert r.converged and r.iterations == 0
    assert r.phi_min == 1.0 and r.moment_norm == 0.0

    r = orbit_minimize(np.array([[1j, 1.0], [0.0, 1j]]))
    assert r.converged
    assert abs(r.phi_min - 1.0) <= 1e-4
    assert r.moment_norm <= 1e-6

    r = orbit_minimize(2j * np.eye(2))
    assert r.converged
    assert abs(r.phi_min - 0.25) <= 1e-6
    assert r.moment_norm <= 1e-6


def test_orbit_minimize_against_fiber_oracle():
    for i in range(20):
        s = stream_for(5, "red-oracle", i)
        W = G.sample_tube_matrix(s)
        want = fiber_minimum(G.det2(W))
        r = orbit_minimize(G.as_tuple_point(W))
        assert r.converged
        assert abs(r.phi_min - want) <= 1e-9 * want
        # reduced point stays in the tube and on the fiber
        assert G.tube_mask(r.reduced_point)
        assert abs(G.det2(r.reduced_point[0]) - G.det2(W)) <= 1e-9 * (1 + abs(G.det2(W)))
        # the quotient map, G_C-invariant, is unchanged by the reduction
        want = gram_map(G.as_tuple_point(W))
        assert np.max(np.abs(gram_map(r.reduced_point) - want)) <= 1e-12 * np.max(np.abs(want))


def test_orbit_minimize_against_brute_force():
    for i in range(3):
        s = stream_for(5, "red-brute", i)
        Z = G.sample_tube_point(s, 2)
        r = orbit_minimize(Z)
        assert r.converged
        crude = brute_force_orbit_min(Z, s)
        assert r.phi_min <= crude + 1e-6
        # analytic lower bound from det Im <= |det|
        assert r.phi_min >= float(np.sum(1.0 / np.abs(G.det2(Z)))) - 1e-9


def test_orbit_minimize_translate_consistency():
    for i in range(15):
        s = stream_for(5, "red-trans", i)
        n = 1 + (i % 2)
        Z = G.sample_tube_point(s, n)
        g1, g2 = A.sample_sl2(s), A.sample_sl2(s)
        r1 = orbit_minimize(A.act_real(g1, Z))
        r2 = orbit_minimize(A.act_real(g2, Z))
        assert r1.converged and r2.converged
        assert abs(r1.phi_min - r2.phi_min) <= 1e-5


def test_orbit_minimize_requires_tube_start():
    with pytest.raises(G.DomainError):
        orbit_minimize(np.eye(2, dtype=complex))


def test_big_psi():
    # scaling family: det = -1/k^2, fiber minimum k^2
    for k in (1, 2, 5):
        assert abs(big_psi(G.as_tuple_point(iI / k)[None])[0] - k * k) <= 1e-6 * k * k
    # psi <= phi on the tube
    s = stream_for(5, "psi", 0)
    Z = G.sample_tube_point(s, 2)
    assert big_psi(Z[None])[0] <= psh.phi(Z) + 1e-9
    with pytest.raises(G.DomainError):
        big_psi(G.as_tuple_point(np.eye(2, dtype=complex))[None])  # outside the tube


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_big_psi_on_the_levi_identity_stencil_equals_the_one_point_calls(n):
    # the seed-7 levi-identity sample, reduced and probed as the suite does
    Z = G.sample_tube_point(stream_for(7, "levi-identity", 0), n)
    base = orbit_minimize(Z, moment_tol=1e-10).reduced_point
    directions = section_probe(base)
    calls = []

    def f(Y):
        calls.append((Y, big_psi(Y, 1e-10)))
        return calls[-1][1]

    psh.levi_form(f, base, directions)
    d = len(directions)
    ((Y, values),) = calls
    assert len(Y) == 1 + 4 * d + 8 * d * (d - 1)
    assert values.tolist() == [big_psi(P[None], 1e-10)[0] for P in Y]


def test_stacked_big_psi_raises_for_any_unconverged_or_outside_point(monkeypatch):
    Z = np.stack([G.sample_tube_point(stream_for(5, "psi-stack", i), 2) for i in range(3)])
    with monkeypatch.context() as m, pytest.raises(ConvergenceError):
        m.setattr(reduction, "_MAX_ITERS", 1)
        big_psi(Z)
    Z[1, 0] = 1j * np.diag([1.0, -1.0])
    with pytest.raises(G.DomainError):
        big_psi(Z)
    # an i-step of the stencil leaves the tube, as in test_stencil_domain_error
    B = np.zeros((1, 1, 2, 2), dtype=complex)
    B[0, 0, 0, 0] = 1.0
    with pytest.raises(psh.StencilDomainError):
        psh.levi_form(big_psi, G.as_tuple_point(1j * np.diag([1e-4, 1.0])), B)


def test_empty_stacks_reduce_to_nothing():
    empty = np.zeros((0, 2, 2, 2), dtype=complex)
    assert orbit_minimize_all(empty) == []
    assert big_psi(empty).shape == (0,)


def test_tuple_points_without_components_are_rejected_by_shape():
    none = np.zeros((0, 2, 2), dtype=complex)
    for solve in (G.as_tuple_point, orbit_minimize, saturation_probe):
        with pytest.raises(ValueError, match=r"got shape \(0, 2, 2\)"):
            solve(none)
    for solve in (orbit_minimize_all, kempf_ness_minimize_all):
        with pytest.raises(ValueError, match=r"got shape \(3, 0, 2, 2\)"):
            solve(np.zeros((3, 0, 2, 2), dtype=complex))


def test_lagrangian_check_at_identity_base():
    r = orbit_minimize(iI)
    rep = lagrangian_check(r)
    assert rep.max_omega <= 1e-8
    assert rep.orbit_dim == 3
    assert rep.complex_orbit_dim == 6
    assert rep.dimension_ok and rep.passed


def test_lagrangian_check_random_reduced():
    for i in range(6):
        s = stream_for(5, "red-lag", i)
        Z = G.sample_tube_point(s, 2)
        r = orbit_minimize(Z, moment_tol=1e-10)
        rep = lagrangian_check(r)
        assert rep.passed
        # normal Hessian positive along live fields
        F = A.orbit_fields(r.reduced_point)
        for k in range(6):
            if np.linalg.norm(F[k]) > 1e-8:
                assert psh.omega_eval(r.reduced_point, F[k][None], A.apply_J(F[k])[None])[0] > 0


def test_lagrangian_needs_convergence():
    r = orbit_minimize(iI)
    r.converged = False
    with pytest.raises(ValueError):
        lagrangian_check(r)


def test_criticality_report():
    rep = critical_iff_moment_zero(G.as_tuple_point(iI))
    assert rep.consistent and rep.moment_norm <= 1e-12

    rep = critical_iff_moment_zero(G.as_tuple_point(np.eye(2) + 1j * np.diag([2.0, 0.5])))
    assert rep.consistent
    assert rep.moment_norm > 1e-3 and rep.orbit_gradient_norm > 1e-3
    # the J-directions carry exactly the moment components
    assert abs(rep.moment_norm - rep.orbit_gradient_norm) <= 1e-9 * rep.moment_norm

    s = stream_for(5, "red-crit", 0)
    Z = G.sample_tube_point(s, 2)
    r = orbit_minimize(Z, moment_tol=1e-9)
    rep = critical_iff_moment_zero(r.reduced_point)
    assert rep.consistent and rep.moment_norm <= 1e-6


def test_monotone_flow_uniqueness_at_reduced_points():
    # from a reduced point, mu_xi leaves zero exactly when the flow moves
    for i in range(10):
        s = stream_for(5, "red-uniq", i)
        Z = G.sample_tube_point(s, 1 + (i % 2))
        r = orbit_minimize(Z, moment_tol=1e-10)
        xi = A.sample_algebra(s)
        xi /= np.linalg.norm(xi)
        rep = psh.flow_monotonicity(xi[None], r.reduced_point[None], t_max=0.2, steps=20)[0]
        moved = max(rep.displacements) > 1e-9
        stayed_zero = max(abs(v) for v in rep.values) <= 1e-7
        assert moved != stayed_zero


def test_section_probe_orthogonality():
    s = stream_for(5, "red-probe", 0)
    Z = G.sample_tube_point(s, 2)
    r = orbit_minimize(Z, moment_tol=1e-10)
    directions = section_probe(r.reduced_point)
    # complement dimension: 8 ambient minus 5 generic orbit directions
    assert directions.shape[0] == 3
    L = psh.levi_form_phi(r.reduced_point, np.concatenate([A.orbit_fields(r.reduced_point), directions]))
    cross = L[:6, 6:]
    assert np.max(np.abs(cross)) <= 1e-8
    onb = L[6:, 6:]
    assert np.max(np.abs(4.0 * onb - np.eye(3))) <= 1e-8


def test_section_levi_identity_n1():
    rep = section_levi_identity(G.as_tuple_point(iI))
    assert rep.passed
    assert rep.deviation <= 1e-3
    assert rep.min_eigenvalue >= -1e-6
    # the metric normalization makes the reference block exactly I/4
    assert np.max(np.abs(rep.levi_phi - 0.25 * np.eye(1))) <= 1e-10


def test_section_levi_identity_n2():
    s = stream_for(5, "red-sec2", 0)
    Z = G.sample_tube_point(s, 2)
    r = orbit_minimize(Z, moment_tol=1e-10)
    rep = section_levi_identity(r.reduced_point)
    assert rep.passed
    assert rep.deviation <= 1e-3
    assert rep.min_eigenvalue >= -1e-6


def test_section_levi_identity_guards():
    s = stream_for(5, "red-guard", 0)
    Z = G.sample_tube_point(s, 2)  # not reduced
    if np.linalg.norm(psh.moment_map(Z)) > 1e-3:
        with pytest.raises(ValueError):
            section_levi_identity(Z)


def test_reduce_minimum_at_n_32_converges_in_few_iterations(monkeypatch):
    # phi is about 32 at n = 32, and the Armijo test cannot resolve
    # decreases below its rounding: there a trial is accepted on its
    # moment norm instead, so no solve backtracks through the rounding of
    # its trial points
    from futuretube import suites

    iterations = []
    calls = []
    phi_in_tube = reduction.phi_in_tube

    def counted(*args, **kwargs):
        results = orbit_minimize_all(*args, **kwargs)
        iterations.extend(r.iterations for r in results)
        return results

    def counted_phi(Y):
        calls.append(len(Y))
        return phi_in_tube(Y)

    monkeypatch.setattr(suites, "orbit_minimize_all", counted)
    monkeypatch.setattr(reduction, "phi_in_tube", counted_phi)
    for seed in range(16):
        rep = suites.run_suite(suites.ExperimentConfig(suite="reduce-minimum", seed=seed, n=32))
        assert rep.verdict == "pass" and rep.aggregate["fail_count"] == 0
    assert len(iterations) == 16 * 2 * 15
    assert max(iterations) <= 8
    assert len(calls) <= 160


def test_a_tolerance_below_the_rounding_floor_ends_in_bounded_work():
    # at n = 32 a moment norm of 1e-12 is below what phi's rounding
    # resolves: each start stops at the first trial that does not lower
    # its moment norm, close to the tolerance, well before _MAX_ITERS
    Z = np.stack([G.sample_tube_point(stream_for(seed, "x", 0), 32) for seed in range(16)])
    results = orbit_minimize_all(Z, moment_tol=1e-12)
    assert max(r.iterations for r in results) < reduction._MAX_ITERS
    assert all(r.converged or r.moment_norm <= 1e-10 for r in results)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9")
@pytest.mark.parametrize("j", [-20, 14, 20])
def test_the_reduction_commutes_with_a_power_of_two_scale(j):
    # phi(s Z) = phi(Z) / s^2, so the minimum over the orbit of 2^j Z is
    # the minimum of Z times 4^-j.  The stop test on the moment is
    # absolute: 2^14 Z and 2^20 Z stop early, 21-55% above the minimum,
    # and 2^-20 Z ends unconverged
    Z = G.sample_tube_point(stream_for(3, "x", 0), 2)
    want = orbit_minimize(Z)
    r = orbit_minimize(2.0**j * Z)
    assert want.converged and r.converged
    assert abs(r.phi_min * 4.0**j - want.phi_min) <= 1e-9 * want.phi_min
