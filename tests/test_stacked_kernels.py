"""Stacked kernels equal their one-point calls exactly.

phi, dphi, expm_traceless and orbit_fields take points with any leading
axes (..., N, 2, 2) and return results with those axes; directional_derivative, levi_form and flow_monotonicity build
their stencil or grid as such stacks and take fields f on stacks.  Every comparison here is
`==` on the floats, not a tolerance: stacking only moves the loop from
Python into numpy.  The per-point references below are the loops these
functions ran before they were stacked.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from futuretube import actions as A
from futuretube import geometry as G
from futuretube import psh
from futuretube import quotient
from futuretube.rng import stream_for

iI = 1j * np.eye(2)
E1 = np.array([1.0, 0, 0, 0, 0, 0])
# det Im of both components overflows to inf; phi rescales
OVERFLOWING = np.stack([1e155 * iI + 1e154 * np.array([[1.0, 2.0], [3.0, 0.0]]), 1e155 * iI])


def _points(name, n, m):
    return np.stack([G.sample_tube_point(stream_for(5, name, i), n) for i in range(m)])


@pytest.mark.parametrize("n", [1, 2, 3, 9, 32])
def test_phi_on_a_stack_matches_each_point(n):
    Z = _points("stack-phi", n, 7)
    values = psh.phi(Z)
    assert values.shape == (7,)
    assert values.tolist() == [psh.phi(Y) for Y in Z]


def test_phi_on_a_stack_rescales_only_the_overflowing_points():
    ordinary = _points("stack-phi-over", 2, 2)
    Z = np.stack([ordinary[0], OVERFLOWING, ordinary[1], OVERFLOWING])
    values = psh.phi(Z)
    assert values.tolist() == [psh.phi(Y) for Y in Z]
    assert values[1] == pytest.approx(2.0025e-310, rel=1e-4)


def _plain_im_kernels(Z):
    # phi, tube_margin and tube_mask in unscaled arithmetic, and whether
    # every intermediate value is zero or a normal finite double
    a, d, b = G._im_parts(Z)
    with np.errstate(all="ignore"):
        steps = [a * d, b.real**2, b.imag**2, (a - d) ** 2]
        det = steps[0] - (steps[1] + steps[2])
        rad = np.sqrt(steps[3] + 4.0 * (steps[1] + steps[2]))
        steps += [det, 1.0 / det, rad, a + d - rad]
        phi = np.sum(1.0 / det, axis=-1)
    margin = np.min((a + d - rad) / 2.0, axis=-1)
    normal = [(x == 0.0) | ((np.abs(x) >= np.finfo(float).tiny) & np.isfinite(x)) for x in steps]
    return phi, margin, np.all((a > 0) & (det > 0), axis=-1), np.all(normal, axis=(0, -1))


def test_scaled_kernels_equal_the_plain_formulas_bit_for_bit():
    Z = _points("stack-scaled", 3, 40)
    compared = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for k in range(-160, 161, 5):
            W = Z * 10.0**k
            mask, margin = G.tube_mask(W), G.tube_margin(W)
            assert mask.all() and (margin > 0).all()
            phi, plain_margin, plain_mask, ok = _plain_im_kernels(W)
            assert np.array_equal(margin[ok].view(np.uint64), plain_margin[ok].view(np.uint64))
            assert np.array_equal(mask[ok], plain_mask[ok])
            ok &= phi < np.inf
            if ok.any():
                values = psh.phi(W[ok])
                assert np.array_equal(values.view(np.uint64), phi[ok].view(np.uint64))
            compared += int(ok.sum())
    # the plain formulas stay in range from 1e-150 to 1e150
    assert compared == 40 * 61


def test_phi_on_a_stack_rejects_a_point_outside_the_tube():
    Z = _points("stack-phi-out", 2, 3)
    Z[1, 0] = 1j * np.diag([1.0, -1.0])
    with pytest.raises(G.DomainError):
        psh.phi(Z)


def test_dphi_broadcasts_a_stacked_point():
    Z = _points("stack-dphi", 3, 5)
    s = stream_for(5, "stack-dphi-v", 0)
    V = np.stack([np.stack([s.matrix() for _ in range(3)]) for _ in range(5)])
    both = psh.dphi(Z, V)
    assert both.tolist() == [psh.dphi(Z[k], V[k]) for k in range(5)]
    one_direction = psh.dphi(Z, V[0])
    assert one_direction.tolist() == [psh.dphi(Z[k], V[0]) for k in range(5)]
    one_point = psh.dphi(Z[0], V)
    assert one_point.tolist() == [psh.dphi(Z[0], V[k]) for k in range(5)]


def _bits(a):
    # float or complex results as their raw 64-bit words
    return np.ascontiguousarray(a).view(np.uint64)


def test_kernels_broadcast_two_leading_axes():
    # a (2, 3) grid of points gives the flattened stack's results reshaped,
    # bit for bit
    Z, V = _points("stack-grid", 2, 6), _points("stack-grid-v", 2, 6)
    Zg, Vg = Z.reshape(2, 3, 2, 2, 2), V.reshape(2, 3, 2, 2, 2)
    basis = A.full_tangent_basis(2)
    kernels = (
        psh.phi,
        psh.moment_map,
        lambda P: psh.levi_form_phi(P, basis),
        A.orbit_fields,
        quotient.gram_map,
        G.tube_margin,
    )
    for kernel in kernels:
        flat = kernel(Z)
        grid = kernel(Zg)
        assert grid.shape == (2, 3) + flat.shape[1:]
        assert np.array_equal(_bits(grid), _bits(flat.reshape(grid.shape)))
    assert np.array_equal(_bits(psh.dphi(Zg, Vg)), _bits(psh.dphi(Z, V).reshape(2, 3)))
    assert np.array_equal(G.tube_mask(Zg), G.tube_mask(Z).reshape(2, 3))


def test_expm_traceless_on_a_stack_straddling_the_series_branch():
    X = A.realize(A.sample_algebra(stream_for(5, "stack-expm", 0)))
    unit = X / np.sqrt(-G.det2(X))  # |d| = 1
    scales = [0.0, 1e-9, 5e-7, 9.999e-7, 1e-6, 1.0001e-6, 3e-6, 0.3, 2.0]
    M = np.stack([c * unit for c in scales] + [1j * c * unit for c in scales])
    small = np.abs(np.sqrt(-G.det2(M))) < 1e-6
    assert small.any() and not small.all()
    E = A.expm_traceless(M)
    assert E.shape == M.shape
    for k in range(len(M)):
        assert np.array_equal(E[k], A.expm_traceless(M[k]))


def test_flow_pair_and_flow_point_on_an_array_of_times():
    s = stream_for(5, "stack-flow-pair", 0)
    xi = A.sample_algebra(s)
    Z = G.sample_tube_point(s, 3)
    taus = np.array([1j * t for t in (0.0, 0.1, 0.7)])
    E = A.flow_pairs(xi, taus)
    points = A.act_complex(E[:, None], Z)
    assert E.shape == (3, 2, 2, 2) and points.shape == (3,) + Z.shape
    for k, tau in enumerate(taus.tolist()):
        assert np.array_equal(E[k], A.flow_pairs(xi, tau))
        assert np.array_equal(points[k], A.act_complex(A.flow_pairs(xi, tau), Z))
        assert np.array_equal(A.act_complex(A.flow_pairs(xi, tau), Z[0]), points[k, 0])


def test_flow_grid_above_the_entrywise_size_equals_the_one_pair_calls():
    # a flow grid as flow_monotonicity builds it: past _ENTRYWISE entries
    # in an operand, expm_traceless and act_complex take their products
    # entry by entry, with the same bits
    s = stream_for(5, "stack-act-large", 0)
    Z = _points("stack-act-large", 2, 4)
    xi = np.stack([A.sample_algebra(s) for _ in range(4)])
    ts = np.linspace(0.0, 0.5, 160)
    pairs = A.flow_pairs(xi[:, None, None], 1j * ts[:, None])
    points = A.act_complex(pairs, Z[:, None])
    assert pairs[..., 0, :, :].size > A._ENTRYWISE >= Z[0].size
    for k in range(4):
        for t in (0, 77, 159):
            assert np.array_equal(pairs[k, t, 0], A.flow_pairs(xi[k], 1j * ts[t]))
            assert np.array_equal(points[k, t], A.act_complex(pairs[k, t, 0], Z[k]))


def _reference_orbit_fields(Z):
    # the two products e_k Z and Z e_k^H that the constant field map replaces
    Z = np.asarray(Z, dtype=complex)
    return np.einsum("kab,...nbc->...knac", A.BASIS, Z) + np.einsum(
        "...nab,kbc->...knac", Z, A.BASIS_DAG
    )


def _assert_bitwise_equal(a, b):
    assert a.shape == b.shape and np.array_equal(a, b)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(a)), np.signbit(part(b)))


@pytest.mark.parametrize("n", [2, 3, 32])
def test_orbit_fields_equal_the_two_products_bit_for_bit(n):
    Z = _points("stack-fields", n, 5)
    F = A.orbit_fields(Z)
    assert F.shape == (5, 6, n, 2, 2) and F.flags.c_contiguous
    _assert_bitwise_equal(F, _reference_orbit_fields(Z))
    for Y, FY in zip(Z, F):
        one = A.orbit_fields(Y)
        assert one.shape == (6, n, 2, 2) and one.flags.c_contiguous
        _assert_bitwise_equal(one, _reference_orbit_fields(Y))
        _assert_bitwise_equal(FY, one)


def test_orbit_fields_keep_the_signs_of_zero():
    # zero entries, negative zeros and real entries: every field entry that
    # cancels or vanishes carries the sign the two products give it
    Z = np.stack([1j * np.eye(2), np.array([[-0.0, 1.0], [0.0, -2.0j]]), np.zeros((2, 2))])
    Z[2, 0, 1] = complex(-0.0, -0.0)
    for Y in (Z, Z[None], np.stack([Z, -Z])):
        F = A.orbit_fields(Y)
        assert F.flags.c_contiguous
        _assert_bitwise_equal(F, _reference_orbit_fields(Y))


def test_directional_derivative_on_a_stack_of_directions():
    Z = G.sample_tube_point(stream_for(5, "stack-dd", 0), 2)
    V = 1j * A.orbit_fields(Z)
    est = psh.directional_derivative(psh.phi, Z, V)
    assert est.shape == (6,)
    for k in range(6):
        one = psh.directional_derivative(psh.phi, Z, V[k : k + 1])
        assert one.shape == (1,)
        assert est[k] == one[0]


def test_omega_eval_matches_per_point_differences():
    Z = G.sample_tube_point(stream_for(5, "stack-omega", 0), 2)
    F = A.orbit_fields(Z)

    def d_along(D, U):
        return psh.directional_derivative(lambda Y: psh.dphi(Y, A.apply_J(U)), Z, D[None])[0]

    for V, W in ((F[0], F[1]), (F[2], A.apply_J(F[2])), (F[4], F[5])):
        assert psh.omega_eval(Z, V[None], W[None])[0] == -(d_along(V, W) - d_along(W, V))


def _reference_levi_form(f, Z, B, h=1e-3):
    # the one-point-per-call stencil that levi_form stacks
    Z = G.as_tuple_point(Z)
    d = B.shape[0]
    f0 = f(Z)
    L = np.zeros((d, d), dtype=complex)
    hh = 4.0 * h * h
    for a in range(d):
        Ba = B[a]
        L[a, a] = (
            f(Z + h * Ba) + f(Z - h * Ba) + f(Z + 1j * h * Ba) + f(Z - 1j * h * Ba) - 4.0 * f0
        ) / hh

    def mixed(da, db):
        return (
            f(Z + h * da + h * db)
            - f(Z + h * da - h * db)
            - f(Z - h * da + h * db)
            + f(Z - h * da - h * db)
        ) / hh

    for a in range(d):
        for b in range(a + 1, d):
            dxx = mixed(B[a], B[b])
            dxy = mixed(B[a], 1j * B[b])
            dyx = mixed(1j * B[a], B[b])
            dyy = mixed(1j * B[a], 1j * B[b])
            L[a, b] = (dxx + 1j * dxy - 1j * dyx + dyy) / 4.0
            L[b, a] = np.conj(L[a, b])
    return (L + L.conj().T) / 2.0


@pytest.mark.parametrize("n", [1, 2])
def test_levi_form_of_phi_matches_the_per_point_stencil(n):
    Z = G.sample_tube_point(stream_for(5, "stack-levi", n), n)
    B = A.full_tangent_basis(n)
    L = psh.levi_form(psh.phi, Z, B)
    assert np.array_equal(L, _reference_levi_form(psh.phi, Z, B))


def test_levi_form_of_phi_in_several_stacks_matches_the_per_point_stencil(monkeypatch):
    # 1 + 4*8 + 8*8*7 = 481 stencil points of 2 matrices, 13 per phi call
    monkeypatch.setattr(psh, "_STACK_MATRICES", 26)
    calls = []
    phi = psh.phi
    monkeypatch.setattr(psh, "phi", lambda Y: calls.append(len(Y)) or phi(Y))
    Z = G.sample_tube_point(stream_for(5, "stack-levi-chunks", 0), 2)
    B = A.full_tangent_basis(2)
    L = psh.levi_form(psh.phi, Z, B)
    assert calls == [13] * 37
    assert np.array_equal(L, _reference_levi_form(phi, Z, B))


def test_levi_form_of_phi_at_large_n_builds_its_stencil_in_bounded_memory():
    # 32,513 stencil points of 16 matrices: 33 MB if built as one stack
    Z = G.sample_tube_point(stream_for(5, "stack-levi-memory", 0), 16)
    B = A.full_tangent_basis(16)
    tracemalloc.start()
    try:
        psh.levi_form(psh.phi, Z, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_fields_other_than_phi_match_the_per_point_stencil():
    def f(Y):
        return Y[:, 0, 0, 0].real + abs(Y[:, 0, 1, 1]) ** 2

    def f_one(Y):
        return f(Y[None])[0]

    Z = G.sample_tube_point(stream_for(5, "stack-scalar-f", 0), 1)
    B = A.full_tangent_basis(1)
    assert np.array_equal(psh.levi_form(f, Z, B), _reference_levi_form(f_one, Z, B))
    one = psh.directional_derivative(f, Z, B[3:4])
    assert abs(one[0] - 2.0 * Z[0, 1, 1].real) < 1e-8
    stacked = psh.directional_derivative(f, Z, B)
    assert stacked.tolist() == [psh.directional_derivative(f, Z, V[None])[0] for V in B]


def _reference_flow(xi, Z, t_max, steps):
    # the per-step loop that flow_monotonicity stacks
    Z = G.as_tuple_point(Z)
    ts = [t_max * i / steps for i in range(steps + 1)]
    values, kept_ts, displacements = [], [], []
    truncated_at = None
    prev = None
    for i, t in enumerate(ts):
        Zt = A.act_complex(A.flow_pairs(xi, 1j * t), Z)
        if not G.tube_mask(Zt):
            truncated_at = i
            break
        values.append(float(np.dot(psh.moment_map(Zt), xi)))
        kept_ts.append(t)
        displacements.append(0.0 if prev is None else float(np.linalg.norm(Zt - prev)))
        prev = Zt
    return kept_ts, values, displacements, truncated_at


def test_flow_truncation_matches_the_per_step_loop():
    cases = [(E1, G.as_tuple_point(1j * np.diag([1.0, 0.05])), 3.0, 60)]
    s = stream_for(5, "stack-flow", 0)
    xi = A.sample_algebra(s)
    cases.append((xi / np.linalg.norm(xi), G.sample_tube_point(s, 2), 4.0, 40))
    for xi, Z, t_max, steps in cases:
        rep = psh.flow_monotonicity(xi[None], Z[None], t_max=t_max, steps=steps)[0]
        ts, values, displacements, truncated_at = _reference_flow(xi, Z, t_max, steps)
        assert truncated_at is not None and 1 < truncated_at < steps
        assert rep.truncated_at == truncated_at
        assert rep.ts == ts
        assert rep.values == values
        assert rep.displacements == displacements


def test_flow_past_overflow_truncates_without_warnings():
    # exp(i t e4) = diag(exp(-t), exp(t)); at t = 100 cosh(t) - sinh(t)
    # cancels to 0 and the flow leaves the tube, and from t = 710 on cosh
    # overflows, points the per-step loop never built
    e4 = np.array([0.0, 0, 0, 1, 0, 0])
    Z = G.as_tuple_point(iI)
    ts, values, displacements, truncated_at = _reference_flow(e4, Z, 1000.0, 10)
    assert truncated_at == 1
    with pytest.warns(RuntimeWarning):
        A.act_complex(A.flow_pairs(e4, 800j), Z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = psh.flow_monotonicity(e4[None], Z[None], t_max=1000.0, steps=10)[0]
    assert rep.truncated_at == truncated_at
    assert (rep.ts, rep.values, rep.displacements) == (ts, values, displacements)


def test_untruncated_flow_matches_the_per_step_loop():
    s = stream_for(5, "stack-flow-kept", 0)
    Z = G.sample_tube_point(s, 2)
    xi = A.sample_algebra(s)
    xi /= np.linalg.norm(xi)
    rep = psh.flow_monotonicity(xi[None], Z[None], t_max=0.25, steps=25)[0]
    ts, values, displacements, truncated_at = _reference_flow(xi, Z, 0.25, 25)
    assert rep.truncated_at is truncated_at is None
    assert (rep.ts, rep.values, rep.displacements) == (ts, values, displacements)
