"""Lockstep orbit minimization: the stacked solve against the one-start
solve, the gauge fix, the suites that hand it their starts, and the
overflow paths of the kernels it uses."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from futuretube import actions as A
from futuretube import geometry as G
from futuretube import psh, reduction, serialize
from futuretube.reduction import lagrangian_check, orbit_minimize, orbit_minimize_all
from futuretube.rng import Block, stream_for
from futuretube.suites import SUITES, ExperimentConfig, run_suite

iI = 1j * np.eye(2)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def reduce_minimum_starts(seed, n):
    """Both starts of every default reduce-minimum sample, as the suite draws them."""
    runner = SUITES["reduce-minimum"].runner
    block = Block(seed, "reduce-minimum", 15, runner.draws(n))
    (Z,) = runner.draw(block, n)
    g = np.stack([A.sample_sl2(block.row(i)) for i in range(15)])
    return np.concatenate([Z, A.act_real(g[:, None], Z)])


def assert_same_result(r, one):
    assert np.array_equal(r.reduced_point.view(float), one.reduced_point.view(float))
    assert np.array_equal(r.start.view(float), one.start.view(float))
    assert np.array_equal(r.minimizer.view(float), one.minimizer.view(float))
    assert (r.phi_min, r.moment_norm, r.iterations, r.converged) == (
        one.phi_min,
        one.moment_norm,
        one.iterations,
        one.converged,
    )


@pytest.mark.parametrize("n", [1, 2, 32])
@pytest.mark.parametrize("max_iters", [2000, 1])
def test_stacked_results_equal_the_one_start_solves(n, max_iters, monkeypatch):
    # the last start is already reduced: it stops at once while the others
    # move, and with max_iters=1 every other start stops at the budget
    starts = np.concatenate([reduce_minimum_starts(7, n), np.stack([iI] * n)[None]])
    monkeypatch.setattr(reduction, "_MAX_ITERS", max_iters)
    results = orbit_minimize_all(starts)
    assert len(results) == len(starts)
    for Z, r in zip(starts, results):
        assert_same_result(r, orbit_minimize(Z))
    iterations = [r.iterations for r in results]
    assert iterations[-1] == 0 and results[-1].converged
    if max_iters == 1:
        assert set(iterations[:-1]) == {1}
        assert not any(r.converged for r in results[:-1])
    else:
        assert all(r.converged for r in results)
        assert len(set(iterations)) > 2


def test_minimizer_carries_the_start_to_the_reduced_point():
    starts = reduce_minimum_starts(11, 2)
    for r in orbit_minimize_all(starts):
        back = A.act_complex(r.minimizer, r.start)
        assert np.max(np.abs(back - r.reduced_point)) <= 1e-10 * (1.0 + np.max(np.abs(back)))
        assert abs(G.det2(r.minimizer[0]) - 1.0) <= 1e-12
        assert abs(G.det2(r.minimizer[1]) - 1.0) <= 1e-12


def test_gauge_makes_the_first_imaginary_part_scalar():
    from futuretube.reduction import _gauge

    Z = reduce_minimum_starts(7, 2)
    g = _gauge(Z)
    P = G.hermitian_im(A.act_real(g[:, None], Z)[:, 0])
    scale = np.sqrt(G.det_im(Z[:, 0]))
    assert np.allclose(P, scale[:, None, None] * np.eye(2), rtol=0.0, atol=1e-12 * scale.max())
    assert np.allclose(G.det2(g), 1.0, rtol=0.0, atol=1e-13)
    assert np.array_equal(_gauge(np.stack([iI, 2 * iI])[:, None]), np.stack([np.eye(2)] * 2))


def test_real_translates_share_one_minimum():
    # psi is invariant under the real group: the 20 translates of the
    # boundary-mod-greal scan converge, cheaply, to one value
    Z0 = G.sample_tube_point(stream_for(7, "boundary-mod-greal", 0), 2)
    e1 = np.eye(6)[0]
    points = np.stack([A.act_real(A.exp_algebra(e1, 0.35 * k), Z0) for k in range(20)])
    results = orbit_minimize_all(points)
    assert all(r.converged for r in results)
    assert max(r.iterations for r in results) <= 20
    psis = np.array([r.phi_min for r in results])
    assert (psis.max() - psis.min()) / psis.min() <= 1e-10


def test_reduce_minimum_records_do_not_depend_on_the_sample_count():
    for n in (2, 32):
        few = run_suite(ExperimentConfig(suite="reduce-minimum", seed=7, n=n, samples=15))
        more = run_suite(ExperimentConfig(suite="reduce-minimum", seed=7, n=n, samples=16))
        assert len(more.records) == 16
        assert serialize.canonical_bytes(serialize.jsonable(more.records[:15])) == (
            serialize.canonical_bytes(serialize.jsonable(few.records))
        )


def test_boundary_mod_greal_requires_converged_agreeing_translates():
    rep = run_suite(ExperimentConfig(suite="boundary-mod-greal", seed=11))
    assert rep.verdict == "pass"
    for r in rep.records:
        assert r["psi_converged"] is True
        assert 0.0 <= r["psi_spread"] <= 1e-8
    # a spread tolerance below the rounding floor of the translates fails
    tight = run_suite(
        ExperimentConfig(suite="boundary-mod-greal", seed=11, tolerances={"psi_spread": 1e-14})
    )
    assert tight.verdict == "fail"
    assert all(r["verdict"] == "fail" for r in tight.records)


def test_lagrangian_omegas_equal_the_one_pair_calls():
    Z = G.sample_tube_point(stream_for(5, "lockstep-lagrangian", 0), 2)
    r = orbit_minimize(Z, moment_tol=1e-10)
    Zr = r.reduced_point
    F = A.orbit_fields(Zr)
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    V = np.concatenate([F[[a for a, _ in pairs]], F])
    W = np.concatenate([F[[b for _, b in pairs]], A.apply_J(F)])
    values = psh.omega_eval(Zr, V, W)
    assert values.shape == (21,)
    for k in range(21):
        assert values[k] == psh.omega_eval(Zr, V[k][None], W[k][None])[0]
    rep = lagrangian_check(r)
    assert rep.max_omega == max(abs(psh.omega_eval(Zr, F[a][None], F[b][None])[0]) for a, b in pairs)
    assert rep.normal_hessian_positive == all(
        psh.omega_eval(Zr, F[k][None], A.apply_J(F[k])[None])[0] > 0.0 for k in range(6)
    )


def test_stacked_levi_form_equals_the_one_point_calls():
    Z = np.stack([G.sample_tube_point(stream_for(5, "lockstep-levi", i), 3) for i in range(4)])
    basis = A.full_tangent_basis(3)
    L = psh.levi_form_phi(Z, basis)
    assert L.shape == (4, 12, 12)
    for i in range(4):
        assert np.array_equal(L[i], psh.levi_form_phi(Z[i], basis))
    m, levi = psh.orbit_derivatives(Z)
    sel = np.array([True, False, True, True])
    H = levi(sel)
    for row, i in enumerate(np.flatnonzero(sel)):
        m_i, levi_i = psh.orbit_derivatives(Z[i : i + 1])
        assert np.array_equal(m[i], psh.moment_map(Z[i])) and np.array_equal(m[i], m_i[0])
        assert np.array_equal(H[row], levi_i(np.ones(1, dtype=bool))[0])


def test_stacked_damped_newton_equals_the_one_system_calls():
    rng = stream_for(5, "lockstep-newton", 0)
    grad = rng.normals(24).reshape(4, 6)
    M = rng.normals(144).reshape(4, 6, 6)
    H = M @ M.swapaxes(-1, -2)
    H[2] = 0.0  # singular with lam 0: falls back to steepest descent
    lam = np.array([0.1, 1e-3, 0.0, 2.0])
    d, deriv = A.damped_newton(grad, H, lam)
    for i in range(4):
        di, derivi = A.damped_newton(grad[i], H[i], lam[i])
        assert np.array_equal(d[i], di) and deriv[i] == derivi
    assert np.array_equal(d[2], -grad[2])


def test_moment_of_a_large_finite_det_im_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        m = psh.moment_map(np.stack([1e80 * iI, iI]))
        L = psh.levi_form_phi(np.stack([1e60 * iI, iI]), A.full_tangent_basis(2))
    assert np.array_equal(m, np.zeros(6))
    assert np.all(np.isfinite(L))


def test_tube_mask_of_an_overflowing_point_raises_no_warning():
    big = np.stack([1e155 * iI + 1e154 * np.array([[1.0, 2.0], [3.0, 0.0]]), 1e155 * iI])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert G.tube_mask(big)


def test_reduce_of_an_overflowing_point_is_a_usage_error(tmp_path):
    # the point whose det Im overflows as inf - inf, and one whose Im trace
    # overflows in the gauge fix unless its halves are added
    found = np.stack([1e155 * iI + 1e154 * np.array([[1.0, 2.0], [3.0, 0.0]]), 1e155 * iI])
    huge = np.stack([1e308 * iI, 1e308 * iI])
    for big, named in ((found, "det Im overflows"), (huge, "phi underflows")):
        path = tmp_path / "pt.json"
        path.write_text(json.dumps(serialize.point_to_json(big)))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "futuretube.cli", "reduce", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: ")
        assert named in done.stderr
        assert "Traceback" not in done.stderr
