"""Normal forms and boundary sequence scans."""

import numpy as np
import pytest

from futuretube import actions as A
from futuretube import geometry as G
from futuretube import serialize
from futuretube.boundary import (
    ScanOptions,
    boundary_scan,
    normal_form,
    parse_sequence,
    schur_unitary,
    triangular_bounds_check,
)
from futuretube.rng import Block, stream_for

iI = 1j * np.eye(2)


def test_normal_form_shear_example():
    # recomputed by hand: eigenvector of the double eigenvalue i is e2,
    # phase-fixed u = [[0,1],[-1,0]]; conjugation gives off-diagonal -1
    W = np.array([[1j, 0.0], [1.0, 1j]])
    nf = normal_form(W)
    assert np.allclose(nf.u, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(nf.X, np.array([[1j, -1.0], [0.0, 1j]]))
    assert abs(nf.r - 1.0) < 1e-12


def test_normal_form_balancing_example():
    # the smaller-magnitude eigenvalue i/2 moves to (1,1), so r^4 = 4
    W = np.diag([2j, 0.5j])
    nf = normal_form(W)
    assert abs(nf.r - 2.0**0.5) < 1e-12
    assert np.allclose(nf.X, iI)


def test_normal_form_fixed_point():
    W = np.array([[1j, 1.0], [0.0, 1j]])  # already triangular and balanced
    nf = normal_form(W)
    assert np.allclose(nf.u, np.eye(2))
    assert abs(nf.r - 1.0) < 1e-12
    assert np.allclose(nf.X, W)


def test_normal_form_reconstruction_property():
    for i in range(300):
        s = stream_for(6, "nf-recon", i)
        W = G.sample_tube_matrix(s)
        nf = normal_form(W)
        assert G.tube_mask(G.as_tuple_point(nf.X))
        assert abs(nf.X[1, 0]) <= 1e-10
        assert abs(abs(nf.X[0, 0]) - abs(nf.X[1, 1])) <= 1e-8 * abs(nf.X[0, 0])
        recon = A.act_real(nf.group_element(), W)
        assert np.max(np.abs(recon - nf.X)) <= 1e-9


def test_normal_form_requires_tube():
    with pytest.raises(G.DomainError):
        normal_form(np.eye(2, dtype=complex))


def test_su2_star_action_is_conjugation():
    for i in range(100):
        s = stream_for(6, "nf-star", i)
        W = G.sample_tube_matrix(s)
        u = A.sample_su2(s)
        d = np.max(np.abs(A.act_real(u, W) - u @ W @ np.linalg.inv(u)))
        assert d <= 1e-12 * (1 + np.max(np.abs(W)))


def test_triangular_bounds():
    rep = triangular_bounds_check(np.array([[1j, 1.0], [0.0, 1j]]))
    assert (rep.quarter_z_sq, rep.im_diag_product, rep.abs_det) == (0.25, 1.0, 1.0)
    assert rep.strict_lower_ok and rep.det_upper_ok

    rep = triangular_bounds_check(iI)
    assert (rep.quarter_z_sq, rep.im_diag_product, rep.abs_det) == (0.0, 1.0, 1.0)

    # det Im = 0: boundary point, precondition error
    with pytest.raises(G.DomainError):
        triangular_bounds_check(np.array([[1j, 2.0], [0.0, 1j]]))
    with pytest.raises(ValueError):
        triangular_bounds_check(np.array([[1j, 0.0], [1.0, 1j]]))


def test_triangular_bounds_on_normal_forms():
    for i in range(200):
        s = stream_for(6, "nf-bounds", i)
        W = G.sample_tube_matrix(s)
        X = normal_form(W).X
        X[1, 0] = 0.0
        rep = triangular_bounds_check(X)
        assert rep.strict_lower_ok and rep.det_upper_ok


def test_schur_ordering_deterministic():
    for i in range(100):
        s = stream_for(6, "schur", i)
        M = s.matrix()
        u, T = schur_unitary(M)
        assert abs(T[1, 0]) <= 1e-10 * (1 + np.max(np.abs(M)))
        assert abs(T[0, 0]) <= abs(T[1, 1]) + 1e-10
        assert abs(G.det2(u) - 1) < 1e-12
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_stack_equals_each(W):
    u, T = schur_unitary(W)
    nf = normal_form(W)
    X = nf.X.copy()
    X[:, 1, 0] = 0.0
    tb = triangular_bounds_check(X)
    for k in range(len(W)):
        uk, Tk = schur_unitary(W[k])
        one = normal_form(W[k])
        assert np.array_equal(_bits(u[k]), _bits(uk)) and np.array_equal(_bits(T[k]), _bits(Tk))
        assert np.array_equal(_bits(nf.u[k]), _bits(one.u)) and nf.r[k] == one.r
        assert np.array_equal(_bits(nf.X[k]), _bits(one.X))
        assert np.array_equal(_bits(nf.group_element()[k]), _bits(one.group_element()))
        tk = triangular_bounds_check(X[k])
        assert (tb.quarter_z_sq[k], tb.im_diag_product[k], tb.abs_det[k]) == (
            tk.quarter_z_sq,
            tk.im_diag_product,
            tk.abs_det,
        )
        assert (tb.strict_lower_ok[k], tb.det_upper_ok[k]) == (tk.strict_lower_ok, tk.det_upper_ok)


def test_stacked_normal_form_equals_each_matrix():
    # random tube matrices; a scalar c I, the branch where M is
    # numerically scalar; and eigenvalues 1 + i, -1 + i of equal modulus,
    # the (abs, real, imag) tie, as they are and conjugated by an SU(2)
    # element, which keeps them and the tube
    W = G.tube_matrices(Block(5, "nf-stack", 64, 12).normals(12))
    tie = np.diag([1.0 + 1j, -1.0 + 1j])
    u = A.sample_su2(stream_for(5, "nf-stack-tie", 0))
    special = np.stack([(0.3 + 2j) * np.eye(2), tie, tie[::-1, ::-1], u @ tie @ u.conj().T])
    _assert_stack_equals_each(np.concatenate([W, special]))
    # general matrices, where the root (t + s)/2 is the smaller one in
    # about half the draws
    M = Block(5, "schur-stack", 64, 8).matrix()
    u, T = schur_unitary(M)
    for k in range(len(M)):
        uk, Tk = schur_unitary(M[k])
        assert np.array_equal(_bits(u[k]), _bits(uk)) and np.array_equal(_bits(T[k]), _bits(Tk))


def test_stacked_normal_form_rejects_a_matrix_outside_the_tube():
    W = G.tube_matrices(Block(5, "nf-stack-out", 4, 12).normals(12))
    W[2] = np.eye(2)
    with pytest.raises(G.DomainError):
        normal_form(W)
    with pytest.raises(G.DomainError):
        triangular_bounds_check(np.triu(W))


def test_parse_sequence_errors():
    with pytest.raises(ValueError):
        parse_sequence({"type": "nope"})
    with pytest.raises(ValueError):
        parse_sequence({"type": "list", "points": []})
    with pytest.raises(ValueError):
        parse_sequence({"type": "curve", "components": [], "k_count": 3})
    with pytest.raises(ValueError):
        parse_sequence({"type": "curve", "components": [{"num": []}], "k_count": 3})
    with pytest.raises(ValueError):
        parse_sequence(
            {
                "type": "translate",
                "base": serialize.jsonable(iI),
                "generator": [1, 0, 0, 0, 0, 0],
            }
        )
    with pytest.raises(ValueError):
        parse_sequence([1, 2, 3])


def test_parse_sequence_generators():
    pts = parse_sequence(
        {"type": "list", "points": [serialize.jsonable(iI), serialize.jsonable(2j * np.eye(2))]}
    )
    assert len(pts) == 2 and np.allclose(pts[1], 2j * np.eye(2))

    zero = serialize.jsonable(np.zeros((2, 2), complex))
    eye = serialize.jsonable(1j * np.eye(2))
    pts = parse_sequence(
        {"type": "curve", "components": [{"num": [zero, eye]}], "k_count": 3, "k_start": 1}
    )
    assert np.allclose(pts[1], iI / 2.0)

    pts = parse_sequence(
        {
            "type": "translate",
            "base": serialize.jsonable(iI),
            "generator": [1, 0, 0, 0, 0, 0],
            "times": {"start": 0.0, "step": np.log(2.0), "count": 2},
        }
    )
    assert np.allclose(pts[1], 1j * np.diag([4.0, 0.25]))


def test_boundary_scan_weak_exhaustion():
    zero = serialize.jsonable(np.zeros((2, 2), complex))
    eye = serialize.jsonable(1j * np.eye(2))
    doc = {"type": "curve", "components": [{"num": [zero, eye]}], "k_count": 40}
    rep = boundary_scan(doc)
    for r in rep.records:
        k = r.index + 1
        assert abs(r.phi - k * k) <= 1e-12 * k * k
        assert abs(r.psi - k * k) <= 1e-6 * k * k
    assert rep.weak_exhaustion_applicable
    assert rep.weak_exhaustion
    assert all(rep.thresholds_crossed.values())
    # this collapsing sequence does not satisfy the bounded-phi premise
    assert not rep.mod_real_applicable


def test_boundary_scan_mod_real():
    doc = {
        "type": "translate",
        "base": serialize.jsonable(iI),
        "generator": [1, 0, 0, 0, 0, 0],
        "times": {"start": 0.0, "step": 0.5, "count": 15},
    }
    rep = boundary_scan(doc)
    assert rep.phi_bounded and rep.gram_converged and rep.raw_escapes
    assert rep.mod_real_applicable and rep.mod_real_exhaustion
    # translate orbits of i*I normalize back to i*I exactly
    for r in rep.records:
        assert abs(r.phi - 1.0) <= 1e-9
        assert r.rep_max_entry <= 1.0 + 1e-9
    assert not rep.weak_exhaustion_applicable


def test_boundary_scan_constant_sequence_no_verdict():
    doc = {"type": "list", "points": [serialize.jsonable(iI)] * 6}
    rep = boundary_scan(doc)
    assert not rep.weak_exhaustion_applicable and not rep.weak_exhaustion
    assert not rep.mod_real_applicable and not rep.mod_real_exhaustion


def test_boundary_scan_rejects_empty():
    with pytest.raises(ValueError):
        boundary_scan([])


def test_threshold_ladder_reads_the_last_psi():
    # psi = phi = 1/a^2 at i a I; an early psi of 16 clears the rung 10
    # but the last, 1, does not, so no tail stays above it
    early, late = serialize.jsonable(iI / 4.0), serialize.jsonable(iI)
    rep = boundary_scan({"type": "list", "points": [early, late]})
    assert [round(r.psi, 6) for r in rep.records] == [16.0, 1.0]
    assert rep.thresholds_crossed == {10.0: False, 100.0: False, 1000.0: False}
    rep = boundary_scan({"type": "list", "points": [late, early]})
    assert rep.thresholds_crossed == {10.0: True, 100.0: False, 1000.0: False}


def test_suite_scans_equal_the_sequence_documents(monkeypatch):
    """The boundary suites hand boundary_scan point lists; they must be
    the points, and give the records, of the curve and translate
    documents the suites describe."""
    from futuretube import suites

    scans = []

    def spy(points, opts):
        rep = boundary_scan(points, opts)
        scans.append((points, opts, rep))
        return rep

    monkeypatch.setattr(suites, "boundary_scan", spy)
    suites.run_suite(suites.ExperimentConfig(suite="boundary-weak-exhaustion", n=2, samples=6))
    suites.run_suite(suites.ExperimentConfig(suite="boundary-mod-greal", seed=7, samples=1))
    comp = {"num": [serialize.jsonable(np.zeros((2, 2), complex)), serialize.jsonable(iI)]}
    Z0 = G.sample_tube_point(stream_for(7, "boundary-mod-greal", 0), 2)
    docs = [
        {"type": "curve", "components": [comp, comp], "k_count": 6, "k_start": 1},
        {
            "type": "translate",
            "base": serialize.jsonable(Z0),
            "generator": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            "times": {"start": 0.0, "step": 0.35, "count": 20},
        },
    ]
    assert len(scans) == len(docs)
    for (points, opts, rep), doc in zip(scans, docs):
        parsed = parse_sequence(doc)
        assert [p.tobytes() for p in points] == [p.tobytes() for p in parsed]
        expect = serialize.canonical_bytes(boundary_scan(doc, opts))
        assert serialize.canonical_bytes(rep) == expect


def test_boundary_weak_exhaustion_passes_at_n_2():
    from futuretube import suites

    rep = suites.run_suite(suites.ExperimentConfig(suite="boundary-weak-exhaustion", n=2))
    assert rep.verdict == "pass"


def test_gram_tail_test_does_not_depend_on_the_tuple_size():
    # the curve i I/k in n components: every Gram entry is -1/k^2 at
    # every n, so the tail settles over 40 points and not over 10 alike
    for n in range(1, 6):
        for count, settled in ((40, True), (10, False)):
            points = [np.stack([iI / k] * n) for k in range(1, count + 1)]
            assert boundary_scan(points).gram_converged is settled
