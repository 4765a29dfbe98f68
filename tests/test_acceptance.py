"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass/fail line with its runtime; sample counts,
tolerances and runtime budgets are pinned here and not configurable.
"""

import time

import numpy as np

from futuretube import actions as A
from futuretube import geometry as G
from futuretube import psh
from futuretube import serialize
from futuretube.boundary import boundary_scan
from futuretube.quotient import gram_map, gram_rank, kempf_ness_minimize
from futuretube.reduction import lagrangian_check, orbit_minimize, section_levi_identity
from futuretube.rng import stream_for
from futuretube.suites import ExperimentConfig, SUITE_NAMES, report_body_bytes, run_suite

iI = 1j * np.eye(2)
SEED = 20260810


class Criterion:
    def __init__(self, number, label, budget):
        self.number = number
        self.label = label
        self.budget = budget
        self.t0 = time.perf_counter()

    def finish(self, ok):
        dt = time.perf_counter() - self.t0
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] criterion {self.number}: {self.label} ({dt:.2f}s / budget {self.budget:.0f}s)")
        assert ok, f"criterion {self.number} failed"
        assert dt < self.budget, f"criterion {self.number} exceeded runtime budget ({dt:.2f}s)"


def test_criterion_1_coordinate_identity():
    c = Criterion(1, "det(to_matrix(z)) equals the Lorentz square, 1e4 samples", 1.0)
    zs = np.stack(
        [G.sample_four_vector(stream_for(SEED, "acc-coord", i)) for i in range(10_000)]
    )
    Z = np.empty((len(zs), 2, 2), dtype=complex)
    Z[:, 0, 0] = zs[:, 0] + zs[:, 3]
    Z[:, 0, 1] = zs[:, 1] - 1j * zs[:, 2]
    Z[:, 1, 0] = zs[:, 1] + 1j * zs[:, 2]
    Z[:, 1, 1] = zs[:, 0] - zs[:, 3]
    # independent route: build matrices by the closed formula above and take
    # determinants; compare against the bilinear form evaluated directly
    zz = zs[:, 0] ** 2 - zs[:, 1] ** 2 - zs[:, 2] ** 2 - zs[:, 3] ** 2
    err = np.abs(G.det2(Z) - zz)
    ok = bool(np.all(err <= 1e-12 * (1.0 + np.abs(zz))))
    # spot-check the library path agrees with the vectorized construction
    for i in (0, 17, 9999):
        ok = ok and np.array_equal(G.to_matrix(zs[i]), Z[i])
    c.finish(ok)


def test_criterion_2_invariance():
    c = Criterion(2, "phi and gram invariance, 1e3 samples each", 5.0)
    ok = True
    for i in range(1000):
        s = stream_for(SEED, "acc-inv", i)
        Zt = G.sample_tube_point(s, 2)
        g = A.sample_sl2(s)
        ok = ok and abs(psh.phi(A.act_real(g, Zt)) - psh.phi(Zt)) <= 1e-10 * psh.phi(Zt)
        Z = np.stack([s.matrix(), s.matrix()])
        p = A.make_unimodular(np.stack([s.matrix() + 2 * np.eye(2), s.matrix() + 2 * np.eye(2)]))
        d = np.linalg.norm(gram_map(A.act_complex(p, Z)) - gram_map(Z))
        ok = ok and d <= 1e-9 * (1.0 + np.linalg.norm(gram_map(Z)))
        if not ok:
            break
    c.finish(ok)


def test_criterion_3_strict_plurisubharmonicity():
    c = Criterion(3, "Levi form of phi positive definite, 500 points, N in {1,2,3}", 60.0)
    ok = True
    for n in (1, 2, 3):
        basis = A.full_tangent_basis(n)
        for i in range(500):
            s = stream_for(SEED, f"acc-psh-{n}", i)
            Z = G.sample_tube_point(s, n)
            if np.linalg.eigvalsh(psh.levi_form_phi(Z, basis))[0] <= 0.0:
                ok = False
                break
        if not ok:
            break
    c.finish(ok)


def test_criterion_4_moment_oracle():
    c = Criterion(4, "moment map against the flow derivative, 1e3 samples", 10.0)
    ok = True
    for i in range(1000):
        s = stream_for(SEED, "acc-moment", i)
        Z = G.sample_tube_point(s, 2)
        m = psh.moment_map(Z)
        k = i % 6
        e = np.zeros(6)
        e[k] = 1.0

        def along(t):
            return psh.phi(A.act_complex(A.flow_pairs(e, 1j * t), Z))

        h = 1e-5
        fd = (8 * (along(h / 2) - along(-h / 2)) - (along(h) - along(-h))) / (6 * h)
        ok = ok and abs(m[k] - fd) <= 1e-6 * (1.0 + abs(fd))
        Av = s.matrix()
        iP = G.as_tuple_point(1j * (Av @ Av.conj().T + 0.2 * np.eye(2)))
        ok = ok and float(np.linalg.norm(psh.moment_map(iP))) <= 1e-10
        if not ok:
            break
    m1 = psh.moment_map(G.as_tuple_point(np.eye(2) + 1j * np.diag([2.0, 0.5])))[0]
    ok = ok and abs(abs(m1) - 3.0) <= 1e-5
    ok = ok and m1 > 0  # the pinned calibration sign
    c.finish(ok)


def test_criterion_5_flow_monotonicity():
    c = Criterion(5, "mu_xi nondecreasing along its flow, 200 pairs", 10.0)
    ok = True
    for i in range(200):
        s = stream_for(SEED, "acc-flow", i)
        Z = G.sample_tube_point(s, 2)
        xi = A.sample_algebra(s)
        xi /= np.linalg.norm(xi)
        rep = psh.flow_monotonicity(xi[None], Z[None], t_max=0.25, steps=25, slack=1e-9)[0]
        ok = ok and rep.nondecreasing and rep.strict_when_moving and len(rep.values) >= 2
        if not ok:
            break
    c.finish(ok)


_reduction_cache = []


def test_criterion_6_minimum_principle():
    c = Criterion(6, "orbit minimization and translate consistency, 50 starts", 60.0)
    r = orbit_minimize(np.array([[1j, 1.0], [0.0, 1j]]))
    ok = r.converged and abs(r.phi_min - 1.0) <= 1e-4 and r.moment_norm <= 1e-6
    r = orbit_minimize(2j * np.eye(2))
    ok = ok and r.converged and abs(r.phi_min - 0.25) <= 1e-6 and r.moment_norm <= 1e-6
    for i in range(50):
        s = stream_for(SEED, "acc-reduce", i)
        n = 1 + (i % 2)
        Z = G.sample_tube_point(s, n)
        g1, g2 = A.sample_sl2(s), A.sample_sl2(s)
        r1 = orbit_minimize(A.act_real(g1, Z), moment_tol=1e-8)
        r2 = orbit_minimize(A.act_real(g2, Z), moment_tol=1e-8)
        ok = (
            ok
            and r1.converged
            and r2.converged
            and r1.moment_norm <= 1e-6
            and abs(r1.phi_min - r2.phi_min) <= 1e-5
        )
        _reduction_cache.append(r1)
        if not ok:
            break
    c.finish(ok)


def test_criterion_7_lagrangian_and_normal_hessian():
    c = Criterion(7, "isotropy and positive normal Hessian at reduced points", 60.0)
    ok = len(_reduction_cache) == 50
    for r in _reduction_cache:
        rep = lagrangian_check(r, tol=1e-5)
        ok = ok and rep.max_omega <= 1e-5
        F = A.orbit_fields(r.reduced_point)
        scale = 1.0 + float(np.linalg.norm(r.reduced_point))
        for k in range(6):
            if np.linalg.norm(F[k]) > 1e-10 * scale:
                ok = ok and psh.omega_eval(r.reduced_point, F[k][None], A.apply_J(F[k])[None])[0] > 0.0
        if not ok:
            break
    c.finish(ok)


def test_criterion_8_levi_identity():
    c = Criterion(8, "Levi form of the fiberwise minimum on the orthogonal section", 120.0)
    rep = section_levi_identity(G.as_tuple_point(iI))
    ok = rep.passed and rep.deviation <= 1e-3 and rep.min_eigenvalue >= -1e-6
    for i, n in enumerate((2, 3)):
        Z = G.sample_tube_point(stream_for(SEED, "acc-levi-id", i), n)
        rr = orbit_minimize(Z, moment_tol=1e-10)
        rep = section_levi_identity(rr.reduced_point)
        ok = ok and rr.converged and rep.passed and rep.deviation <= 1e-3
        ok = ok and rep.min_eigenvalue >= -1e-6
    c.finish(ok)


def test_criterion_9_kempf_ness():
    c = Criterion(9, "closed-orbit detection: frozen cases and 200 generic trials", 60.0)
    r = kempf_ness_minimize(np.diag([2.0, 1.0]).astype(complex))
    ok = r.classification == "closed" and abs(r.achieved_norm_sq - 4.0) <= 1e-6
    r = kempf_ness_minimize(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    ok = ok and r.classification == "non_closed" and r.achieved_norm_sq <= 1e-6
    closed = 0
    total = 0
    i = 0
    while total < 200:
        s = stream_for(SEED, "acc-kn", i)
        i += 1
        Z = np.stack([s.matrix() for _ in range(3)])
        if gram_rank(gram_map(Z)) < 3:
            continue
        total += 1
        r = kempf_ness_minimize(Z)
        ok = ok and r.classification in ("closed", "inconclusive")
        closed += r.classification == "closed"
        if not ok:
            break
    ok = ok and closed >= 0.95 * total
    c.finish(ok)


def test_criterion_10_boundary_behavior():
    c = Criterion(10, "weak exhaustion on i*I/k and compact normalized translates", 30.0)
    zero = serialize.jsonable(np.zeros((2, 2), complex))
    eye = serialize.jsonable(iI)
    rep = boundary_scan({"type": "curve", "components": [{"num": [zero, eye]}], "k_count": 40})
    ok = rep.weak_exhaustion
    for r in rep.records:
        k = r.index + 1
        ok = ok and abs(r.phi - float(k * k)) <= 1e-12 * k * k
    ok = ok and all(rep.thresholds_crossed[t] for t in (10.0, 100.0, 1000.0))
    for i in range(3):
        s = stream_for(SEED, "acc-boundary", i)
        Z0 = G.sample_tube_point(s, 2)
        doc = {
            "type": "translate",
            "base": serialize.jsonable(Z0),
            "generator": [1.0, 0, 0, 0, 0, 0],
            "times": {"start": 0.0, "step": 0.35, "count": 20},
        }
        from futuretube.boundary import ScanOptions

        srep = boundary_scan(doc, ScanOptions(phi_bound=max(50.0, 2.0 * psh.phi(Z0))))
        ok = ok and srep.mod_real_applicable and srep.mod_real_exhaustion
        if not ok:
            break
    c.finish(ok)


def test_criterion_11_determinism():
    c = Criterion(11, "byte-identical report bodies for every suite", 600.0)
    ok = True
    for name in SUITE_NAMES:
        b1 = report_body_bytes(run_suite(ExperimentConfig(suite=name, seed=SEED)))
        b2 = report_body_bytes(run_suite(ExperimentConfig(suite=name, seed=SEED)))
        ok = ok and b1 == b2
        if not ok:
            break
    c.finish(ok)
