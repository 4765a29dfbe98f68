"""Shared paths: edges of the chart descent (budget exits, stops,
aliasing) and realize against its tensordot reference."""

import numpy as np

from futuretube import geometry as G
from futuretube import psh, reduction
from futuretube.actions import BASIS, descend, realize
from futuretube.reduction import orbit_minimize
from futuretube.rng import stream_for

iI = 1j * np.eye(2)


def _unreduced_point():
    Z = G.sample_tube_point(stream_for(3, "descent-edge", 0), 2)
    assert np.linalg.norm(psh.moment_map(Z)) > 1e-2
    return Z


def test_orbit_minimize_budget_reports_the_final_point(monkeypatch):
    monkeypatch.setattr(reduction, "_MAX_ITERS", 1)
    r = orbit_minimize(_unreduced_point())
    assert r.iterations == 1
    assert not r.converged
    assert r.moment_norm == float(np.linalg.norm(psh.moment_map(r.reduced_point)))
    assert r.phi_min == psh.phi(r.reduced_point)


def test_zero_iteration_minimizers_do_not_alias_identity():
    before = G.IDENTITY.copy()
    r = orbit_minimize(iI)
    assert r.iterations == 0
    r.minimizer[0, 0, 0] = 5.0
    r.minimizer[1, 1, 1] = 7.0
    assert np.array_equal(G.IDENTITY, before)


def test_descend_stops_when_no_trial_step_is_accepted():
    # start 0 (i I) rejects every trial step; start 1 (2i I) accepts its
    # first, then stops
    Y0 = np.stack([iI, 2 * iI])[:, None]
    calls = []

    def model(live, Y, value, pairs):
        calls.append(live.tolist())

        def direction(sel):
            moves = Y[sel, 0, 0, 0].imag > 1.5
            return np.ones((len(moves), 6)) * moves[:, None], -np.ones(len(moves))

        return value < 1.0, direction

    def chart(d, s):
        A = np.eye(2) + (d[:, 0] * s)[:, None, None] * np.diag([1.0, 0.0])
        return np.stack([A, np.broadcast_to(np.eye(2), A.shape)], axis=1).astype(complex)

    def objective(Yt):
        return np.where(Yt[:, 0, 0, 0].imag > 2.0, 0.5, np.inf)

    Y, value, pairs, it = descend(Y0, np.ones(2), model, chart, objective, 10)
    assert it[0] == 0 and value[0] == 1.0
    assert np.array_equal(Y[0], Y0[0]) and sum(0 in c for c in calls) == 1
    assert np.array_equal(pairs[0], np.stack([np.eye(2)] * 2))
    # start 1 ends as it does alone
    alone = descend(Y0[1:], np.ones(1), model, chart, objective, 10)
    assert it[1] == alone[3][0] == 1 and value[1] == alone[1][0] == 0.5
    assert np.array_equal(Y[1], alone[0][0])
    assert np.array_equal(pairs[1], alone[2][0])


def test_realize_matches_tensordot_reference():
    for i in range(50):
        xi = stream_for(3, "realize-ref", i).normals(6)
        assert np.array_equal(realize(xi), np.tensordot(xi, BASIS, axes=(0, 0)))
