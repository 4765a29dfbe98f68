"""Shared paths: edges of the orbit solver's descent (budget exits,
stops, a halved step, aliasing) and realize against its tensordot
reference."""

import numpy as np

from futuretube import geometry as G
from futuretube import psh, reduction
from futuretube.actions import BASIS, act_complex, act_real, flow_pairs, realize
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


def test_zero_iteration_results_do_not_alias_the_start_or_identity():
    before = G.IDENTITY.copy()
    start = np.stack([iI, iI])
    r = orbit_minimize(start)
    assert r.iterations == 0
    r.reduced_point[0, 0, 0] = 5.0
    r.reduced_point[1, 1, 1] = 7.0
    assert np.array_equal(start, np.stack([iI, iI]))
    assert np.array_equal(G.IDENTITY, before)


def _solve_with_the_first_start_blocked(monkeypatch, start):
    # every trial point of the first start, told apart by det Z^1 (an
    # invariant of the orbit), is moved out of the tube: it stops unmoved,
    # and the second start descends as it does alone.  Returns the first
    # start's number of trials and its moment norm
    Z = np.stack([start, 3 * G.sample_tube_point(stream_for(4, "descent-edge", 0), 2)])
    blocked = G.det2(Z[0, 0])
    trials = []

    def leave_tube(p, Y):
        Yt = act_complex(p, Y)
        hit = np.isclose(G.det2(Yt[:, 0]), blocked, rtol=1e-6, atol=0.0)
        trials.append(np.count_nonzero(hit))
        Yt[hit] *= -1.0
        return Yt

    monkeypatch.setattr(reduction, "act_complex", leave_tube)
    r0, r1 = reduction.orbit_minimize_all(Z)
    g0 = reduction._gauge(Z[:1])[0]
    Y0 = act_real(g0, Z[0])
    assert r0.iterations == 0 and not r0.converged
    assert np.array_equal(r0.reduced_point, Y0)
    assert r0.moment_norm == float(np.linalg.norm(psh.moment_map(Y0)))
    alone = orbit_minimize(Z[1])
    assert r1.iterations == alone.iterations > 0 and r1.converged
    assert np.array_equal(r1.reduced_point, alone.reduced_point)
    assert (r1.phi_min, r1.moment_norm) == (alone.phi_min, alone.moment_norm)
    return sum(trials), r0.moment_norm


def test_a_start_whose_trial_steps_all_leave_the_tube_stops_unmoved(monkeypatch):
    _, moment_norm = _solve_with_the_first_start_blocked(monkeypatch, _unreduced_point())
    assert moment_norm > 1e-2


def test_a_reduced_start_whose_floor_trials_leave_the_tube_stops_unmoved(monkeypatch):
    # a start reduced to a moment norm near 1e-7, where the predicted
    # Armijo decrease is below phi's rounding: its one trial leaves the
    # tube, and it stops there without halving its step
    Y = orbit_minimize(_unreduced_point(), moment_tol=1e-13).reduced_point
    xi = np.array([1.0, 0.5, -0.3, 0.2, 0.1, -0.7])
    trials, moment_norm = _solve_with_the_first_start_blocked(monkeypatch, act_complex(flow_pairs(xi, 1e-8j), Y))
    assert trials == 1
    assert 1e-8 < moment_norm < 1e-6


def test_a_start_whose_first_trial_leaves_the_tube_accepts_the_halved_step(monkeypatch):
    # only the very first trial of the first start is moved out of the
    # tube: that start backtracks once, accepts s = 1/2 and then descends
    # with full steps to its unblocked minimum; the second start descends
    # as it does alone.  No suite or natural start takes this branch
    Z = np.stack([_unreduced_point(), 3 * G.sample_tube_point(stream_for(4, "descent-edge", 0), 2)])
    steps = []
    trials = []

    def recorded_flow_pairs(xi, tau):
        steps.append(np.asarray(tau).imag.tolist())
        return flow_pairs(xi, tau)

    def first_trial_leaves_tube(p, Y):
        Yt = act_complex(p, Y)
        if not trials:
            Yt[0] *= -1.0
        trials.append(len(Yt))
        return Yt

    monkeypatch.setattr(reduction, "flow_pairs", recorded_flow_pairs)
    monkeypatch.setattr(reduction, "act_complex", first_trial_leaves_tube)
    r0, r1 = reduction.orbit_minimize_all(Z)
    monkeypatch.undo()
    assert steps[:2] == [[1.0, 1.0], [0.5]]
    assert all(s == 1.0 for step in steps[2:] for s in step)
    assert trials[:2] == [2, 1] and len(trials) == len(steps)
    unblocked = orbit_minimize(Z[0])
    assert r0.converged and unblocked.converged
    assert abs(r0.phi_min - unblocked.phi_min) <= 1e-12 * unblocked.phi_min
    alone = orbit_minimize(Z[1])
    assert r1.iterations == alone.iterations > 0 and r1.converged
    assert np.array_equal(r1.reduced_point, alone.reduced_point)
    assert (r1.phi_min, r1.moment_norm) == (alone.phi_min, alone.moment_norm)


def test_realize_matches_tensordot_reference():
    for i in range(50):
        xi = stream_for(3, "realize-ref", i).normals(6)
        assert np.array_equal(realize(xi), np.tensordot(xi, BASIS, axes=(0, 0)))
