"""Stacked Kempf-Ness points: every report of a stack against the
one-start call, on the suite's draws and units and with zero starts, and
the input check; the stacked saturation probe against its one-start
calls."""

import numpy as np
import pytest

from futuretube.geometry import DomainError, sample_tube_point
from futuretube.quotient import (
    kempf_ness_minimize,
    kempf_ness_minimize_all,
    saturation_probe,
    saturation_probe_all,
)
from futuretube.rng import Block
from futuretube.suites import _KN_UNITS, SUITES

iI = 1j * np.eye(2)


def kempf_ness_draws(seed, n):
    """The starts of the default kempf-ness samples, as the suite draws them."""
    block = Block(seed, "kempf-ness", 30, SUITES["kempf-ness"].runner.draws(n))
    return np.stack([block.matrix() for _ in range(max(n, 3))], axis=1)


def assert_same_report(r, one):
    assert np.array_equal(r.point.view(float), one.point.view(float))
    fields = ("achieved_norm_sq", "classification")
    assert [getattr(r, f) for f in fields] == [getattr(one, f) for f in fields]


@pytest.mark.parametrize("n", [1, 3, 8])
def test_stacked_reports_equal_the_one_start_solves(n):
    starts = kempf_ness_draws(7, n)
    reports = kempf_ness_minimize_all(starts)
    assert len(reports) == len(starts) == 30
    for Z, r in zip(starts, reports):
        assert_same_report(r, kempf_ness_minimize(Z))


def test_units_in_one_call():
    starts = np.stack([Z for _, Z, _, _ in _KN_UNITS])[:, None]
    reports = kempf_ness_minimize_all(starts)
    assert [r.classification for r in reports] == [expect for _, _, expect, _ in _KN_UNITS]
    for Z, r in zip(starts, reports):
        assert_same_report(r, kempf_ness_minimize(Z))


def test_zero_starts_are_closed_without_descent():
    Z = kempf_ness_draws(7, 3)[:3]
    zero = np.zeros((1, 3, 2, 2))
    starts = np.concatenate([zero, Z[:1], zero, Z[1:]])
    reports = kempf_ness_minimize_all(starts)
    for b in (0, 2):
        r = reports[b]
        assert (r.classification, r.achieved_norm_sq) == ("closed", 0.0)
        assert not r.point.any()
    for Z, r in zip(starts, reports):
        assert_same_report(r, kempf_ness_minimize(Z))
    assert [r.classification for r in kempf_ness_minimize_all(np.zeros((2, 1, 2, 2)))] == [
        "closed",
        "closed",
    ]
    assert kempf_ness_minimize_all(np.zeros((0, 1, 2, 2))) == []


def test_input_that_is_not_a_stack_raises():
    for shape in [(3, 2, 2), (2, 2), (2, 3, 2, 3), (1, 1, 1, 2, 2)]:
        with pytest.raises(ValueError, match="B,N,2,2"):
            kempf_ness_minimize_all(np.ones(shape, dtype=complex))


def test_stacked_saturation_probe_equals_the_one_start_probes():
    Z = sample_tube_point(Block(7, "saturation-probe", 8, SUITES["saturation-probe"].runner.draws(2)), 2)
    degenerate = np.stack([iI, iI + 0.5 * np.array([[0.0, 1.0], [0.0, 0.0]])])
    starts = np.concatenate([Z, degenerate[None]])
    reports = saturation_probe_all(starts)
    assert len(reports) == 9
    fields = ("classification", "witness_kind", "gram_distance", "reduced_margin")
    for Y, r in zip(starts, reports):
        one = saturation_probe(Y)
        assert [getattr(r, f) for f in fields] == [getattr(one, f) for f in fields]
        assert r.certified_in_extended_tube == one.certified_in_extended_tube
        assert np.array_equal(r.closed_point.view(float), one.closed_point.view(float))
    # the degenerate pair is not closed; its witness is the point of least norm
    assert reports[-1].classification == "non_closed"
    assert reports[-1].witness_kind == "kn_point" and reports[-1].certified_in_extended_tube


def test_stacked_saturation_probe_of_nothing_and_outside_the_tube():
    assert saturation_probe_all(np.zeros((0, 2, 2, 2), dtype=complex)) == []
    starts = np.stack([np.stack([iI, 2.0 * iI]), np.stack([iI, np.eye(2, dtype=complex)])])
    with pytest.raises(DomainError, match="saturation probe starts from a tube point"):
        saturation_probe_all(starts)
