"""Structured-text encoding and the deterministic random streams."""

import numpy as np
import pytest

from futuretube import serialize
from futuretube.rng import Stream, stream_for
from futuretube.suites import ExperimentConfig, report_body_bytes, run_suite

MASK64 = (1 << 64) - 1


def test_pcg32_reference_vector():
    """Known-answer test against the published PCG32 demo output
    (seed 42, stream 54)."""
    s = Stream(0, (54 << 1) | 1)
    s.next_u32()
    s._state = (s._state + 42) & MASK64
    s.next_u32()
    got = [s.next_u32() for _ in range(6)]
    assert got == [0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B, 0xCBED606E]


def test_streams_reproducible_and_independent():
    a = stream_for(9, "suite-x", 3).normals(8)
    b = stream_for(9, "suite-x", 3).normals(8)
    assert np.array_equal(a, b)
    c = stream_for(9, "suite-x", 4).normals(8)
    d = stream_for(9, "suite-y", 3).normals(8)
    e = stream_for(10, "suite-x", 3).normals(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


def test_uniform_and_normal_sanity():
    s = stream_for(9, "moments", 0)
    u = np.array([s.uniform() for _ in range(4000)])
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.03
    g = s.normals(4000)
    assert abs(g.mean()) < 0.08
    assert abs(g.std() - 1.0) < 0.08


def test_complex_roundtrip():
    z = 1.25 - 3.5j
    assert serialize.parse_complex(serialize.encode_complex(z)) == z
    assert serialize.parse_complex(2) == 2 + 0j
    with pytest.raises(ValueError):
        serialize.parse_complex("nope")


def test_matrix_and_point_roundtrip():
    s = stream_for(9, "ser", 0)
    M = s.matrix()
    assert np.array_equal(serialize.parse_matrix(serialize.jsonable(M)), M)
    Z = np.stack([s.matrix(), s.matrix()])
    assert np.array_equal(serialize.parse_point(serialize.jsonable(Z)), Z)
    # a bare matrix parses as a 1-tuple
    one = serialize.parse_point(serialize.jsonable(M))
    assert one.shape == (1, 2, 2)
    with pytest.raises(ValueError):
        serialize.parse_point([[1, 2], [3]])


def test_parse_algebra():
    assert np.array_equal(serialize.parse_algebra([1, 2, 3, 4, 5, 6]), np.arange(1.0, 7.0))
    with pytest.raises(ValueError):
        serialize.parse_algebra([1, 2, 3])


def test_jsonable_handles_reports():
    from futuretube.reduction import orbit_minimize

    r = orbit_minimize(1j * np.eye(2))
    doc = serialize.jsonable(r)
    assert doc["phi_min"] == 1.0
    assert doc["reduced_point"][0][0][0] == [0.0, 1.0]
    b1 = serialize.canonical_bytes(doc)
    b2 = serialize.canonical_bytes(serialize.jsonable(r))
    assert b1 == b2


def test_report_bodies_are_deterministic():
    cfg = ExperimentConfig(suite="coordinate-identities", seed=3, samples=50)
    b1 = report_body_bytes(run_suite(cfg))
    b2 = report_body_bytes(run_suite(ExperimentConfig(suite="coordinate-identities", seed=3, samples=50)))
    assert b1 == b2
    b3 = report_body_bytes(run_suite(ExperimentConfig(suite="coordinate-identities", seed=4, samples=50)))
    assert b1 != b3


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"suite": "unknown-suite"}).resolve()
    with pytest.raises(ValueError):
        ExperimentConfig(suite="psh-levi", samples=0).resolve()
    with pytest.raises(ValueError):
        ExperimentConfig(suite="psh-levi", n=0).resolve()
    with pytest.raises(ValueError):
        ExperimentConfig(suite="psh-levi", tolerances={"bogus": 1.0}).resolve()
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"suite": "psh-levi", "extra": 1})
    doc = {"suite": "psh-levi", "seed": 3, "n": 2, "samples": 5, "tolerances": {}, "output_path": None}
    assert ExperimentConfig.from_dict(doc) == ExperimentConfig(**doc)
    n, samples, tol = ExperimentConfig(
        suite="psh-levi", tolerances={"invariance": 1e-9}
    ).resolve()
    assert tol["invariance"] == 1e-9


def test_levi_identity_samples_the_configured_n():
    report = run_suite(ExperimentConfig(suite="levi-identity", seed=7, n=3))
    assert report.config["n"] == 3
    # record 0 is the fixed n=1 unit point; every sampled record is an n=3 tuple
    assert [r["n"] for r in report.records] == [1, 3]
    assert report.verdict == "pass"
