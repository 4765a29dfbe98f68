"""Block draws: normal_block, Block and RowStream against the scalar streams.

Every comparison here is exact, bit for bit.
"""

import numpy as np
import pytest

from futuretube import actions as A
from futuretube import geometry as G
from futuretube import rng, serialize, suites
from futuretube.rng import Block, RowStream, normal_block, stream_for
from futuretube.suites import SUITES, ExperimentConfig, run_suite

MASK64 = (1 << 64) - 1
PER_SAMPLE = [name for name, entry in SUITES.items() if hasattr(entry.runner, "draws")]
POINTWISE = ("coordinate-identities", "psh-levi", "moment-oracle", "flow-monotone", "normal-form")


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def scalar_rows(seed, label, indices, k):
    return np.array([stream_for(seed, label, i).normals(k) for i in indices]).reshape(-1, k)


@pytest.mark.parametrize("seed", [0, 7, -1, 2**64 + 3])
@pytest.mark.parametrize("label", ["psh-levi", "lévi–∂ 未来"])
@pytest.mark.parametrize("k", [2, 24, 392])
def test_block_rows_equal_the_scalar_streams(seed, label, k):
    for index in (0, 999, 2**63):
        got = normal_block(seed, label, 2, k, start=index)
        want = scalar_rows(seed, label, (index, index + 1), k)
        assert got.shape == (2, k)
        assert np.array_equal(bits(got), bits(want))
    # at k = 392 these 12 rows take more than one chunk
    got = normal_block(seed, label, 12, k)
    assert np.array_equal(bits(got), bits(scalar_rows(seed, label, range(12), k)))


def test_block_wraps_its_indices_like_stream_for():
    got = normal_block(3, "wrap", 3, 4, start=MASK64)
    want = scalar_rows(3, "wrap", (MASK64, 0, 1), 4)
    assert np.array_equal(bits(got), bits(want))
    assert normal_block(3, "wrap", 0, 4).shape == (0, 4)
    assert normal_block(3, "wrap", 2, 0).shape == (2, 0)


@pytest.mark.parametrize("k", [0, 1, 2, 7, 24])
def test_a_cursor_read_past_its_row_equals_the_scalar_stream(k):
    for i in range(20):
        row = normal_block(7, "cursor", 1, k, start=i)[0]
        cur, ref = RowStream(row, 7, "cursor", i), stream_for(7, "cursor", i)
        assert np.array_equal(bits(cur.normals(k + 5)), bits(ref.normals(k + 5)))
        assert cur.normal() == ref.normal()
        assert cur.uniform() == ref.uniform()
        assert cur.next_u32() == ref.next_u32()
        assert np.array_equal(bits(cur.normals(3)), bits(ref.normals(3)))


@pytest.mark.parametrize("used", [0, 1, 2, 5])
def test_a_cursor_left_mid_row_keeps_the_pending_sine(used):
    row = normal_block(7, "mid", 1, 8)[0]
    cur, ref = RowStream(row, 7, "mid", 0), stream_for(7, "mid", 0)
    assert np.array_equal(bits(cur.normals(used)), bits(ref.normals(used)))
    # a uniform leaves the row; an odd position has its sine mate pending
    assert cur.uniform() == ref.uniform()
    assert np.array_equal(bits(cur.normals(6)), bits(ref.normals(6)))


def test_block_reads_columns_and_hands_on_rows():
    block = Block(7, "cols", 4, 12)
    first = block.normals(5)
    assert first.shape == (4, 5)
    for i in range(4):
        ref = stream_for(7, "cols", i)
        assert np.array_equal(bits(first[i]), bits(ref.normals(5)))
        assert np.array_equal(bits(block.row(i).normals(10)), bits(ref.normals(10)))
    block.normals(7)
    with pytest.raises(ValueError):
        block.normals(1)


def skipped(seed, label, index, m):
    s = stream_for(seed, label, index)
    s.normals(m)
    return s


def test_rejected_sl2_candidate_continues_the_stream():
    # a singular first candidate is rejected; the second one is read past
    # the row, where the scalar stream goes on after the row's 8 normals
    row = np.zeros(8)
    cur = RowStream(row, 5, "sl2", 3)
    ref = skipped(5, "sl2", 3, 8)
    g = A.sample_sl2(cur)
    assert np.array_equal(g.view(np.uint64), A.sample_sl2(ref).view(np.uint64))
    assert np.array_equal(bits(cur.normals(9)), bits(ref.normals(9)))


def test_rejected_su2_candidate_continues_the_stream():
    row = np.zeros(4)
    cur = RowStream(row, 5, "su2", 3)
    ref = skipped(5, "su2", 3, 4)
    u = A.sample_su2(cur)
    assert np.array_equal(u.view(np.uint64), A.sample_su2(ref).view(np.uint64))
    assert np.array_equal(bits(cur.normals(9)), bits(ref.normals(9)))


def test_rejection_mid_row_reads_the_rest_of_the_row_first():
    # the rejected candidate sits at the start of a longer row: the next
    # candidate is the row's next 8 normals, as on the scalar stream
    good = normal_block(5, "sl2-row", 1, 24)[0]
    row = good.copy()
    row[:8] = 0.0
    cur = RowStream(row, 5, "sl2-row", 0)
    ref = skipped(5, "sl2-row", 0, 8)
    assert np.array_equal(A.sample_sl2(cur).view(np.uint64), A.sample_sl2(ref).view(np.uint64))
    assert np.array_equal(bits(cur.normals(12)), bits(ref.normals(12)))


def tuple_point(s, n):
    return np.stack([G.sample_tube_matrix(s) for _ in range(n)])


def same(draw):
    return draw, draw


TUBE_POINT = (G.sample_tube_point, tuple_point)
# the samplers each stage reads from its Block, in stream order: a pair of
# the draw on a Block and the same draw on one sample's scalar stream, one
# matrix at a time; the rejection samplers on rows are tested above
STAGE_DRAWS = {
    "coordinate-identities": [
        same(lambda s, n: G.sample_four_vector(s)),
        same(lambda s, n: G.sample_tube_matrix(s)),
    ],
    "moment-oracle": [TUBE_POINT, same(lambda s, n: s.matrix())],
    "flow-monotone": [TUBE_POINT, same(lambda s, n: A.sample_algebra(s))],
    "kempf-ness": [same(lambda s, n: np.stack([s.matrix() for _ in range(max(n, 3))], axis=-3))],
    "normal-form": [same(lambda s, n: G.sample_tube_matrix(s))],
}


@pytest.mark.parametrize("name", PER_SAMPLE)
@pytest.mark.parametrize("n", [1, 3])
def test_stacked_draws_equal_the_per_sample_draws(name, n):
    draws = STAGE_DRAWS.get(name, [TUBE_POINT])
    block = Block(11, name, 4, SUITES[name].runner.draws(n))
    stacked = [draw(block, n) for draw, _ in draws]
    for i in range(4):
        s = stream_for(11, name, i)
        for got, (_, reference) in zip(stacked, draws):
            want = reference(s, n)
            assert got[i].shape == want.shape
            assert np.array_equal(got[i].view(np.uint64), want.view(np.uint64))


def stage_of_one(runner, seed, name, i, n, tol, k=None):
    """Sample i's record: the stage on a Block of one at start i, whose
    row holds k normals, draws(n) unless given."""
    block = Block(seed, name, 1, runner.draws(n) if k is None else k, start=i)
    return runner.stage(range(i, i + 1), block, n, tol)[0]


def count_scalar_normals(monkeypatch):
    calls = []
    scalar_normal = rng.Stream.normal

    def counted(self):
        calls.append(1)
        return scalar_normal(self)

    monkeypatch.setattr(rng.Stream, "normal", counted)
    return calls


@pytest.mark.parametrize("name", PER_SAMPLE)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_declared_draws_equal_the_scalar_path(name, n, monkeypatch):
    # a Block of one holds the first draws(n) normals of the sample's
    # scalar stream, bit for bit, and the stage reads no further: it never
    # goes on to the scalar stream.  One normal fewer does not suffice
    entry = SUITES[name]
    runner, tol = entry.runner, dict(entry.tolerances)
    calls = count_scalar_normals(monkeypatch)
    record = stage_of_one(runner, 7, name, 0, n, tol)
    assert calls == []
    try:
        short = stage_of_one(runner, 7, name, 0, n, tol, runner.draws(n) - 1)
    except ValueError as exc:
        assert "used up" in str(exc)
    else:
        # past its row, the sample's RowStream went on on its scalar stream
        assert calls
        assert serialize.canonical_bytes(short) == serialize.canonical_bytes(record)
    if n == 1:
        # the runner gives the same record
        block_record = runner(7, name, n, 1, tol)[-1]
        assert serialize.canonical_bytes(serialize.jsonable(block_record)) == (
            serialize.canonical_bytes(serialize.jsonable({"index": 0, **record}))
        )


@pytest.mark.parametrize("seed", [7, 11])
def test_pointwise_suites_draw_nothing_past_their_blocks(seed, monkeypatch):
    calls = count_scalar_normals(monkeypatch)
    for name in POINTWISE:
        assert run_suite(ExperimentConfig(suite=name, seed=seed)).verdict == "pass"
    assert calls == []


@pytest.mark.parametrize("name", PER_SAMPLE)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_chunked_records_equal_the_scalar_check(name, n, monkeypatch):
    # 5 samples take three chunks of at most 2; the fixed unit records come
    # first, and each sample's record equals the stage on a Block of one
    monkeypatch.setattr(suites, "_CHUNK", 2)
    entry = SUITES[name]
    runner, tol = entry.runner, dict(entry.tolerances)
    units = runner.units(tol) if runner.units is not None else []
    records = runner(11, name, n, 5, tol)
    assert len(records) - len(units) == 5 > 2 * suites._CHUNK
    assert serialize.canonical_bytes(records[: len(units)]) == serialize.canonical_bytes(units)
    for i, record in enumerate(records[len(units) :]):
        want = {"index": i, **stage_of_one(runner, 11, name, i, n, tol)}
        assert serialize.canonical_bytes(record) == serialize.canonical_bytes(want)
