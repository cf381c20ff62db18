"""Database ingestion: streaming FASTA and the greedy length-bucket packer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PAD_CODE, pack_codes
from repro.seq import (
    pack_database,
    random_dna,
    read_fasta,
    stream_fasta,
    synthetic_database,
    write_fasta,
)
from repro.seq.db import PackedBucket, pack_runs, pack_subset, shard_database


@pytest.fixture
def db(rng):
    return synthetic_database(n=60, min_length=20, max_length=200, rng=rng)


class TestStreamFasta:
    def test_round_trips_write_fasta(self, tmp_path, db):
        path = tmp_path / "db.fa"
        write_fasta(path, db)
        streamed = list(stream_fasta(path))
        assert [r.name for r in streamed] == [r.name for r in db]
        for got, want in zip(streamed, db):
            np.testing.assert_array_equal(got.codes, want.codes)

    def test_matches_read_fasta(self, tmp_path, db):
        path = tmp_path / "db.fa"
        write_fasta(path, db)
        assert [r.name for r in stream_fasta(path)] == [r.name for r in read_fasta(path)]

    def test_is_lazy(self, tmp_path, db):
        path = tmp_path / "db.fa"
        write_fasta(path, db)
        gen = stream_fasta(path)
        assert next(gen).name == db[0].name  # only the head was parsed
        gen.close()


class TestPackDatabase:
    def test_indices_partition_the_database(self, db):
        packed = pack_database(db, max_lanes=16)
        seen = sorted(i for b in packed.buckets for i in b.indices.tolist())
        assert seen == list(range(len(db)))
        assert packed.n_sequences == len(db)

    def test_lanes_in_database_order_within_bucket(self, db):
        packed = pack_database(db, max_lanes=16)
        for bucket in packed.buckets:
            assert bucket.indices.tolist() == sorted(bucket.indices.tolist())

    def test_lane_contents_match_records(self, db):
        packed = pack_database(db, max_lanes=16)
        for bucket in packed.buckets:
            for lane, index in enumerate(bucket.indices.tolist()):
                length = int(bucket.lengths[lane])
                assert length == len(db[index].codes)
                np.testing.assert_array_equal(
                    bucket.codes[lane, :length], db[index].codes
                )
                assert (bucket.codes[lane, length:] == PAD_CODE).all()

    def test_max_lanes_cap(self, db):
        packed = pack_database(db, max_lanes=7)
        assert all(b.lanes <= 7 for b in packed.buckets)

    def test_max_waste_invariant(self, db):
        packed = pack_database(db, max_lanes=512, max_waste=0.1)
        for bucket in packed.buckets:
            assert int(bucket.lengths.min()) >= (1.0 - 0.1) * bucket.width

    def test_accepts_name_codes_tuples(self, rng):
        packed = pack_database([("a", random_dna(10, rng)), ("b", random_dna(5, rng))])
        assert packed.names == ["a", "b"]
        assert packed.lengths.tolist() == [10, 5]

    def test_small_window_still_packs_everything(self, db):
        packed = pack_database(db, max_lanes=16, window=8)
        seen = sorted(i for b in packed.buckets for i in b.indices.tolist())
        assert seen == list(range(len(db)))

    def test_empty_database(self):
        packed = pack_database([])
        assert packed.buckets == []
        assert packed.n_sequences == 0
        assert packed.total_residues == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            pack_database([], max_lanes=0)
        with pytest.raises(ValueError):
            pack_database([], max_waste=1.0)

    def test_padded_slots_accounting(self, db):
        packed = pack_database(db, max_lanes=16)
        assert packed.padded_slots >= packed.total_residues
        assert packed.total_residues == sum(len(r.codes) for r in db)


class TestSyntheticDatabase:
    def test_deterministic_for_seed(self):
        a = synthetic_database(n=5, rng=3)
        b = synthetic_database(n=5, rng=3)
        for x, y in zip(a, b):
            assert x.name == y.name
            np.testing.assert_array_equal(x.codes, y.codes)

    def test_lengths_in_range(self):
        for r in synthetic_database(n=20, min_length=10, max_length=12, rng=1):
            assert 10 <= len(r.codes) <= 12

    def test_names_sort_in_database_order(self):
        names = [r.name for r in synthetic_database(n=11, rng=0)]
        assert names == sorted(names)

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_database(n=-1)
        with pytest.raises(ValueError):
            synthetic_database(min_length=10, max_length=5)


# -- vectorised re-packing vs the lane-by-lane reference ----------------------


def _reference_pack(buffer, max_lanes, max_waste):
    """The lane-by-lane packer ``pack_subset`` used to run (the oracle)."""
    buckets = []
    buffer.sort(key=lambda item: item[0])
    buffer.sort(key=lambda item: -len(item[1]))
    start = 0
    while start < len(buffer):
        width = len(buffer[start][1])
        floor = (1.0 - max_waste) * width
        stop = start + 1
        while stop < len(buffer) and stop - start < max_lanes and len(buffer[stop][1]) >= floor:
            stop += 1
        run = sorted(buffer[start:stop], key=lambda item: item[0])
        codes, lengths = pack_codes([c for _, c in run], width=width)
        buckets.append(PackedBucket(codes, lengths, np.array([i for i, _ in run], dtype=np.int64)))
        start = stop
    return buckets


def _lanes(packed):
    return [
        (int(b.indices[lane]), b.codes[lane, : int(b.lengths[lane])])
        for b in packed.buckets
        for lane in range(b.lanes)
    ]


def _assert_same_buckets(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in ("codes", "lengths", "indices"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            np.testing.assert_array_equal(a, b)


_PACKING = dict(
    seed=st.integers(0, 2**16),
    n=st.integers(0, 90),
    store_lanes=st.integers(1, 40),
    max_lanes=st.integers(1, 64),
    max_waste=st.floats(0.0, 0.95),
)


def _packed(seed, n, store_lanes):
    rng = np.random.default_rng(seed)
    records = [
        (f"s{i}", rng.integers(0, 4, size=int(length), dtype=np.uint8))
        for i, length in enumerate(rng.integers(0, 120, size=n))
    ]
    return rng, pack_database(records, max_lanes=store_lanes, max_waste=0.3)


class TestVectorisedRepack:
    @settings(max_examples=150, deadline=None)
    @given(frac=st.floats(0.0, 1.0), **_PACKING)
    def test_pack_subset_matches_the_lane_loop(
        self, seed, n, store_lanes, max_lanes, max_waste, frac
    ):
        rng, packed = _packed(seed, n, store_lanes)
        wanted = rng.choice(n, size=int(frac * n), replace=False) if n else []
        subset = {int(i) for i in wanted}
        buffer = [lane for lane in _lanes(packed) if lane[0] in subset]
        _assert_same_buckets(
            pack_subset(packed, wanted, max_lanes, max_waste).buckets,
            _reference_pack(buffer, max_lanes, max_waste),
        )

    @settings(max_examples=100, deadline=None)
    @given(n_shards=st.integers(1, 5), **_PACKING)
    def test_shard_database_matches_the_lane_loop(
        self, seed, n, store_lanes, max_lanes, max_waste, n_shards
    ):
        _, packed = _packed(seed, n, store_lanes)
        shards = shard_database(packed, n_shards, max_lanes, max_waste)
        assert len(shards) == n_shards
        for s, shard in enumerate(shards):
            buffer = [lane for lane in _lanes(packed) if lane[0] % n_shards == s]
            _assert_same_buckets(shard.buckets, _reference_pack(buffer, max_lanes, max_waste))
            assert shard.names is packed.names

    def test_repack_of_a_repacked_subset(self):
        _, packed = _packed(5, 80, 16)
        half = pack_subset(packed, range(0, 80, 2), 8, 0.5)
        again = pack_subset(half, range(0, 80, 4), 3, 0.2)
        buffer = [lane for lane in _lanes(packed) if lane[0] % 4 == 0]
        _assert_same_buckets(again.buckets, _reference_pack(buffer, 3, 0.2))
        with pytest.raises(ValueError, match="not in the database"):
            pack_subset(half, [1], 8, 0.5)

    def test_pack_runs_rejects_a_cut_that_drops_lanes(self):
        _, packed = _packed(6, 20, 8)
        with pytest.raises(ValueError, match="exactly once"):
            pack_runs(packed, range(20), lambda lengths: [(0, 10)])
        with pytest.raises(ValueError, match="exactly once"):
            pack_runs(packed, range(20), lambda lengths: [(0, 10), (5, 20)])
        runs = pack_runs(packed, range(20), lambda lengths: [(10, 20), (0, 10)])
        assert [b.lanes for b in runs.buckets] == [10, 10]
        assert runs.buckets[0].width <= runs.buckets[1].width  # runs keep their order
