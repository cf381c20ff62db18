"""Sequence databases: streaming FASTA ingestion and length-bucketed packing.

A database search (one query vs. many targets) wants its targets packed
into the batches :class:`repro.core.MultiSequenceWorkspace` consumes: each
batch one padded ``(k, n)`` code matrix of similar-length sequences, so the
SIMD lanes waste as little work on padding as possible.  This module
provides the ingestion side:

* :func:`stream_fasta` -- record-at-a-time FASTA reading (gzip detected by
  magic bytes), so a multi-gigabyte database never has to fit in memory at
  once.
* :func:`pack_database` -- a greedy length-bucket packer.  Records are
  buffered in windows, sorted by length, and cut into buckets whose shortest
  lane is within ``max_waste`` of the bucket width; each bucket is capped at
  ``max_lanes`` lanes so buckets double as the dispatch chunks of the
  dynamic work queue in :func:`repro.strategies.search_db`.
* :func:`synthetic_database` -- seeded random databases for benchmarks, CI
  smoke runs and the ``generate-db`` CLI subcommand.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from ..core.multi_engine import PAD_CODE, pack_codes
from .fasta import FastaRecord, _open_text, parse_fasta
from .random_dna import random_dna


def stream_fasta(path: str | os.PathLike[str]) -> Iterator[FastaRecord]:
    """Yield FASTA records one at a time without materialising the file.

    Unlike :func:`repro.seq.read_fasta` (which returns a list), this is a
    generator: the file is opened lazily and closed when the generator is
    exhausted or dropped.
    """
    with _open_text(path, "r") as fh:
        yield from parse_fasta(fh)


@dataclass(frozen=True)
class PackedBucket:
    """One length bucket: ``k`` similar-length targets in a padded matrix.

    ``codes`` is the ``(k, n)`` uint8 matrix (:data:`repro.core.PAD_CODE`
    padding), ``lengths`` the real per-lane lengths, and ``indices`` each
    lane's position in the original database order (packing permutes
    records, results must not).
    """

    codes: np.ndarray
    lengths: np.ndarray
    indices: np.ndarray

    @property
    def lanes(self) -> int:
        return int(self.codes.shape[0])

    @property
    def width(self) -> int:
        return int(self.codes.shape[1])

    @property
    def cells_per_query_row(self) -> int:
        """Real (non-padded) DP cells one query character costs this bucket."""
        return int(self.lengths.sum())


@dataclass
class PackedDatabase:
    """A whole database packed into dispatchable length buckets.

    ``names``/``lengths`` are indexed by the *original* record order; bucket
    ``indices`` map lanes back to it.
    """

    buckets: list[PackedBucket]
    names: list[str]
    lengths: np.ndarray
    _digest: str | None = field(default=None, repr=False, compare=False)
    _lanes: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n_sequences(self) -> int:
        return len(self.names)

    @property
    def total_residues(self) -> int:
        return int(self.lengths.sum()) if len(self.names) else 0

    @property
    def padded_slots(self) -> int:
        """Total matrix slots including padding (packing-quality metric)."""
        return sum(b.lanes * b.width for b in self.buckets)

    def lane_map(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(bucket, lane, length)`` of every original index, built once.

        Indices no bucket holds (the rest of the database, for a re-packed
        subset) map to bucket ``-1``.
        """
        if self._lanes is None:
            n = max(
                [len(self.names)] + [int(b.indices.max()) + 1 for b in self.buckets if b.lanes]
            )
            bucket_of = np.full(n, -1, dtype=np.int64)
            lane_of = np.zeros(n, dtype=np.int64)
            length_of = np.zeros(n, dtype=np.int64)
            for i, b in enumerate(self.buckets):
                if b.lanes and int(b.lengths.max()) > b.width:
                    raise ValueError(f"bucket {i}: a lane length exceeds the packed width")
                bucket_of[b.indices] = i
                lane_of[b.indices] = np.arange(b.lanes)
                length_of[b.indices] = b.lengths
            self._lanes = (bucket_of, lane_of, length_of)
        return self._lanes


def _pack_buffer(
    buffer: list[tuple[int, np.ndarray]],
    buckets: list[PackedBucket],
    max_lanes: int,
    max_waste: float,
) -> None:
    """Cut one ``(db index, codes)`` buffer into buckets (appended, cleared).

    Sorts by length descending, cuts whenever a bucket reaches ``max_lanes``
    lanes or the next sequence would pad more than ``max_waste`` of the
    bucket width, then restores database order within each bucket so equal
    scores rank identically to a sequential scan.
    """
    if not buffer:
        return
    buffer.sort(key=lambda item: -len(item[1]))
    lengths = [len(codes) for _, codes in buffer]
    for start, stop in greedy_runs(lengths, max_lanes, max_waste):
        run = sorted(buffer[start:stop], key=lambda item: item[0])
        codes, lane_lengths = pack_codes([c for _, c in run], width=lengths[start])
        buckets.append(
            PackedBucket(
                codes=codes,
                lengths=lane_lengths,
                indices=np.array([i for i, _ in run], dtype=np.int64),
            )
        )
    buffer.clear()


def pack_database(
    records: Iterable[FastaRecord | tuple[str, np.ndarray]],
    max_lanes: int = 512,
    max_waste: float = 0.15,
    window: int = 8192,
) -> PackedDatabase:
    """Greedily pack a record stream into length buckets.

    Records are buffered ``window`` at a time and cut into buckets by
    :func:`_pack_buffer`; buckets double as the dispatch chunks of the
    search work queue.
    """
    _check_packing(max_lanes, max_waste)
    names: list[str] = []
    lengths: list[int] = []
    buckets: list[PackedBucket] = []
    buffer: list[tuple[int, np.ndarray]] = []  # (db index, codes)

    def flush() -> None:
        _pack_buffer(buffer, buckets, max_lanes, max_waste)

    for record in records:
        name, codes = (record.name, record.codes) if isinstance(record, FastaRecord) else record
        index = len(names)
        names.append(name)
        lengths.append(int(len(codes)))
        buffer.append((index, np.asarray(codes, dtype=np.uint8)))
        if len(buffer) >= window:
            flush()
    flush()
    return PackedDatabase(
        buckets=buckets, names=names, lengths=np.array(lengths, dtype=np.int64)
    )


def greedy_runs(lengths, max_lanes: int, max_waste: float) -> list[tuple[int, int]]:
    """Cut descending ``lengths`` into runs the way :func:`_pack_buffer` does.

    A run ends at ``max_lanes`` lanes or before the first lane shorter than
    ``1 - max_waste`` of the run's longest lane.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    neg = -lengths
    runs = []
    start = 0
    while start < len(lengths):
        floor = (1.0 - max_waste) * float(lengths[start])
        stop = min(start + max_lanes, int(np.searchsorted(neg, -floor, side="right")))
        runs.append((start, stop))
        start = stop
    return runs


def _check_packing(max_lanes: int, max_waste: float) -> None:
    if max_lanes <= 0:
        raise ValueError("max_lanes must be positive")
    if not 0.0 <= max_waste < 1.0:
        raise ValueError("max_waste must be in [0, 1)")


def _gather(packed: PackedDatabase, indices: np.ndarray, width: int) -> PackedBucket:
    """One bucket of ``indices`` (ascending) copied out of ``packed``."""
    bucket_of, lane_of, length_of = packed.lane_map()
    src = bucket_of[indices]
    lengths = length_of[indices]
    codes = np.full((len(indices), width), PAD_CODE, dtype=np.uint8)
    for b in np.flatnonzero(np.bincount(src)):
        rows = np.flatnonzero(src == b)
        bucket = packed.buckets[int(b)]
        w = min(width, bucket.width)
        codes[rows, :w] = bucket.codes[lane_of[indices[rows]], :w]
    codes[np.arange(width)[None, :] >= lengths[:, None]] = PAD_CODE
    return PackedBucket(codes=codes, lengths=lengths, indices=indices)


def _covers(runs: list[tuple[int, int]], n: int) -> bool:
    """True when the non-empty ``runs`` tile ``range(n)`` exactly once."""
    cursor = 0
    for a, b in sorted(runs):
        if a != cursor or b <= a:
            return False
        cursor = b
    return cursor == n


def pack_runs(packed: PackedDatabase, indices, cut) -> PackedDatabase:
    """Re-pack a subset of ``packed`` into one bucket per run of ``cut``.

    The lanes of ``indices`` are sorted longest first (ties by database
    index) and ``cut(lengths)`` returns ``(start, stop, ...)`` runs over
    that order, which must cover it exactly once; buckets follow the runs'
    order, lanes inside each in database order.  Lanes keep their
    **original** database indices and the result keeps the full
    ``names``/``lengths`` arrays, so rankings merge exactly with hits from
    other subsets.  Codes are gathered with one numpy copy per source
    bucket through :meth:`PackedDatabase.lane_map`.
    """
    bucket_of, _, length_of = packed.lane_map()
    idx = np.asarray(indices, dtype=np.int64).ravel()
    inside = (idx >= 0) & (idx < len(bucket_of))
    # A mask, not np.unique: the index set comes back sorted and deduplicated
    # without paging in numpy's sort kernels on every process that packs.
    wanted = np.zeros(len(bucket_of), dtype=bool)
    wanted[idx[inside]] = True
    missing = len(set(idx[~inside].tolist())) + int((wanted & (bucket_of < 0)).sum())
    if missing:
        raise ValueError(f"{missing} requested indices are not in the database")
    idx = np.flatnonzero(wanted)
    order = np.argsort(-length_of[idx], kind="stable")
    ranked = idx[order]
    lengths = length_of[ranked]
    runs = [(int(r[0]), int(r[1])) for r in cut(lengths)]
    if not _covers(runs, len(ranked)):
        raise ValueError("cut runs must cover the sorted lanes exactly once")
    buckets = [_gather(packed, np.sort(ranked[a:b]), int(lengths[a])) for a, b in runs]
    return PackedDatabase(buckets=buckets, names=packed.names, lengths=packed.lengths)


def pack_subset(
    packed: PackedDatabase,
    indices,
    max_lanes: int = 512,
    max_waste: float = 0.15,
) -> PackedDatabase:
    """Re-pack a subset of an already-packed database into fresh buckets.

    The buckets are cut as :func:`pack_database` cuts them (longest first,
    at ``max_lanes`` lanes or ``max_waste`` padding), through
    :func:`pack_runs`.  ``n_sequences`` / ``total_residues`` of the
    returned database describe the *original* database, not the subset.
    """
    _check_packing(max_lanes, max_waste)
    return pack_runs(packed, indices, lambda lengths: greedy_runs(lengths, max_lanes, max_waste))


def shard_database(
    packed: PackedDatabase,
    n_shards: int,
    max_lanes: int = 512,
    max_waste: float = 0.15,
) -> list[PackedDatabase]:
    """Split a packed database into ``n_shards`` disjoint bucket sets.

    Sequences are dealt round-robin by original database index
    (``index % n_shards``), the paper's "scattered" mapping: consecutive
    records land on different shards, so length (and therefore DP cost)
    correlated with database order spreads evenly instead of loading one
    shard with all the long targets.  Each shard is re-packed into its own
    length buckets by :func:`pack_subset`; lanes keep their **original**
    database indices, and every shard carries the full ``names``/``lengths``
    arrays, so per-shard rankings merge exactly.

    Exactly-once coverage -- every original index in precisely one shard --
    is what the plan verifier's sharded PLAN004 rule re-checks downstream.
    """
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    _check_packing(max_lanes, max_waste)
    held = np.flatnonzero(packed.lane_map()[0] >= 0)
    return [
        pack_subset(packed, held[held % n_shards == s], max_lanes, max_waste)
        for s in range(n_shards)
    ]


def content_digest(packed: PackedDatabase) -> str:
    """A sha1 digest of a packed database's contents (memoised per instance).

    Covers record names, lengths, and every bucket's codes, lane lengths and
    lane indices -- anything that could change a search result.  The result
    cache (:mod:`repro.strategies.cache`) keys on this, so two databases
    that pack identically share cache entries and any content change
    invalidates them.
    """
    if packed._digest is None:
        h = hashlib.sha1()
        h.update("\x00".join(packed.names).encode())
        h.update(np.ascontiguousarray(packed.lengths).tobytes())
        for bucket in packed.buckets:
            h.update(np.ascontiguousarray(bucket.codes).tobytes())
            h.update(np.ascontiguousarray(bucket.lengths).tobytes())
            h.update(np.ascontiguousarray(bucket.indices).tobytes())
        packed._digest = h.hexdigest()
    return packed._digest


def synthetic_database(
    n: int = 100,
    min_length: int = 300,
    max_length: int = 700,
    rng: np.random.Generator | int | None = None,
    prefix: str = "seq",
) -> list[FastaRecord]:
    """A seeded random database of ``n`` records, lengths uniform in range."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 <= min_length <= max_length:
        raise ValueError("need 0 <= min_length <= max_length")
    rng = np.random.default_rng(rng)
    width = len(str(max(n, 1)))
    out = []
    for i in range(n):
        length = int(rng.integers(min_length, max_length + 1))
        out.append(FastaRecord(f"{prefix}{i:0{width}d}", random_dna(length, rng)))
    return out
