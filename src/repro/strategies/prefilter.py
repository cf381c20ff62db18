"""Exact score-bound pruning: the one database-search path of every backend.

ALAE-style pruning (PAPERS.md): before paying the full Smith-Waterman scan
of a database sequence, check whether any cheap *admissible* score ceiling
(:mod:`repro.core.bounds`) already proves it cannot enter the top-k.  The
filter is exact by construction -- a sequence is dropped only when its
ceiling is strictly below a k-th score some scanned sequences already reach,
and a tie must survive because an equal score at a smaller index still
displaces the k-th hit -- so rankings stay bitwise identical to
:func:`~repro.strategies.search.search_db_sequential`.

:func:`pruned_search` runs on the coordinator, whatever executes the tiles:

1. one vectorized bound sweep gives every lane its ceilings;
2. the highest-ceiling lanes form a *seed* prefix, scanned first as its own
   graph, so the threshold is as strong as the bounds can make it before
   any pruning decision;
3. every other lane whose ceiling falls strictly below the seeded
   threshold is pruned in one comparison;
4. the survivors are scanned as a second graph.

Every scan -- the seed prefix, the survivors, and the whole database when
pruning is off -- is cut into tiles by the host cost model
(:func:`repro.plan.hostcost.search_cuts`, one kernel per tile, lowest
predicted makespan on the executor's ``n_workers``) and re-packed into
exactly those tiles (:func:`repro.seq.db.pack_runs`); the storage packing
only shapes the bound sweep.  Both graphs go through the same
``Executor.run(graph, query, blob, scoring)`` call:
:class:`~repro.plan.InlineExecutor` in-process,
:class:`~repro.plan.PoolExecutor` over a worker pool,
:class:`~repro.plan.SimExecutor` on the simulated cluster.  The seeded
threshold is a lower bound on the final k-th score, and pruning against a
lower threshold only keeps *more* sequences, never fewer.  With pruning off
the whole database is one graph.
"""

from __future__ import annotations

import numpy as np

from ..core.bounds import TieredFilter
from ..core.topk import TopK
from ..obs import get_metrics, get_tracer, is_enabled
from ..plan import plan_search_buckets, search_blob
from ..plan.hostcost import search_cuts
from ..seq.db import PackedDatabase, pack_runs

__all__ = [
    "AUTO_MIN_SEQUENCES",
    "PREFILTER_MODES",
    "pruned_search",
    "resolve_prefilter",
]

#: Valid values of ``SearchConfig.prefilter`` / ``--prefilter``.
PREFILTER_MODES = ("off", "composition", "kmer", "auto")

#: Below this many sequences ``auto`` skips pruning entirely: the bound
#: evaluations and the extra packing cost more than the handful of DP lanes
#: they could save.
AUTO_MIN_SEQUENCES = 512

_MODE_TIERS = {
    "off": (),
    "composition": ("length", "composition"),
    "kmer": ("length", "composition", "kmer"),
}


def resolve_prefilter(mode: str, n_sequences: int) -> tuple[str, ...]:
    """Bound tiers a prefilter mode enables for a database of this size."""
    if mode not in PREFILTER_MODES:
        raise ValueError(f"prefilter must be one of {PREFILTER_MODES}, got {mode!r}")
    if mode == "auto":
        return _MODE_TIERS["kmer"] if n_sequences >= AUTO_MIN_SEQUENCES else ()
    return _MODE_TIERS[mode]


def default_seed_count(top_k: int) -> int:
    """Seed prefix size: enough lanes to saturate the top-k threshold."""
    return max(32, 2 * top_k)


def pruned_search(
    query: np.ndarray,
    packed: PackedDatabase,
    config,
    executor,
    tiers: tuple[str, ...],
) -> tuple[list[tuple[int, int]], int, int]:
    """Exact search of ``packed`` through ``executor``: seed, prune, re-pack, scan.

    Returns ``(ranked, sequences_pruned, cells_skipped)`` where ``ranked``
    is the merged ``(score, index)`` top-k -- identical to an unpruned scan.
    ``config`` is a :class:`~repro.strategies.search.SearchConfig`.
    """
    query_len = int(len(query))
    n_shards = config.n_shards
    # Shards share the one work queue, so each shard's tiles are cut for
    # its share of the workers.
    workers = max(1, -(-executor.n_workers // n_shards))
    top = TopK(config.top_k)

    def cut(lengths):
        return search_cuts(lengths, query_len, workers, config.kernel)

    def scan(indices: np.ndarray) -> None:
        shards = [
            pack_runs(packed, indices[indices % n_shards == s], cut) for s in range(n_shards)
        ]
        graph = plan_search_buckets(
            shards[0],
            query_len,
            top_k=config.top_k,
            kernel=config.kernel,
            prefilter=tiers,
            n_shards=n_shards,
            shards=shards,
        )
        result = executor.run(graph, query, search_blob(shards), config.scoring)
        top.merge(result.hits)

    if not tiers or not packed.buckets:
        scan(np.flatnonzero(packed.lane_map()[0] >= 0))
        return top.ranked(), 0, 0

    tiered = TieredFilter(query, config.scoring, tiers)
    tracer = get_tracer()
    with tracer.span("prefilter_bounds", "computation", sequences=packed.n_sequences):
        sweeps = [tiered.ceilings(b.codes, b.lengths) for b in packed.buckets]
    indices = np.concatenate([b.indices for b in packed.buckets])
    lengths = np.concatenate([b.lengths for b in packed.buckets])
    ceilings = np.concatenate([combined for combined, _ in sweeps])
    per_tier = {
        tier: np.concatenate([bounds[tier] for _, bounds in sweeps])
        for tier in sweeps[0][1]
    }
    # Highest ceiling first, ties toward the smaller index (deterministic).
    order = np.lexsort((indices, -ceilings))
    n_seeds = default_seed_count(config.top_k)
    scan(indices[order[:n_seeds]])

    threshold = top.threshold()
    rest = order[n_seeds:]
    with tracer.span("prefilter", "computation", sequences=int(rest.size)):
        drop = ceilings[rest] < threshold
        dropped, survivors = rest[drop], rest[~drop]
        cells_skipped = query_len * int(lengths[dropped].sum())
        # Attribute each prune to the cheapest tier that proved it.
        tier_pruned: dict[str, int] = {}
        unattributed = dropped
        for tier in tiered.tiers:
            if tier in per_tier and unattributed.size:
                hit = per_tier[tier][unattributed] < threshold
                tier_pruned[tier] = int(hit.sum())
                unattributed = unattributed[~hit]
    if is_enabled():
        metrics = get_metrics()
        metrics.counter("sequences_pruned").inc(int(dropped.size))
        metrics.counter("cells_skipped").inc(cells_skipped)
        for tier, n in tier_pruned.items():
            metrics.counter(f"prefilter_{tier}_pruned").inc(n)
        if threshold != float("-inf"):
            metrics.gauge("prefilter_threshold").set(float(threshold))

    if survivors.size:
        scan(indices[survivors])
    return top.ranked(), int(dropped.size), cells_skipped
