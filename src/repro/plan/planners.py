"""Planners: build a :class:`TaskGraph` from strategy parameters.

One planner per schedule the paper describes:

* :func:`plan_wavefront` -- Section 4.2's column partition crossed with row
  groups; tile ``(g, p)`` depends on its left neighbour ``(g, p-1)`` (border
  column values) and its own previous group ``(g-1, p)``.
* :func:`plan_blocked` -- Section 4.3's bands x blocks tiling with bands
  dealt round-robin; tile ``(band, block)`` depends on ``(band-1, block)``
  (the passage row above) and ``(band, block-1)`` (the left column).
* :func:`plan_preprocess` -- Section 5's bands x column-chunks, same edge
  structure as the blocked plan but with the scoreboard payload.
* :func:`plan_search_buckets` -- the database search: one independent tile
  per length bucket, owned by :data:`DYNAMIC` (work-queue dispatch).

:class:`PlanSpec` is the picklable seed of a graph: pool jobs ship a spec
and every worker rebuilds the identical graph from ``(spec, rows, cols)``
via :func:`cached_plan`, which also lets repeated requests on a loaded pair
skip the rebuild entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hostcost import host_col_bounds
from .ir import DYNAMIC, TaskGraph, Tile
from .partition import (
    Tiling,
    band_heights,
    bounds_from_heights,
    chunk_widths,
    column_partition,
    explicit_tiling,
)


@dataclass(frozen=True)
class PlanSpec:
    """A picklable, hashable recipe for one task graph.

    ``params`` is a sorted tuple of ``(name, value)`` pairs (scalars only),
    so a spec can ride a job descriptor through a queue and serve as an
    ``lru_cache`` key on both sides.
    """

    kind: str
    params: tuple[tuple[str, object], ...]

    @property
    def kwargs(self) -> dict:
        return dict(self.params)

    def build(self, rows: int, cols: int) -> TaskGraph:
        return build_plan(self, rows, cols)


def _spec(kind: str, **params: object) -> PlanSpec:
    return PlanSpec(kind, tuple(sorted(params.items())))


#: Row-kernel implementations the runtimes can drive (see
#: :mod:`repro.core.striped` for the striped one).
KERNELS = ("classic", "striped")


def _check_kernel(kernel: str) -> str:
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    return kernel


def wavefront_spec(
    n_procs: int,
    group_rows: int = 1,
    threshold: int = 35,
    col_tolerance: int = 16,
    row_tolerance: int = 16,
    min_score: int | None = None,
    overlap_slack: int = 8,
    home_migration: bool = False,
    kernel: str = "classic",
) -> PlanSpec:
    return _spec(
        "wavefront",
        n_procs=n_procs,
        group_rows=group_rows,
        threshold=threshold,
        col_tolerance=col_tolerance,
        row_tolerance=row_tolerance,
        min_score=min_score,
        overlap_slack=overlap_slack,
        home_migration=home_migration,
        kernel=_check_kernel(kernel),
    )


def blocked_spec(
    n_procs: int,
    n_bands: int,
    n_blocks: int | None,
    threshold: int = 35,
    col_tolerance: int = 16,
    row_tolerance: int = 16,
    min_score: int | None = None,
    overlap_slack: int = 8,
    kernel: str = "classic",
) -> PlanSpec:
    return _spec(
        "blocked",
        n_procs=n_procs,
        n_bands=n_bands,
        n_blocks=n_blocks,
        threshold=threshold,
        col_tolerance=col_tolerance,
        row_tolerance=row_tolerance,
        min_score=min_score,
        overlap_slack=overlap_slack,
        kernel=_check_kernel(kernel),
    )


def preprocess_spec(
    n_procs: int,
    band_size: int,
    chunk_size: int,
    band_scheme: str = "fixed",
    chunk_growth: str = "fixed",
    threshold: int = 20,
    result_interleave: int = 1000,
    save_interleave: int = 1000,
    io_mode: str = "none",
    cache_friendly_rows: int = 32_000,
    cache_penalty: float = 0.20,
    kernel: str = "classic",
) -> PlanSpec:
    return _spec(
        "preprocess",
        n_procs=n_procs,
        band_size=band_size,
        chunk_size=chunk_size,
        band_scheme=band_scheme,
        chunk_growth=chunk_growth,
        threshold=threshold,
        result_interleave=result_interleave,
        save_interleave=save_interleave,
        io_mode=io_mode,
        cache_friendly_rows=cache_friendly_rows,
        cache_penalty=cache_penalty,
        kernel=_check_kernel(kernel),
    )


# --------------------------------------------------------------------------
# Planners
# --------------------------------------------------------------------------


def plan_wavefront(
    rows: int,
    cols: int,
    *,
    n_procs: int,
    group_rows: int = 1,
    threshold: int = 35,
    col_tolerance: int = 16,
    row_tolerance: int = 16,
    min_score: int | None = None,
    overlap_slack: int = 8,
    home_migration: bool = False,
    kernel: str = "classic",
) -> TaskGraph:
    """Section 4.2 schedule: columns split N/P, rows grouped by ``group_rows``."""
    if cols < n_procs:
        raise ValueError(f"{cols} columns cannot be split over {n_procs} processors")
    if group_rows <= 0:
        raise ValueError("group_rows must be positive")
    slices = column_partition(cols, n_procs)
    tiles: list[Tile] = []
    tid = 0
    for lo in range(0, rows, group_rows):
        hi = min(lo + group_rows, rows)
        for p in range(n_procs):
            c0, c1 = slices[p]
            deps: list[int] = []
            if p > 0:
                deps.append(tid - 1)  # left neighbour, same group
            if lo > 0:
                deps.append(tid - n_procs)  # my previous group
            tiles.append(
                Tile(tid, p, (hi - lo) * (c1 - c0), (lo, hi, c0, c1), tuple(deps))
            )
            tid += 1
    graph = TaskGraph(
        kind="wavefront",
        n_procs=n_procs,
        shape=(rows, cols),
        tiles=tuple(tiles),
        params={
            "group_rows": group_rows,
            "slices": tuple(slices),
            "threshold": threshold,
            "col_tolerance": col_tolerance,
            "row_tolerance": row_tolerance,
            "min_score": min_score,
            "overlap_slack": overlap_slack,
            "home_migration": home_migration,
            "kernel": _check_kernel(kernel),
        },
        spec=wavefront_spec(
            n_procs,
            group_rows,
            threshold,
            col_tolerance,
            row_tolerance,
            min_score,
            overlap_slack,
            home_migration,
            kernel,
        ),
    )
    return graph.validate()


def _banded_tiles(
    row_bounds, col_bounds, n_procs: int
) -> tuple[Tile, ...]:
    """Band x block tiles dealt round-robin with the shared edge structure."""
    n_blocks = len(col_bounds)
    tiles: list[Tile] = []
    tid = 0
    for band, (r0, r1) in enumerate(row_bounds):
        for block, (c0, c1) in enumerate(col_bounds):
            deps: list[int] = []
            if band > 0:
                deps.append(tid - n_blocks)  # passage row from the band above
            if block > 0:
                deps.append(tid - 1)  # left column, same band
            tiles.append(
                Tile(
                    tid,
                    band % n_procs,
                    (r1 - r0) * (c1 - c0),
                    (band, block),
                    tuple(deps),
                )
            )
            tid += 1
    return tuple(tiles)


def plan_blocked(
    rows: int,
    cols: int,
    *,
    n_procs: int,
    n_bands: int,
    n_blocks: int | None,
    threshold: int = 35,
    col_tolerance: int = 16,
    row_tolerance: int = 16,
    min_score: int | None = None,
    overlap_slack: int = 8,
    kernel: str = "classic",
) -> TaskGraph:
    """Section 4.3 schedule: bands x blocks, band ``b`` owned by ``b mod P``.

    ``n_blocks=None`` lets the host cost model choose the column bounds
    (:func:`repro.plan.hostcost.host_col_bounds`) for the paper's bands;
    the graph's ``n_blocks`` param then records how many it chose.
    """
    tiling = explicit_tiling(rows, cols, n_bands, 1 if n_blocks is None else n_blocks)
    if n_blocks is None:
        tiling = Tiling(
            tiling.row_bounds, host_col_bounds(tiling.row_bounds, cols, n_procs)
        )
    graph = TaskGraph(
        kind="blocked",
        n_procs=n_procs,
        shape=(rows, cols),
        tiles=_banded_tiles(tiling.row_bounds, tiling.col_bounds, n_procs),
        params={
            "row_bounds": tiling.row_bounds,
            "col_bounds": tiling.col_bounds,
            "n_bands": tiling.n_bands,
            "n_blocks": tiling.n_blocks,
            "threshold": threshold,
            "col_tolerance": col_tolerance,
            "row_tolerance": row_tolerance,
            "min_score": min_score,
            "overlap_slack": overlap_slack,
            "kernel": _check_kernel(kernel),
        },
        spec=blocked_spec(
            n_procs,
            n_bands,
            n_blocks,
            threshold,
            col_tolerance,
            row_tolerance,
            min_score,
            overlap_slack,
            kernel,
        ),
    )
    return graph.validate()


def plan_preprocess(
    rows: int,
    cols: int,
    *,
    n_procs: int,
    band_size: int,
    chunk_size: int,
    band_scheme: str = "fixed",
    chunk_growth: str = "fixed",
    threshold: int = 20,
    result_interleave: int = 1000,
    save_interleave: int = 1000,
    io_mode: str = "none",
    cache_friendly_rows: int = 32_000,
    cache_penalty: float = 0.20,
    kernel: str = "classic",
) -> TaskGraph:
    """Section 5 schedule: bands x column chunks with the scoreboard payload.

    All sizes are in *actual* rows/columns -- callers that simulate a scaled
    workload convert nominal parameters before planning.
    """
    heights = band_heights(band_scheme, rows, band_size, n_procs)
    row_bounds = bounds_from_heights(heights)
    widths = chunk_widths(cols, chunk_size, chunk_growth)
    col_bounds = bounds_from_heights(widths)
    graph = TaskGraph(
        kind="preprocess",
        n_procs=n_procs,
        shape=(rows, cols),
        tiles=_banded_tiles(row_bounds, col_bounds, n_procs),
        params={
            "row_bounds": row_bounds,
            "col_bounds": col_bounds,
            "n_bands": len(row_bounds),
            "n_chunks": len(col_bounds),
            "band_heights": heights,
            "threshold": threshold,
            "result_interleave": result_interleave,
            "save_interleave": save_interleave,
            "io_mode": io_mode,
            "cache_friendly_rows": cache_friendly_rows,
            "cache_penalty": cache_penalty,
            "kernel": _check_kernel(kernel),
        },
        spec=preprocess_spec(
            n_procs,
            band_size,
            chunk_size,
            band_scheme,
            chunk_growth,
            threshold,
            result_interleave,
            save_interleave,
            io_mode,
            cache_friendly_rows,
            cache_penalty,
            kernel,
        ),
    )
    return graph.validate()


def _bucket_locators(packed) -> tuple[list[tuple], int]:
    """Per-bucket ``(offset, width, lanes, lengths, indices)`` + blob size."""
    locators = []
    offset = 0
    for bucket in packed.buckets:
        locators.append(
            (
                offset,
                int(bucket.width),
                int(bucket.lanes),
                tuple(int(x) for x in bucket.lengths),
                tuple(int(x) for x in bucket.indices),
            )
        )
        offset += int(bucket.codes.size)
    return locators, offset


def _shard_search_tiles(
    locators: list[tuple],
    query_len: int,
    shard: int,
    tid0: int,
    prefilter: tuple[str, ...],
    seed_count: int | None,
) -> tuple[list[Tile], int]:
    """Build one shard's search tiles starting at id ``tid0``.

    Locator offsets are *shard-local* (relative to that shard's own blob);
    the runtime adds ``params["shard_bases"][shard]`` when the shards are
    concatenated into one blob, and pool workers use their shard's private
    arena with base 0.  With a prefilter the seed threshold is established
    shard-locally -- weaker than a global seed pass but still admissible,
    so pruning stays exact.
    """
    tiles: list[Tile] = []
    tid = tid0
    if not prefilter:
        for loc in locators:
            residues = sum(loc[3])
            tiles.append(Tile(tid, DYNAMIC, query_len * residues, loc, (), shard))
            tid += 1
        return tiles, tid
    from ..core.bounds import seed_order

    all_lengths = np.concatenate(
        [np.asarray(loc[3], dtype=np.int64) for loc in locators]
    ) if locators else np.zeros(0, dtype=np.int64)
    all_indices = np.concatenate(
        [np.asarray(loc[4], dtype=np.int64) for loc in locators]
    ) if locators else np.zeros(0, dtype=np.int64)
    picked = seed_order(all_lengths, query_len, seed_count)
    seeds = {int(all_indices[i]) for i in picked}
    selections = []
    for loc in locators:
        indices = loc[4]
        seed_sel = tuple(l for l, i in enumerate(indices) if i in seeds)
        rest_sel = tuple(l for l, i in enumerate(indices) if i not in seeds)
        selections.append((seed_sel, rest_sel))
    for loc, (seed_sel, _) in zip(locators, selections):
        if not seed_sel:
            continue
        residues = sum(loc[3][l] for l in seed_sel)
        tiles.append(
            Tile(tid, DYNAMIC, query_len * residues, ("seed", *loc, seed_sel), (), shard)
        )
        tid += 1
    seed_ids = tuple(range(tid0, tid))
    for loc, (_, rest_sel) in zip(locators, selections):
        if not rest_sel:
            continue
        residues = sum(loc[3][l] for l in rest_sel)
        # filter tile gates its dp tile (the next id); its cells are the
        # residues the bound evaluations touch, not DP cells.
        tiles.append(
            Tile(
                tid,
                DYNAMIC,
                residues,
                ("filter", tid + 1, *loc, rest_sel),
                seed_ids,
                shard,
            )
        )
        tiles.append(
            Tile(
                tid + 1,
                DYNAMIC,
                query_len * residues,
                ("dp", *loc, rest_sel),
                (tid,),
                shard,
            )
        )
        tid += 2
    return tiles, tid


def plan_search_buckets(
    packed,
    query_len: int,
    *,
    top_k: int = 10,
    kernel: str = "classic",
    prefilter: tuple[str, ...] = (),
    kmer_k: int = 6,
    seed_count: int | None = None,
    n_shards: int = 1,
    shards=None,
) -> TaskGraph:
    """Database search: one independent tile per length bucket.

    With ``prefilter=()`` (the default) tiles carry
    ``(offset, width, lanes, lengths, indices)`` locating one bucket inside
    the flat blob built by :func:`search_blob`; there are no edges, so any
    dispatch order (greedy work queue included) is valid.

    With bound tiers named in ``prefilter`` the graph grows a *filter
    stage*: the ``seed_count`` highest-ceiling lanes become ``seed`` DP
    tiles that run first and establish a strong top-k threshold, then every
    bucket's remaining lanes pass through a ``filter`` tile (cheap
    admissible bounds, see :mod:`repro.core.bounds`) that feeds only the
    surviving lanes into the paired ``dp`` tile.  Tagged payloads are
    ``(stage, *locator, lane_selection)``; ``filter`` payloads also name the
    dp tile they gate.  Stage order is encoded in the dependency edges, so
    every backend executes -- and the simulator models -- the same pruned
    topology.

    With ``n_shards > 1`` the database is dealt round-robin into shards
    (:func:`repro.seq.db.shard_database`, or pass pre-split ``shards``) and
    each shard gets its own independent tile set -- its own seed→filter→dp
    stages when a prefilter is on -- tagged ``Tile.shard = s``.  Locator
    offsets are shard-local; ``params["shard_bases"]`` holds each shard's
    base offset in the concatenated blob (:func:`search_blob` over the shard
    list).  Per-shard top-k results merge by tournament
    (:func:`repro.core.topk.tournament_merge`) into the same global ranking
    as an unsharded scan.

    Search graphs have no spec: they derive from a packed database, not from
    ``(rows, cols)``.
    """
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    if shards is not None:
        if len(shards) != n_shards:
            raise ValueError(f"got {len(shards)} shards for n_shards={n_shards}")
        shard_dbs = list(shards)
    elif n_shards == 1:
        shard_dbs = [packed]
    else:
        from ..seq.db import shard_database

        shard_dbs = shard_database(packed, n_shards)
    if prefilter and seed_count is None:
        seed_count = max(32, 2 * top_k)
    tiles: list[Tile] = []
    shard_bases: list[int] = []
    base = 0
    tid = 0
    for s, db in enumerate(shard_dbs):
        locators, size = _bucket_locators(db)
        shard_bases.append(base)
        base += size
        shard_tiles, tid = _shard_search_tiles(
            locators, query_len, s, tid, tuple(prefilter), seed_count
        )
        tiles.extend(shard_tiles)
    params = {
        "top_k": top_k,
        "query_len": query_len,
        "kernel": _check_kernel(kernel),
        "n_shards": n_shards,
        "shard_bases": tuple(shard_bases),
    }
    if prefilter:
        params["prefilter"] = tuple(prefilter)
        params["kmer_k"] = int(kmer_k)
        params["seed_count"] = int(seed_count)
    graph = TaskGraph(
        kind="search",
        n_procs=max(1, n_shards),
        shape=(query_len, base),
        tiles=tuple(tiles),
        params=params,
        n_shards=n_shards,
    )
    return graph.validate()


def search_blob(packed) -> np.ndarray:
    """Flatten every bucket's code matrix into one contiguous uint8 blob.

    Accepts a single :class:`~repro.seq.db.PackedDatabase` or a list of
    per-shard databases (concatenated in shard order).  Offsets match
    :func:`plan_search_buckets` (same iteration order): a tile's shard-local
    ``(offset, width, lanes)`` plus its shard's ``shard_bases`` entry slices
    the blob back into exactly that bucket's code matrix.
    """
    dbs = list(packed) if isinstance(packed, (list, tuple)) else [packed]
    total = sum(int(b.codes.size) for db in dbs for b in db.buckets)
    blob = np.empty(total, dtype=np.uint8)
    offset = 0
    for db in dbs:
        for bucket in db.buckets:
            flat = np.ascontiguousarray(bucket.codes).reshape(-1)
            blob[offset : offset + flat.size] = flat
            offset += flat.size
    return blob


_PLANNERS = {
    "wavefront": plan_wavefront,
    "blocked": plan_blocked,
    "preprocess": plan_preprocess,
}


def build_plan(spec: PlanSpec, rows: int, cols: int) -> TaskGraph:
    """Rebuild the graph a spec describes for a concrete matrix shape."""
    try:
        planner = _PLANNERS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown plan kind {spec.kind!r}") from None
    return planner(rows, cols, **spec.kwargs)


@lru_cache(maxsize=16)
def cached_plan(spec: PlanSpec, rows: int, cols: int) -> TaskGraph:
    """Memoized :func:`build_plan`: repeated jobs on a loaded pair (the
    pool's amortisation scenario) reuse the graph instead of rebuilding
    thousands of tiles per request.  Graphs are treated as immutable."""
    return build_plan(spec, rows, cols)
