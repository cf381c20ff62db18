"""Host cost model: what a tile costs on *this* machine, and the geometry
that follows from it.

The paper sized its band/block grid for a 2005 DSM cluster, where a tile's
cost was dominated by its cells and by the page traffic around it.  On a
numpy host the cell work is cheap and every slice-row the kernel dispatches
carries a fixed interpreter cost, so a tile of ``rows`` x ``width`` costs

    rows * dispatch_seconds + rows * width * cell_seconds

(:meth:`HostCost.tile_seconds`).  The two constants are fitted on the
reference host (:data:`HOST_COST`, 2-core x86-64 VM, numpy int32 kernel) from
traced pool runs with :meth:`HostCost.fit`; they are deliberately not
configurable -- the planner's choice must be a pure function of
``(spec, rows, cols)`` so every pool worker rebuilds the identical graph.

:func:`host_col_bounds` turns the model into column geometry for the
real-parallel blocked plan: it list-schedules the band x block DAG (bands
dealt round-robin, each owner running its tiles in id order, exactly like
the pool) for a small family of candidate bounds and keeps the one with the
lowest predicted makespan.  The simulator never calls it -- Table 3's
geometry is what the simulator reproduces.

Search tiles get one :class:`HostCost` per bucket-scan kernel
(:data:`SEARCH_COST`), priced from the tile's shape alone
(:func:`search_terms`): the classic batch pays one dispatch per query row
and one cell per padded lane position; the striped kernel pays ``seg``
plane dispatches per query row, one cell per striped (padded) position and a
profile build over the striped block.  :func:`search_cuts` turns that into
the search tiling: it cuts length-sorted lanes into tiles, gives each tile
the kernel with the lower predicted time (:func:`tile_kernel`) and keeps the
cut with the lowest predicted makespan on a greedy work queue of
``n_workers`` -- a pure function of (lengths, query length, workers), so
every backend builds the same tiles from the same inputs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from statistics import median
from typing import Iterator, NamedTuple

import numpy as np

from ..core.striped import MAX_SEG
from ..seq.db import greedy_runs
from .partition import split_even

#: Widest candidate block count the geometry search considers; beyond it
#: the per-row dispatch cost only grows.
MAX_BLOCKS = 16


class TileSample(NamedTuple):
    """One traced tile, reduced to the model's terms."""

    kind: str  # "blocked", "wavefront", "preprocess", "search[classic]", ...
    dispatches: int
    cells: int
    setup_cells: int
    seconds: float


@dataclass(frozen=True)
class HostCost:
    """Seconds per DP cell, per kernel dispatch and per set-up cell.

    ``setup_seconds`` prices work a tile does once, before its first query
    row (the striped kernel's profile build); pair tiles have none.
    """

    cell_seconds: float
    dispatch_seconds: float
    setup_seconds: float = 0.0

    def tile_seconds(self, rows: int, cells: int, setup_cells: int = 0) -> float:
        """Predicted seconds of one tile of ``rows`` dispatches."""
        return (
            rows * self.dispatch_seconds
            + cells * self.cell_seconds
            + setup_cells * self.setup_seconds
        )

    @classmethod
    def fit(cls, payload: dict, kind: str | None = None) -> "HostCost":
        """Least-squares fit from the tile spans of a traced run.

        ``kind`` selects the tiles: ``None`` takes the pair plans
        (:data:`PAIR_KINDS`, whose tiles :mod:`repro.obs.attrib` joins to
        the rebuilt graph for their slice rows and cells), a search kind
        such as ``"search[striped]"`` that kernel's ``search_chunk`` spans.
        Residuals are taken relative to each tile's measured seconds, so
        small tiles weigh as much as wide ones.
        """
        samples = [
            s
            for s in tile_samples(payload)
            if (s.kind in PAIR_KINDS if kind is None else s.kind == kind)
        ]
        if len(samples) < 2:
            raise ValueError("need at least two traced tiles to fit a host cost")
        seconds = np.array([s.seconds for s in samples], dtype=np.float64)
        columns = [
            np.array([getattr(s, term) for s in samples], dtype=np.float64)
            for term in ("cells", "dispatches", "setup_cells")
        ]
        used = [i for i, col in enumerate(columns) if col.any()]
        while used:
            design = np.stack([columns[i] for i in used], axis=1) / seconds[:, None]
            coef, *_ = np.linalg.lstsq(design, np.ones_like(seconds), rcond=None)
            if all(c > 0 for c in coef):
                terms = [0.0, 0.0, 0.0]
                for i, c in zip(used, coef):
                    terms[i] = float(c)
                return cls(*terms)
            # A term the samples cannot separate fits non-positive: drop it.
            used = [i for i, c in zip(used, coef) if c > 0]
        # Degenerate sample (one shape only): charge everything per cell.
        return cls(float(seconds.sum() / columns[0].sum()), 0.0)


#: Plan kinds whose tiles are priced by :data:`HOST_COST`.
PAIR_KINDS = ("blocked", "wavefront", "preprocess")

#: Fitted with :meth:`HostCost.fit` on traced ``align-pool`` runs (2 warm
#: workers, 4.7-5.3 kbp pairs, 1..8 uniform blocks) on a 2-core x86-64 VM.
HOST_COST = HostCost(cell_seconds=9.0e-9, dispatch_seconds=9.6e-6)

#: Per-kernel search-tile costs (:func:`search_terms` gives the counts).
#: Fitted with :meth:`HostCost.fit` on 240 traced ``search_chunk`` spans per
#: kernel from warm 2-worker pool runs on a 2-core x86-64 VM (numpy 2.4):
#: 2-1024 lanes of 60-1000 bp against 120/400/800 bp queries, both workers
#: busy, so the constants include the two workers' contention.
SEARCH_COST = {
    "classic": HostCost(cell_seconds=4.4e-9, dispatch_seconds=3.3e-5),
    "striped": HostCost(cell_seconds=2.9e-10, dispatch_seconds=4.7e-6, setup_seconds=2.8e-8),
}

#: Bucket-scan kernels the search cost model prices.
SEARCH_KERNELS = tuple(SEARCH_COST)


def search_kind(kernel: str) -> str:
    """The sample kind of a search tile scanned by ``kernel``."""
    return f"search[{kernel}]"


def striped_seg(width: int) -> int:
    """The striped segment length the model assumes for a tile width."""
    return min(max(1, math.isqrt(max(width, 1))), MAX_SEG)


def search_terms(kernel: str, lanes: int, width: int, query_len: int) -> tuple[int, int, int]:
    """``(dispatches, cells, setup_cells)`` of one search tile.

    Classic advances all lanes one query row per dispatch over the padded
    ``(width + 1) x lanes`` row block.  Striped advances one plane per
    dispatch, ``seg`` planes per query row, over the striped (padded to a
    multiple of ``seg``) block, after building its profile over that block.
    """
    if kernel == "classic":
        return query_len, query_len * lanes * (width + 1), 0
    if kernel == "striped":
        seg = striped_seg(width)
        npad = seg * -(-width // seg)
        return query_len * seg, query_len * lanes * npad, lanes * npad
    raise ValueError(f"no search cost for kernel {kernel!r}")


def search_tile_seconds(kernel: str, lanes: int, width: int, query_len: int) -> float:
    """:data:`SEARCH_COST`'s predicted seconds of one search tile."""
    return SEARCH_COST[kernel].tile_seconds(*search_terms(kernel, lanes, width, query_len))


def tile_kernel(lanes: int, width: int, query_len: int, kernel: str = "auto") -> str:
    """The kernel a tile runs: ``kernel`` when forced, else the cheaper one.

    Ties go to the classic batch (first in :data:`SEARCH_KERNELS`).
    """
    if kernel != "auto":
        return kernel
    return min(
        SEARCH_KERNELS, key=lambda k: search_tile_seconds(k, lanes, width, query_len)
    )


def cost_for(kind: str) -> HostCost:
    """The model a tile kind is priced by."""
    if kind.startswith("search["):
        return SEARCH_COST[kind[len("search[") : -1]]
    return HOST_COST


def tile_rows(graph, tile) -> int:
    """Slice rows one tile dispatches (the model's per-dispatch count)."""
    if graph.kind in ("blocked", "preprocess"):
        r0, r1 = graph.params["row_bounds"][tile.payload[0]]
        return r1 - r0
    if graph.kind == "wavefront":
        lo, hi = tile.payload[0], tile.payload[1]
        return hi - lo
    raise ValueError(f"no slice-row count for plan kind {graph.kind!r}")


def tile_samples(payload: dict) -> list[TileSample]:
    """One :class:`TileSample` per traced tile of every plan span.

    Pair plans contribute when their graph can be rebuilt from the trace;
    search plans through the ``kernel``/``lanes``/``width``/``query_len``
    args every ``search_chunk`` span carries.  Empty tiles are skipped.
    """
    from ..obs import attrib  # lazy: keeps attribution off the planner import path

    events = attrib.events_of(payload)
    out: list[TileSample] = []
    for span in attrib.plan_spans(events):
        tiles = attrib.tile_events(events, span)
        if span.args.get("kind") == "search":
            out.extend(search_samples(tiles))
            continue
        graph = attrib.rebuild_graph(span)
        if graph is not None:
            out.extend(graph_samples(graph, tiles))
    return out


def graph_samples(graph, tile_events) -> list[TileSample]:
    """The samples of one pair plan's traced tile spans."""
    out = []
    for e in tile_events:
        tile = graph.tiles[int(e.args["tile"])]
        if tile.cells and e.dur > 0:
            out.append(TileSample(graph.kind, tile_rows(graph, tile), tile.cells, 0, e.dur))
    return out


def search_samples(tile_events) -> list[TileSample]:
    """The samples of one search plan's traced ``search_chunk`` spans."""
    out = []
    for e in tile_events:
        args = e.args
        if not args.get("cells") or e.dur <= 0 or "width" not in args:
            continue
        kernel = str(args["kernel"])
        terms = search_terms(
            kernel, int(args["lanes"]), int(args["width"]), int(args["query_len"])
        )
        out.append(TileSample(search_kind(kernel), *terms, e.dur))
    return out


def prediction_report(
    samples: list[TileSample], cost: HostCost | None = None
) -> dict[str, dict[str, float]]:
    """Per tile kind: measured vs predicted seconds and median relative error.

    Each kind is priced by its own model (:func:`cost_for`) unless ``cost``
    overrides them all.
    """
    by_kind: dict[str, list[tuple[float, float]]] = {}
    for s in samples:
        model = cost or cost_for(s.kind)
        predicted = model.tile_seconds(s.dispatches, s.cells, s.setup_cells)
        by_kind.setdefault(s.kind, []).append((s.seconds, predicted))
    return {
        kind: {
            "tiles": len(pairs),
            "measured_seconds": sum(m for m, _ in pairs),
            "predicted_seconds": sum(p for _, p in pairs),
            "median_rel_error": median(abs(p - m) / m for m, p in pairs),
        }
        for kind, pairs in sorted(by_kind.items())
    }


# --------------------------------------------------------------------------
# Geometry
# --------------------------------------------------------------------------


def blocked_makespan(row_bounds, col_bounds, n_procs: int) -> float:
    """:data:`HOST_COST`'s makespan of the band x block DAG under a list schedule.

    Band ``b`` belongs to owner ``b mod n_procs``; a tile starts when its
    owner is free and both its dependencies -- the tile above and the tile
    to its left -- have finished.
    """
    free = [0.0] * n_procs
    above = [0.0] * len(col_bounds)
    for band, (r0, r1) in enumerate(row_bounds):
        rows = r1 - r0
        owner = band % n_procs
        clock = free[owner]
        for block, (c0, c1) in enumerate(col_bounds):
            clock = max(clock, above[block]) + HOST_COST.tile_seconds(
                rows, rows * (c1 - c0)
            )
            above[block] = clock
        free[owner] = clock
    return max(free)


def candidate_col_bounds(cols: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Uniform splits into 1..MAX_BLOCKS blocks."""
    for k in range(1, min(MAX_BLOCKS, cols) + 1):
        yield tuple(split_even(cols, k))


def host_col_bounds(
    row_bounds, cols: int, n_procs: int
) -> tuple[tuple[int, int], ...]:
    """Column bounds with the lowest :data:`HOST_COST` makespan.

    Ties keep the earlier candidate (fewer blocks), so the
    choice is deterministic on every process that plans the same shape.
    """
    if cols <= 0:
        return ((0, 0),)
    return min(
        candidate_col_bounds(cols),
        key=lambda bounds: blocked_makespan(row_bounds, bounds, n_procs),
    )


# --------------------------------------------------------------------------
# Search tiling
# --------------------------------------------------------------------------

#: Lane caps the search tiler tries (powers of two, 1 to 4096 lanes).
LANE_CAPS = tuple(2**i for i in range(13))

#: Length classes the tiler tries: a class holds lanes at least ``1 - w``
#: of its longest lane, so its tiles pad at most ``w``; 1.0 cuts no classes.
TILE_WASTE = (0.25, 0.5, 1.0)

#: Most padded cells (lanes x width) one tile may span.  The striped
#: kernel holds about 7 bytes per padded cell (codes, four profile blocks,
#: two DP state blocks), so this keeps one tile's working set near 2 MB
#: on every process that scans it, whatever the database size.
MAX_TILE_CELLS = 1 << 18

#: Tiles per worker a candidate cut may add beyond one per length class:
#: past a few rounds of the work queue, more tiles only add dispatches.
MAX_TILES_PER_WORKER = 8


def queue_makespan(seconds, n_workers: int) -> float:
    """Makespan of tiles pulled in order by ``n_workers`` greedy workers."""
    if n_workers <= 1 or len(seconds) <= 1:
        return float(sum(seconds))
    free = [0.0] * min(n_workers, len(seconds))
    for sec in seconds:
        heapq.heapreplace(free, free[0] + sec)
    return max(free)


def _affine_prices(lengths: np.ndarray, query_len: int, kernel: str):
    """``(fixed, per_lane)`` seconds of a run starting at each position.

    A run's width is its first (longest) lane, so its predicted seconds are
    ``fixed[start] + lanes * per_lane[start]`` -- :func:`search_tile_seconds`
    vectorised over every possible start, once per :func:`search_cuts`.
    """
    width = lengths.astype(np.float64)
    c = SEARCH_COST["classic"]
    classic = (
        np.full(len(width), query_len * c.dispatch_seconds, dtype=np.float64),
        query_len * (width + 1) * c.cell_seconds,
    )
    st = SEARCH_COST["striped"]
    seg = np.minimum(np.maximum(np.floor(np.sqrt(np.maximum(width, 1))), 1), MAX_SEG)
    npad = seg * np.ceil(width / seg)
    striped = (
        query_len * seg * st.dispatch_seconds,
        npad * (query_len * st.cell_seconds + st.setup_seconds),
    )
    return {"classic": (classic,), "striped": (striped,)}.get(kernel, (classic, striped))


def _balanced_starts(
    csum: np.ndarray, a: np.ndarray, b: np.ndarray, parts: np.ndarray
) -> np.ndarray:
    """Run starts splitting each class ``[a, b)`` into ``parts`` runs.

    ``csum`` is the prefix sum of the descending lengths; the runs of a
    class hold near-equal residues rather than near-equal lane counts, which
    gives its long-laned head fewer lanes and balances the runs' predicted
    seconds.
    """
    cls = np.repeat(np.arange(len(a), dtype=np.int64), parts)
    k = np.arange(len(cls), dtype=np.int64) - np.repeat(np.cumsum(parts) - parts, parts)
    base = csum[a][cls]
    targets = base + ((csum[b][cls] - base) * k) // parts[cls]
    starts = np.searchsorted(csum, targets, side="right") - 1
    starts = np.minimum(np.maximum(starts, a[cls]), b[cls] - 1)  # empty lanes
    keep = np.ones(len(starts), dtype=bool)
    keep[1:] = starts[1:] != starts[:-1]
    return starts[keep]


def search_cuts(
    lengths, query_len: int, n_workers: int = 1, kernel: str = "auto"
) -> tuple[tuple[int, int, str], ...]:
    """The search tiling of length-sorted lanes: ``(start, stop, kernel)`` runs.

    ``lengths`` are the lanes' lengths in descending order.  Every candidate
    cut splits each length class (:data:`TILE_WASTE`) into
    ``ceil(lanes / cap)`` runs of near-equal residues for a lane cap from
    :data:`LANE_CAPS`; each run gets the kernel with the lower predicted
    time (or ``kernel`` when forced), and the cut with the lowest predicted
    :func:`queue_makespan` on ``n_workers`` wins, ties to fewer tiles.  Runs
    come back in dispatch order: predicted seconds descending, so the work
    queue starts the longest tiles first.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n = len(lengths)
    if n == 0:
        return ()
    if kernel != "auto" and kernel not in SEARCH_KERNELS:
        raise ValueError(f"no search cost for kernel {kernel!r}")
    if np.any(lengths[1:] > lengths[:-1]):
        raise ValueError("search_cuts needs lengths in descending order")
    csum = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(lengths)])
    prices = _affine_prices(lengths, query_len, kernel)
    best_key: tuple[float, int] | None = None
    best: tuple[np.ndarray, np.ndarray] | None = None
    for waste in TILE_WASTE:
        a, b = np.array(greedy_runs(lengths, n, waste), dtype=np.int64).T
        fewest = -(-(b - a) // np.maximum(MAX_TILE_CELLS // np.maximum(lengths[a], 1), 1))
        tried = set()
        most = int(fewest.sum()) + MAX_TILES_PER_WORKER * n_workers
        for cap in LANE_CAPS[::-1]:  # the widest cap is always a candidate
            parts = np.maximum(-(-(b - a) // cap), fewest)
            signature = parts.tobytes()
            if signature in tried or (tried and int(parts.sum()) > most):
                continue
            tried.add(signature)
            starts = _balanced_starts(csum, a, b, parts)
            lanes = np.diff(np.append(starts, n))
            seconds = np.min(
                [fixed[starts] + lanes * per_lane[starts] for fixed, per_lane in prices], axis=0
            )
            bound = (max(float(seconds.max()), float(seconds.sum()) / n_workers), len(starts))
            if best_key is not None and bound >= best_key:
                continue  # cannot beat the best cut so far
            key = (queue_makespan(np.sort(seconds)[::-1].tolist(), n_workers), len(starts))
            if best_key is None or key < best_key:
                best_key, best = key, (starts, seconds)
    assert best is not None  # the widest cap is always a candidate
    starts, seconds = best
    stops = np.append(starts[1:], n)
    order = np.lexsort((starts, -seconds))
    # The kernels are re-derived per run by :func:`tile_kernel`, the same
    # call the planner makes per bucket, so both always agree.
    return tuple(
        (int(a), int(b), tile_kernel(int(b - a), int(lengths[a]), query_len, kernel))
        for a, b in zip(starts[order], stops[order])
    )
