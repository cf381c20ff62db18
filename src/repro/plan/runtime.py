"""Plan runtimes: the one copy of kernel-driving code behind every backend.

A runtime binds a :class:`~repro.plan.ir.TaskGraph` to concrete sequences
and knows how to execute one tile: which kernel to call, which shared state
to read and write, and what partial results to emit per owner.  The
simulated backend, the inline executor, the one-shot multiprocessing
backends and the persistent pool all drive the *same* runtime object model,
which is why their region sets and search rankings are bitwise identical --
parity holds by construction, not by careful duplication.

Cross-owner dataflow goes through one ndarray per graph
(:func:`state_shape`): the wave-front's border columns, the banded plans'
boundary rows.  Backends that run owners in separate processes back that
array with a shared-memory arena; in-process backends use a plain array.
Synchronisation is the *backend's* job -- a runtime assumes every
dependency of a tile has already run.

:func:`finalize_plan` is the single merge step: it turns the per-owner
emissions into an :class:`~repro.plan.result.ExecutionResult` (alignment
queue finalisation, result-matrix assembly, or top-k merge).
"""

from __future__ import annotations

import numpy as np

from ..core.alignment import AlignmentQueue, LocalAlignment
from ..core.bounds import DEFAULT_KMER_K, TieredFilter
from ..core.engine import KernelWorkspace, compute_tile
from ..core.multi_engine import MultiSequenceWorkspace
from ..core.regions import RegionConfig, StreamingRegionFinder
from ..core.scoring import DEFAULT_SCORING, SCORE_DTYPE, Scoring
from ..core.striped import StripedMultiWorkspace, StripedPairWorkspace
from ..core.topk import TopK, tournament_merge
from ..obs import get_metrics, is_enabled
from .ir import TaskGraph, Tile
from .result import ExecutionResult


def state_shape(graph: TaskGraph) -> tuple[int, ...] | None:
    """Shape of the shared cross-owner state array for this graph.

    Wave-front plans share one border-column slot per (edge, row); banded
    plans share the boundary row below every band.  Search plans have no
    cross-tile dataflow at all.
    """
    rows, cols = graph.shape
    if graph.kind == "wavefront":
        return (max(1, graph.n_procs - 1), rows)
    if graph.kind in ("blocked", "preprocess"):
        return (graph.params["n_bands"] + 1, cols + 1)
    if graph.kind == "search":
        return None
    raise ValueError(f"unknown plan kind {graph.kind!r}")


def _pair_workspace(
    params: dict, t_codes: np.ndarray, scoring: Scoring
) -> KernelWorkspace:
    """The pairwise row workspace a graph's ``kernel`` param selects.

    ``"classic"`` (and absent, for graphs planned before the knob existed)
    is the dense :class:`KernelWorkspace`; ``"striped"`` swaps in the
    bitwise-identical striped scan of :mod:`repro.core.striped`.
    """
    if params.get("kernel", "classic") == "striped":
        return StripedPairWorkspace(t_codes, scoring)
    return KernelWorkspace(t_codes, scoring)


def _region_config(params: dict) -> RegionConfig:
    return RegionConfig(
        threshold=params["threshold"],
        col_tolerance=params["col_tolerance"],
        row_tolerance=params["row_tolerance"],
    )


def _admission_score(params: dict) -> int:
    min_score = params.get("min_score")
    return params["threshold"] if min_score is None else min_score


class PlanRuntime:
    """Executes tiles of one graph kind against concrete sequences.

    Subclass contract:

    * ``SPAN_NAME`` -- tracer span name one tile execution is recorded
      under (kept identical to the names the pre-planner backends used, so
      existing trace tooling keeps working);
    * ``ENGINE_COUNTS_CELLS`` -- True when the kernels this runtime calls
      already fire the :func:`repro.obs.count_cells` hook (batched
      kernels); False when the caller must count ``tile.cells`` itself;
    * :meth:`run_tile` assumes all dependencies of the tile have run;
    * :meth:`emit` returns a *picklable* partial result for one owner.
    """

    SPAN_NAME = "tile"
    ENGINE_COUNTS_CELLS = True

    #: Attribution labels (see :meth:`tile_args`).  Graph-bound runtimes
    #: overwrite these in ``__init__`` from the graph's params; the search
    #: runtime sets its own.  ``dtype_name`` is the *scheduled* DP state
    #: dtype ("auto" where the kernel picks lane dtypes per bucket).
    kind_name = ""
    kernel_name = "classic"
    dtype_name = "int32"

    def tile_args(self, tile: Tile) -> dict:
        """Span args stamped onto every executed tile, on every backend.

        ``tile`` (the id) is the join key :mod:`repro.obs.attrib` uses to
        line trace slices up with the plan's dependency structure; the rest
        lets a report say *what* ran without the graph in hand.
        """
        return {
            "tile": tile.id,
            "owner": tile.owner,
            "kind": self.kind_name,
            "cells": tile.cells,
            "kernel": self.kernel_name,
            "dtype": self.dtype_name,
        }

    def run_tile(self, tile: Tile) -> None:
        raise NotImplementedError

    def emit(self, owner: int) -> list:
        raise NotImplementedError

    def open_region_count(self, owner: int) -> int:
        """How many candidate regions this owner would gather (sim sizing)."""
        return len(self.emit(owner))


class WavefrontRuntime(PlanRuntime):
    """Section 4.2 execution: per-owner two-row scans over a column slice.

    ``state[p - 1, i]`` is the border value processor ``p`` reads for row
    ``i`` (written by ``p - 1``); the last processor writes no borders.
    """

    SPAN_NAME = "rows"
    ENGINE_COUNTS_CELLS = False  # sw_row_slice is a single-row kernel

    def __init__(
        self,
        graph: TaskGraph,
        s: np.ndarray,
        t: np.ndarray,
        scoring: Scoring,
        state: np.ndarray,
    ) -> None:
        self.graph = graph
        self.s = s
        self.t = t
        self.scoring = scoring
        self.borders = state
        self.kind_name = graph.kind
        self.kernel_name = graph.params.get("kernel", "classic")
        self._owners: dict[int, dict] = {}

    def _owner(self, p: int) -> dict:
        st = self._owners.get(p)
        if st is None:
            c0, c1 = self.graph.params["slices"][p]
            st = {
                "c0": c0,
                "ws": _pair_workspace(self.graph.params, self.t[c0:c1], self.scoring),
                "prev": np.zeros(c1 - c0 + 1, dtype=SCORE_DTYPE),
                "finder": StreamingRegionFinder(_region_config(self.graph.params)),
            }
            self._owners[p] = st
        return st

    def run_tile(self, tile: Tile) -> None:
        lo, hi, _c0, _c1 = tile.payload
        p = tile.owner
        st = self._owner(p)
        ws, prev, finder = st["ws"], st["prev"], st["finder"]
        s, borders = self.s, self.borders
        last = p == self.graph.n_procs - 1
        for i in range(lo, hi):
            left = int(borders[p - 1, i]) if p > 0 else 0
            prev = ws.sw_row_slice(prev, int(s[i]), left, out=prev)
            finder.feed(i + 1, prev)
            if not last:
                borders[p, i] = prev[-1]
        st["prev"] = prev

    def emit(self, owner: int) -> list:
        """Regions of one owner as global-coordinate alignment tuples."""
        st = self._owner(owner)
        c0 = st["c0"]
        out = []
        for region in st["finder"].finish():
            a = region.as_alignment()
            out.append((a.score, a.s_start, a.s_end, a.t_start + c0, a.t_end + c0))
        return out

    def open_region_count(self, owner: int) -> int:
        finder = self._owner(owner)["finder"]
        return len(finder._finished) + len(finder._active)


class _BandedRuntime(PlanRuntime):
    """Shared machinery of the blocked and pre_process runtimes.

    ``state[band + 1]`` is the boundary row below ``band`` (DP indexing,
    full matrix width); a tile reads ``state[band]`` and its own running
    left column, both valid once its dependencies have run.
    """

    def __init__(
        self,
        graph: TaskGraph,
        s: np.ndarray,
        t: np.ndarray,
        scoring: Scoring,
        state: np.ndarray,
    ) -> None:
        self.graph = graph
        self.s = s
        self.t = t
        self.scoring = scoring
        self.boundaries = state
        self.kind_name = graph.kind
        self.kernel_name = graph.params.get("kernel", "classic")
        self.row_bounds = graph.params["row_bounds"]
        self.col_bounds = graph.params["col_bounds"]
        self._bands: dict[int, dict] = {}  # owner -> current-band scratch
        self._workspaces: dict[int, KernelWorkspace] = {}  # per column block

    def _workspace(self, block: int, c0: int, c1: int) -> KernelWorkspace:
        ws = self._workspaces.get(block)
        if ws is None:
            ws = _pair_workspace(self.graph.params, self.t[c0:c1], self.scoring)
            self._workspaces[block] = ws
        return ws

    def _compute(self, tile: Tile) -> np.ndarray | None:
        """Run the DP over one tile, update boundaries, return the tile matrix."""
        band, block = tile.payload
        r0, r1 = self.row_bounds[band]
        c0, c1 = self.col_bounds[block]
        h, w = r1 - r0, c1 - c0
        if h == 0 or w == 0:
            return None
        st = self._bands.get(tile.owner)
        if st is None or st["band"] != band:
            st = {"band": band, "left_col": np.zeros(h, dtype=SCORE_DTYPE)}
            self._bands[tile.owner] = st
        top = self.boundaries[band, c0 : c1 + 1].copy()
        matrix = compute_tile(
            top,
            st["left_col"],
            self.s[r0:r1],
            self.t[c0:c1],
            self.scoring,
            workspace=self._workspace(block, c0, c1),
        )
        st["left_col"] = matrix[:, -1].copy()
        self.boundaries[band + 1, c0 + 1 : c1 + 1] = matrix[-1, 1:]
        return matrix


class BlockedRuntime(_BandedRuntime):
    """Section 4.3 execution: banded blocks plus per-band region detection.

    Each owner keeps one band buffer (DP rows of its current band, full
    matrix width plus the zero boundary column).  A tile's kernel writes its
    rows straight into the buffer's column slice -- the column left of the
    slice, written by the previous block, is the tile's left border -- and
    the band's last tile hands the whole buffer to the region finder.
    """

    SPAN_NAME = "tile"
    ENGINE_COUNTS_CELLS = True  # sw_rows_slice is the batched slice kernel

    def __init__(self, graph, s, t, scoring, state) -> None:
        super().__init__(graph, s, t, scoring, state)
        self._found: dict[int, list] = {}
        self._band_rows: dict[int, np.ndarray] = {}  # owner -> band buffer

    def _band_buffer(self, owner: int, h: int) -> np.ndarray:
        """This owner's band buffer, cut to ``h`` rows (reused across bands:
        tiles overwrite every column but the zero boundary column)."""
        buf = self._band_rows.get(owner)
        if buf is None:
            tallest = max(r1 - r0 for r0, r1 in self.row_bounds)
            buf = np.zeros((tallest, self.graph.shape[1] + 1), dtype=SCORE_DTYPE)
            self._band_rows[owner] = buf
        return buf[:h]

    def run_tile(self, tile: Tile) -> None:
        band, block = tile.payload
        r0, r1 = self.row_bounds[band]
        c0, c1 = self.col_bounds[block]
        h = r1 - r0
        if h == 0:
            return
        band_rows = self._band_buffer(tile.owner, h)
        if c1 > c0:
            tile_rows = band_rows[:, c0 : c1 + 1]
            self._workspace(block, c0, c1).sw_rows_slice(
                self.boundaries[band, c0 : c1 + 1],
                self.s[r0:r1],
                tile_rows[:, 0],
                out=tile_rows,
            )
            self.boundaries[band + 1, c0 + 1 : c1 + 1] = tile_rows[-1, 1:]
        if block == len(self.col_bounds) - 1:
            # band finished: phase-1 candidate detection over its rows
            finder = StreamingRegionFinder(_region_config(self.graph.params))
            finder.feed_rows(r0 + 1, band_rows)
            found = self._found.setdefault(tile.owner, [])
            for region in finder.finish():
                a = region.as_alignment()
                found.append((a.score, a.s_start, a.s_end, a.t_start, a.t_end))

    def emit(self, owner: int) -> list:
        return self._found.get(owner, [])


class PreprocessRuntime(_BandedRuntime):
    """Section 5 execution: banded chunks feeding the scoreboard."""

    SPAN_NAME = "tile"
    ENGINE_COUNTS_CELLS = True

    def __init__(self, graph, s, t, scoring, state) -> None:
        super().__init__(graph, s, t, scoring, state)
        params = graph.params
        self.threshold = params["threshold"]
        self.ip_result = params["result_interleave"]
        cols = graph.shape[1]
        n_buckets = -(-cols // self.ip_result)
        self.result_matrix = np.zeros((params["n_bands"], n_buckets), dtype=np.int64)

    def run_tile(self, tile: Tile) -> None:
        matrix = self._compute(tile)
        if matrix is None:
            return
        band, block = tile.payload
        c0, c1 = self.col_bounds[block]
        hits_per_col = (matrix[:, 1:] >= self.threshold).sum(axis=0)
        row = self.result_matrix[band]
        for j in range(c1 - c0):
            row[(c0 + j) // self.ip_result] += int(hits_per_col[j])

    def emit(self, owner: int) -> list:
        """``(band, counts)`` rows of the scoreboard this owner filled."""
        bands = sorted({t.payload[0] for t in self.graph.tiles_of(owner)})
        return [(band, self.result_matrix[band].copy()) for band in bands]


def empty_search_stats() -> dict:
    """Zeroed prune accounting, the shape every search emission carries."""
    return {
        "sequences_pruned": 0,
        "cells_skipped": 0,
        "bound_cells": 0,
        "tier_pruned": {},
        "thresholds": [],
    }


def merge_search_stats(acc: dict, part: dict) -> None:
    """Fold one emission's prune accounting into an accumulator in place."""
    acc["sequences_pruned"] += part.get("sequences_pruned", 0)
    acc["cells_skipped"] += part.get("cells_skipped", 0)
    acc["bound_cells"] += part.get("bound_cells", 0)
    for tier, n in part.get("tier_pruned", {}).items():
        acc["tier_pruned"][tier] = acc["tier_pruned"].get(tier, 0) + n
    acc["thresholds"].extend(part.get("thresholds", ()))


class SearchRuntime(PlanRuntime):
    """Database-search execution: one batched bucket scan per tile.

    Deliberately constructible without a graph (``query``, ``blob``,
    ``scoring``, ``top_k``): pool workers receive the blob through a shared
    arena and the tiles through the work queue, never the graph object.

    Untagged payloads (``(offset, width, lanes, lengths, indices)``) scan a
    whole bucket.  Staged payloads carry a leading stage tag (see
    :func:`~repro.plan.planners.plan_search_buckets`): ``seed`` and ``dp``
    tiles scan a lane selection, ``filter`` tiles evaluate the admissible
    bound tiers against the running top-k threshold and store the surviving
    lanes for the dp tile they gate.  ``charged_cells`` after each tile is
    the work *actually done* (DP cells scanned, or residues the bounds
    touched) -- the quantity the simulator bills to its virtual clock.

    With ``n_shards > 1`` (the inline/sim path over a concatenated blob)
    each shard keeps its *own* :class:`TopK` and filter threshold --
    matching what physically-separate shard workers would see -- and
    ``shard_bases`` translates the tiles' shard-local offsets into blob
    positions.  Pool workers instead run one unsharded runtime per worker
    over their shard's private arena (base 0) and the coordinator merges.
    """

    SPAN_NAME = "search_chunk"
    ENGINE_COUNTS_CELLS = True  # MultiSequenceWorkspace counts per bucket

    def __init__(
        self,
        query: np.ndarray,
        blob: np.ndarray,
        scoring: Scoring = DEFAULT_SCORING,
        top_k: int = 10,
        kernel: str = "classic",
        prefilter: tuple[str, ...] = (),
        kmer_k: int = DEFAULT_KMER_K,
        n_shards: int = 1,
        shard_bases: tuple[int, ...] | None = None,
    ) -> None:
        self.query = query
        self.blob = blob
        self.scoring = scoring
        self.kernel = kernel
        self.kind_name = "search"
        self.kernel_name = kernel
        # Lane dtypes are chosen per bucket: int16-when-provably-safe for the
        # classic batch, the int8->int16->int32 escalation for striped.
        self.dtype_name = "auto"
        self.n_shards = n_shards
        self.shard_bases = shard_bases
        self.tops = {s: TopK(top_k) for s in range(n_shards)}
        self.top = self.tops[0]  # unsharded alias (pool workers, tests)
        self.cells = 0  # residues scanned x query length (local accounting)
        self.prefilter = tuple(prefilter)
        self.kmer_k = kmer_k
        self.charged_cells = 0  # actual work of the last tile (sim billing)
        self.stats = empty_search_stats()
        self._filter: TieredFilter | None = None
        self._masks: dict[int, tuple[int, ...]] = {}  # dp tile id -> lanes

    def tile_args(self, tile: Tile) -> dict:
        args = super().tile_args(tile)
        args["shard"] = tile.shard
        if tile.payload and isinstance(tile.payload[0], str):
            args["stage"] = tile.payload[0]
        return args

    def _slot(self, tile: Tile) -> int:
        """The local shard slot a tile lands in.

        An unsharded runtime serving sharded tiles is a pool worker whose
        arena *is* one shard's blob -- everything lands in slot 0 there.
        """
        return tile.shard if self.n_shards > 1 else 0

    def _base(self, shard: int) -> int:
        return self.shard_bases[shard] if self.shard_bases else 0

    def _scan(self, codes, lengths, indices, shard: int = 0) -> None:
        if self.kernel == "striped":
            ws = StripedMultiWorkspace(codes, lengths, self.scoring)
        else:
            ws = MultiSequenceWorkspace(codes, lengths, self.scoring)
        self.tops[shard].push_lanes(ws.sw_best_scores(self.query), indices)

    def _tiered_filter(self) -> TieredFilter:
        if self._filter is None:
            self._filter = TieredFilter(
                self.query, self.scoring, self.prefilter, self.kmer_k
            )
        return self._filter

    def run_tile(self, tile: Tile) -> None:
        payload = tile.payload
        if payload and isinstance(payload[0], str):
            self._run_staged(tile)
            return
        offset, width, lanes, lengths, indices = payload
        slot = self._slot(tile)
        offset += self._base(slot)
        codes = self.blob[offset : offset + lanes * width].reshape(lanes, width)
        lengths = np.asarray(lengths, dtype=np.int64)
        self._scan(codes, lengths, indices, slot)
        self.cells += tile.cells
        self.charged_cells = tile.cells

    def _run_staged(self, tile: Tile) -> None:
        stage = tile.payload[0]
        if stage == "filter":
            _, dp_id, offset, width, lanes, lengths, indices, sel = tile.payload
        else:
            _, offset, width, lanes, lengths, indices, sel = tile.payload
            dp_id = None
        slot = self._slot(tile)
        offset += self._base(slot)
        bucket = self.blob[offset : offset + lanes * width].reshape(lanes, width)
        lengths = np.asarray(lengths, dtype=np.int64)
        if stage == "filter":
            sel_arr = np.asarray(sel, dtype=np.int64)
            threshold = self.tops[slot].threshold()
            keep, tier_pruned, bound_cells = self._tiered_filter().survivors(
                bucket[sel_arr], lengths[sel_arr], threshold
            )
            survivors = tuple(int(lane) for lane in sel_arr[keep])
            self._masks[dp_id] = survivors
            dropped = sel_arr[~keep]
            skipped = int(len(self.query)) * int(lengths[dropped].sum())
            stats = self.stats
            stats["sequences_pruned"] += len(dropped)
            stats["cells_skipped"] += skipped
            stats["bound_cells"] += bound_cells
            for tier, n in tier_pruned.items():
                stats["tier_pruned"][tier] = stats["tier_pruned"].get(tier, 0) + n
            stats["thresholds"].append(float(threshold))
            self.charged_cells = bound_cells
            if is_enabled():
                metrics = get_metrics()
                metrics.counter("sequences_pruned").inc(len(dropped))
                metrics.counter("cells_skipped").inc(skipped)
                for tier, n in tier_pruned.items():
                    metrics.counter(f"prefilter_{tier}_pruned").inc(n)
                if threshold != float("-inf"):
                    metrics.gauge("prefilter_threshold").set(float(threshold))
            return
        lanes_to_run = self._masks.pop(tile.id, sel) if stage == "dp" else sel
        if not lanes_to_run:
            self.charged_cells = 0
            return
        sel_arr = np.asarray(lanes_to_run, dtype=np.int64)
        run_lengths = lengths[sel_arr]
        run_indices = np.asarray(indices, dtype=np.int64)[sel_arr]
        self._scan(bucket[sel_arr], run_lengths, run_indices, slot)
        scanned = int(len(self.query)) * int(run_lengths.sum())
        self.cells += scanned
        self.charged_cells = scanned

    def emit(self, owner: int) -> dict:
        """Picklable partial result: per-shard survivor lists when sharded.

        The unsharded shape (``{"items", "stats"}``) is kept byte-identical
        to what pre-shard pool workers emitted, so worker-side runtimes (one
        per shard, base 0) and old traces keep working.
        """
        if self.n_shards > 1:
            return {
                "shards": {s: top.items() for s, top in self.tops.items()},
                "stats": self.stats,
            }
        return {"items": self.top.items(), "stats": self.stats}


_RUNTIMES = {
    "wavefront": WavefrontRuntime,
    "blocked": BlockedRuntime,
    "preprocess": PreprocessRuntime,
}


def make_runtime(
    graph: TaskGraph,
    s: np.ndarray,
    t: np.ndarray,
    scoring: Scoring = DEFAULT_SCORING,
    state: np.ndarray | None = None,
) -> PlanRuntime:
    """Build the runtime for a graph, allocating private state if none given.

    For search graphs, ``s`` is the encoded query and ``t`` the packed
    database blob (:func:`repro.plan.planners.search_blob`) -- the pair the
    tiles' bucket locators index into.
    """
    if graph.kind == "search":
        return SearchRuntime(
            s,
            t,
            scoring,
            graph.params["top_k"],
            kernel=graph.params.get("kernel", "classic"),
            prefilter=graph.params.get("prefilter", ()),
            kmer_k=graph.params.get("kmer_k", DEFAULT_KMER_K),
            n_shards=graph.n_shards,
            shard_bases=graph.params.get("shard_bases"),
        )
    try:
        cls = _RUNTIMES[graph.kind]
    except KeyError:
        raise ValueError(f"no runtime for plan kind {graph.kind!r}") from None
    if state is None:
        state = np.zeros(state_shape(graph), dtype=SCORE_DTYPE)
    return cls(graph, s, t, scoring, state)


def finalize_plan(
    graph: TaskGraph, parts: list[list], scale: int = 1
) -> ExecutionResult:
    """Merge per-owner emissions into one result (the gather step).

    ``parts`` is one :meth:`PlanRuntime.emit` list per participating owner,
    in any order.  ``scale`` projects region coordinates into nominal units
    before queue finalisation -- the scaled-workload path of the simulated
    backend; real backends always pass 1.
    """
    params = graph.params
    result = ExecutionResult(
        kind=graph.kind,
        n_procs=graph.n_procs,
        n_tiles=len(graph.tiles),
        total_cells=graph.total_cells,
    )
    if graph.kind in ("wavefront", "blocked"):
        queue = AlignmentQueue()
        for part in parts:
            for score, s0, s1, t0, t1 in part:
                queue.push(
                    LocalAlignment(
                        score=score,
                        s_start=s0 * scale,
                        s_end=s1 * scale,
                        t_start=t0 * scale,
                        t_end=t1 * scale,
                    )
                )
        result.alignments = queue.finalize(
            min_score=_admission_score(params),
            overlap_slack=params["overlap_slack"] * scale,
            merge=True,
        )
        if graph.kind == "blocked":
            result.extras = {
                "n_bands": params["n_bands"],
                "n_blocks": params["n_blocks"],
            }
    elif graph.kind == "preprocess":
        cols = graph.shape[1]
        n_buckets = -(-cols // params["result_interleave"])
        matrix = np.zeros((params["n_bands"], n_buckets), dtype=np.int64)
        for part in parts:
            for band, counts in part:
                matrix[band] += np.asarray(counts)
        result.extras = {
            "result_matrix": matrix,
            "band_heights": params["band_heights"],
            "n_bands": params["n_bands"],
            "n_chunks": params["n_chunks"],
        }
    elif graph.kind == "search":
        k = params["top_k"]
        n_shards = graph.n_shards
        shard_tops = {s: TopK(k) for s in range(n_shards)}
        stats = empty_search_stats()
        for part in parts:
            if isinstance(part, dict):
                if "shards" in part:  # sharded runtime emission
                    for s, items in part["shards"].items():
                        shard_tops[int(s)].merge(items)
                else:  # one worker's emission, tagged with its shard (or 0)
                    shard_tops[int(part.get("shard", 0))].merge(part["items"])
                merge_search_stats(stats, part.get("stats", {}))
            else:  # legacy plain-items emission
                shard_tops[0].merge(part)
        top = tournament_merge([shard_tops[s] for s in range(n_shards)], k)
        result.hits = top.ranked()
        result.extras = {"prefilter": stats, "n_shards": n_shards}
    else:
        raise ValueError(f"unknown plan kind {graph.kind!r}")
    return result
