"""The four benchmark workloads and their per-layer readings.

Each workload runs one client in a closed loop over a rotating input set, so
consecutive ops never repeat an input.  Set-up covers generating the data,
writing and parsing the FASTA, packing, pool start and one warm-up op; the
correctness reference is computed afterwards, untimed, through a path the
timed op does not use.

Per-layer numbers come from a separate traced run.  They time calls into
each layer's public functions from this file and read the program's own
``repro.obs`` spans, counters and ``repro.obs.attrib`` stall classes; nothing
here reaches inside a layer.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

import repro.seq as seq_layer
from repro import obs
from repro.core import KernelWorkspace, MultiSequenceWorkspace, StripedMultiWorkspace, TieredFilter
from repro.core.scoring import DEFAULT_SCORING, SCORE_DTYPE
from repro.obs.attrib import attribute, events_of, payload_from_tracer, plan_spans
from repro.parallel import AlignmentWorkerPool, MpBlockedConfig
from repro.plan import InlineExecutor, build_plan, cached_plan, plan_search_buckets
from repro.strategies import (
    SearchConfig,
    resolve_prefilter,
    run_mp_pipeline,
    search_db,
)
from repro.strategies.search import sequential_best_score

from . import inputs
from .harness import child_env, loop_gcups, median, process_hwm_mb, self_hwm_mb

#: Every per-layer metric and its unit.  A metric that does not apply to a
#: workload reads 0 there (see README.md for which apply where).
LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.unattributed_s": "s",
    "seq.parse_s": "s",
    "seq.parse_mbp_per_s": "Mbp/s",
    "seq.pack_s": "s",
    "seq.padded_frac": "ratio",
    "search.call_s": "s",
    "prefilter.ceiling_s": "s",
    "prefilter.pruned_frac": "ratio",
    "prefilter.cells_skipped_frac": "ratio",
    "prefilter.inline_pruned_frac": "ratio",
    "prefilter.inline_search_s": "s",
    "prefilter.overhead_frac": "ratio",
    "plan.build_s": "s",
    "plan.tiles_per_op": "count",
    "plan.cells_per_tile": "count",
    "kernel.search_isolated_gcups": "GCUPS",
    "kernel.pair_isolated_gcups": "GCUPS",
    "kernel.efficiency": "ratio",
    "kernel.cells_per_op": "count",
    "kernel.striped_recomputes": "count",
    "pool.start_s": "s",
    "pool.publish_s": "s",
    "pool.arena_bytes": "bytes",
    "pool.worker_busy_frac": "ratio",
    "pool.worker_wait_s": "s",
    "pool.stall_queue_starvation_s": "s",
    "pool.stall_dependency_wait_s": "s",
    "pool.stall_result_drain_s": "s",
    "align.phase1_s": "s",
    "align.phase2_s": "s",
    "align.regions": "count",
    "obs.trace_overhead_frac": "ratio",
    "layers.coverage": "ratio",
    "host.probe_ms": "ms",
}

#: The program command a ``search-cli`` op spawns (its arguments follow).
CLI_COMMAND = [sys.executable, "-m", "repro.cli"]

#: Coordinator spans that wrap a whole op; coverage counts what lies beneath.
_BLANKET_SPANS = {"search_db", "phase1", "phase2"}
_RANK_LINE = re.compile(r"^\s*(\d+)\s+(-?\d+)\s+(\d+)\s+(\S+)\s*$")


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _union_seconds(spans) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, cursor = 0.0, float("-inf")
    for lo, hi in sorted(spans):
        if hi <= cursor:
            continue
        total += hi - max(lo, cursor)
        cursor = hi
    return total


class _TracedOp:
    """What one traced op left behind: its wall time, spans and counters."""

    def __init__(self, wall: float, tracer, metrics) -> None:
        self.wall = wall
        self.spans = tracer.spans
        self.counters = metrics.snapshot()["counters"]
        self.payload = payload_from_tracer(tracer, metrics)

    def counter(self, name: str) -> float:
        return float(self.counters.get(name, 0))

    def span_seconds(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def coverage(self) -> float:
        """Share of the op's wall time under the program's own layer spans."""
        inner = [
            (s.start, s.end)
            for s in self.spans
            if s.process == "coordinator" and s.name not in _BLANKET_SPANS
        ]
        return _union_seconds(inner) / self.wall if self.wall > 0 else 0.0

    def pool_rows(self, n_workers: int) -> dict[str, float]:
        """Busy share, idle time and stall classes over every plan window."""
        events = events_of(self.payload)
        window = busy = 0.0
        stalls: dict[str, float] = defaultdict(float)
        tiles = cells = 0
        for i, span in enumerate(plan_spans(events)):
            attr = attribute(self.payload, pick=i)
            window += attr.wall_seconds
            busy += attr.busy_seconds
            tiles += attr.tiles_planned
            cells += attr.cells_planned
            for cause, seconds in attr.stall_seconds_by_cause().items():
                stalls[cause] += seconds
        capacity = window * n_workers
        return {
            "pool.worker_busy_frac": busy / capacity if capacity > 0 else 0.0,
            "pool.worker_wait_s": max(0.0, capacity - busy),
            "pool.stall_queue_starvation_s": stalls["queue_starvation"],
            "pool.stall_dependency_wait_s": stalls["dependency_wait"],
            "pool.stall_result_drain_s": stalls["result_drain"],
            "plan.tiles_per_op": float(tiles),
            "plan.cells_per_tile": cells / tiles if tiles else 0.0,
        }


def _median_rows(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: median([r[k] for r in rows]) for k in rows[0]} if rows else {}


def _isolated_search_gcups(packed, query, scoring, kernel: str, rounds: int = 3) -> float:
    """The resolved search kernel over the packed buckets: no plan, no pool."""
    workspace = StripedMultiWorkspace if kernel == "striped" else MultiSequenceWorkspace
    cells = len(query) * packed.total_residues
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for bucket in packed.buckets:
            workspace(bucket.codes, bucket.lengths, scoring).sw_best_scores(query)
        times.append(time.perf_counter() - t0)
    return cells / median(times) / 1e9


def _ceiling_seconds(packed, queries, scoring, tiers) -> float:
    """Time of one full admissible-bound sweep, median over the query set."""
    if not tiers:
        return 0.0
    times = []
    for query in queries:
        t0 = time.perf_counter()
        tiered = TieredFilter(query, scoring, tiers)
        for bucket in packed.buckets:
            tiered.ceilings(bucket.codes, bucket.lengths)
        times.append(time.perf_counter() - t0)
    return median(times)


class Workload:
    """Shared plumbing: seed, worker pool, set-up phase timings."""

    name = ""
    n_workers = 2

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self.pool: AlignmentWorkerPool | None = None
        self.phases: dict[str, list[float]] = defaultdict(list)
        self.traces: list[_TracedOp] = []

    def _phase(self, name: str, fn, *args, **kwargs):
        out, seconds = _timed(fn, *args, **kwargs)
        self.phases[name].append(seconds)
        return out

    def _start_pool(self) -> None:
        self.pool = self._phase("pool_start", AlignmentWorkerPool, n_workers=self.n_workers)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the coordinator plus its live workers."""
        workers = sum(process_hwm_mb(p.pid) for p in multiprocessing.active_children())
        return self_hwm_mb() + workers

    def traced_op(self, i: int):
        obs.enable("coordinator")
        t0 = time.perf_counter()
        try:
            out = self.op(i)
        finally:
            wall = time.perf_counter() - t0
            tracer, metrics = obs.disable()
        self.traces.append(_TracedOp(wall, tracer, metrics))
        return out

    def _traced_rows(self) -> dict[str, float]:
        """Counters, publish time, coverage and pool attribution of the
        traced ops (medians)."""
        row = {
            "kernel.cells_per_op": median([t.counter("cells_computed") for t in self.traces]),
            "kernel.striped_recomputes": median(
                [t.counter("striped_recomputes") for t in self.traces]
            ),
            "pool.publish_s": median([t.span_seconds("shm_publish") for t in self.traces]),
            "pool.arena_bytes": median(
                [t.counter("arena_bytes_published") for t in self.traces]
            ),
            "layers.coverage": median([t.coverage() for t in self.traces]),
        }
        row.update(_median_rows([t.pool_rows(self.n_workers) for t in self.traces]))
        return row

    def _seq_rows(self, residues: int) -> dict[str, float]:
        parse = median(self.phases["parse"])
        return {
            "seq.parse_s": parse,
            "seq.parse_mbp_per_s": residues / parse / 1e6 if parse > 0 else 0.0,
            "seq.pack_s": median(self.phases["pack"]),
            "pool.start_s": median(self.phases["pool_start"]),
        }


class _SearchWorkload(Workload):
    """Query set x FASTA database, searched through ``search_db``."""

    def setup(self, workdir: Path) -> None:
        data = self.make_inputs(self.seed)
        path = workdir / "db.fa"
        seq_layer.write_fasta(path, data.database)
        records = self._phase("parse", lambda: list(seq_layer.stream_fasta(path)))
        self.queries = data.queries
        self.config = SearchConfig(scoring=data.scoring or DEFAULT_SCORING)
        self.packed = self._phase(
            "pack",
            seq_layer.pack_database,
            records,
            max_lanes=self.config.resolved_max_lanes,
            max_waste=self.config.resolved_max_waste,
        )
        self._start_pool()
        self.op(0)

    def reference(self) -> bool:
        """Prefilter-off inline striped scans, spot-checked pairwise."""
        ref_config = replace(self.config, prefilter="off", kernel="striped")
        self.rankings = [
            search_db(q, self.packed, ref_config).scores() for q in self.queries
        ]
        return self._spot_check(self.queries[0], self.rankings[0])

    def _spot_check(self, query, ranking) -> bool:
        """Every top-k score, and a sample of the rest, against one-pair
        ``KernelWorkspace`` scans (``search_db_sequential``'s kernel)."""
        scoring = self.config.scoring
        codes = {}
        for bucket in self.packed.buckets:
            for lane in range(bucket.lanes):
                width = int(bucket.lengths[lane])
                codes[int(bucket.indices[lane])] = bucket.codes[lane, :width]
        for score, index in ranking:
            if sequential_best_score(query, codes[index], scoring) != score:
                return False
        kth_score, kth_index = ranking[-1]
        ranked = {index for _, index in ranking}
        rng = np.random.default_rng(self.seed)
        others = [i for i in sorted(codes) if i not in ranked]
        for index in rng.choice(others, size=min(16, len(others)), replace=False):
            score = sequential_best_score(query, codes[int(index)], scoring)
            if (score, -int(index)) > (kth_score, -kth_index):
                return False
        return True

    def op(self, i: int):
        query = self.queries[i % len(self.queries)]
        return search_db(query, self.packed, self.config, pool=self.pool)

    def check(self, i: int, out) -> bool:
        return out.scores() == self.rankings[i % len(self.rankings)]

    def cells(self, i: int, out) -> int:
        return out.total_cells

    def _tiers(self):
        return resolve_prefilter(self.config.prefilter, self.packed.n_sequences)

    def layers(self, plain, records) -> dict[str, float]:
        packed, config = self.packed, self.config
        iso = _isolated_search_gcups(packed, self.queries[0], config.scoring, config.kernel)
        outs = [out for _, out in records]
        build = [
            _timed(plan_search_buckets, packed, len(q), top_k=config.top_k, kernel=config.kernel)[1]
            for q in self.queries
        ]
        return {
            **self._seq_rows(packed.total_residues),
            "seq.padded_frac": 1.0 - packed.total_residues / packed.padded_slots,
            "search.call_s": median(plain.latencies),
            "prefilter.ceiling_s": _ceiling_seconds(
                packed, self.queries, config.scoring, self._tiers()
            ),
            "prefilter.pruned_frac": median([o.pruned_fraction for o in outs]),
            "prefilter.cells_skipped_frac": median(
                [o.cells_skipped / o.total_cells for o in outs]
            ),
            "plan.build_s": median(build),
            "kernel.search_isolated_gcups": iso,
            "kernel.efficiency": loop_gcups(plain) / (iso * self.n_workers) if iso > 0 else 0.0,
            **self._traced_rows(),
        }


class SearchScan(_SearchWorkload):
    """Warm pool, default ``SearchConfig``, a database no bound can prune."""

    name = "search-scan"
    make_inputs = staticmethod(inputs.scan_inputs)

    #: Alternating pairs of ops with ``prefilter`` on its default and off.
    OVERHEAD_PAIRS = 8

    def layers(self, plain, records) -> dict[str, float]:
        row = super().layers(plain, records)
        off = replace(self.config, prefilter="off")
        on_times, off_times = [], []
        for i in range(self.OVERHEAD_PAIRS):
            query = self.queries[i % len(self.queries)]
            for config, times in ((self.config, on_times), (off, off_times)):
                result, seconds = _timed(search_db, query, self.packed, config, pool=self.pool)
                if result.scores() != self.rankings[i % len(self.rankings)]:
                    raise AssertionError("prefilter-off pool scan diverged from the reference")
                times.append(seconds)
        row["prefilter.overhead_frac"] = median(on_times) / median(off_times) - 1.0
        return row


class SearchHomolog(_SearchWorkload):
    """Warm pool over a planted-homolog database the bounds mostly prune."""

    name = "search-homolog"
    make_inputs = staticmethod(inputs.homolog_inputs)

    def layers(self, plain, records) -> dict[str, float]:
        row = super().layers(plain, records)
        # The same query inline: today's inline/pool pruning gap, with the
        # ranking checked against the same reference.
        inline, seconds = _timed(search_db, self.queries[0], self.packed, self.config)
        if inline.scores() != self.rankings[0]:
            raise AssertionError("inline pruned search diverged from the reference")
        row["prefilter.inline_pruned_frac"] = inline.pruned_fraction
        row["prefilter.inline_search_s"] = seconds
        return row


class SearchCli(_SearchWorkload):
    """One fresh ``repro search q.fa db.fa`` process per op, default flags."""

    name = "search-cli"
    n_workers = 1
    make_inputs = staticmethod(inputs.cli_inputs)

    #: ``import`` probes in the traced run (interpreter start excluded).
    IMPORT_PROBES = 8
    _IMPORTS = "import repro.cli, repro.obs, repro.seq, repro.strategies"

    def setup(self, workdir: Path) -> None:
        data = self.make_inputs(self.seed)
        self.workdir = workdir
        self.db_path = workdir / "db.fa"
        self.query_paths = [workdir / f"q{k}.fa" for k in range(len(data.queries))]

        seq_layer.write_fasta(self.db_path, data.database)
        for k, (path, query) in enumerate(zip(self.query_paths, data.queries)):
            seq_layer.write_fasta(path, [(f"query{k}", query)])

        def parse():
            # What one op parses: its query file and the database.
            query = seq_layer.read_fasta(self.query_paths[0])[0].codes
            return query, list(seq_layer.stream_fasta(self.db_path))

        first, records = self._phase("parse", parse)
        self.queries = [first] + [
            seq_layer.read_fasta(path)[0].codes for path in self.query_paths[1:]
        ]
        self.config = SearchConfig()
        self.packed = self._phase(
            "pack",
            seq_layer.pack_database,
            records,
            max_lanes=self.config.resolved_max_lanes,
            max_waste=self.config.resolved_max_waste,
        )
        self.child_rss_mb = 0.0
        self.op(0)

    def reference(self) -> bool:
        if not super().reference():
            return False
        names, lengths = self.packed.names, self.packed.lengths
        self.lines = [
            [
                (rank, score, int(lengths[index]), names[index])
                for rank, (score, index) in enumerate(ranking, 1)
            ]
            for ranking in self.rankings
        ]
        return True

    def _spawn(self, argv: list[str]) -> str:
        """Run one program process to exit; returns its standard output."""
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=child_env(self.root),
            cwd=self.root,
            text=True,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_mb = max(self.child_rss_mb, usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[-2:]} exited with {proc.returncode}")
        return out

    def _argv(self, i: int) -> list[str]:
        query = self.query_paths[i % len(self.query_paths)]
        return [*CLI_COMMAND, "search", str(query), str(self.db_path)]

    def op(self, i: int):
        return self._spawn(self._argv(i))

    def traced_op(self, i: int):
        return self._spawn([*self._argv(i), "--trace", str(self.workdir / "trace.json")])

    def check(self, i: int, out) -> bool:
        ranking = []
        for line in out.splitlines():
            match = _RANK_LINE.match(line)
            if match:
                rank, score, length, name = match.groups()
                ranking.append((int(rank), int(score), int(length), name))
        return ranking == self.lines[i % len(self.lines)]

    def cells(self, i: int, out) -> int:
        return len(self.queries[i % len(self.queries)]) * self.packed.total_residues

    def peak_rss_mb(self) -> float:
        return self.child_rss_mb

    def _import_seconds(self) -> float:
        code = f"import time; t0 = time.perf_counter(); {self._IMPORTS}; print(time.perf_counter() - t0)"
        return median(
            [float(self._spawn([sys.executable, "-c", code])) for _ in range(self.IMPORT_PROBES)]
        )

    def layers(self, plain, records) -> dict[str, float]:
        packed, config = self.packed, self.config
        tiers = self._tiers()
        results, calls, builds, counted = [], [], [], []
        for k, query in enumerate(self.queries):
            obs.enable("coordinator")
            try:
                result, seconds = _timed(search_db, query, packed, config)
            finally:
                _, metrics = obs.disable()
            if result.scores() != self.rankings[k]:
                raise AssertionError("in-process inline search diverged from the reference")
            results.append(result)
            calls.append(seconds)
            counted.append(metrics.counter("cells_computed").value)
            graph, build = _timed(
                plan_search_buckets, packed, len(query), top_k=config.top_k,
                kernel=config.kernel, prefilter=tiers,
            )
            builds.append(build)
        iso = _isolated_search_gcups(packed, self.queries[0], config.scoring, config.kernel)
        op_p50 = median(plain.latencies)
        import_s = self._import_seconds()
        seq_rows = self._seq_rows(packed.total_residues)
        attributed = import_s + seq_rows["seq.parse_s"] + seq_rows["seq.pack_s"] + median(calls)
        return {
            **seq_rows,
            "pool.start_s": 0.0,
            "cli.import_s": import_s,
            "cli.unattributed_s": op_p50 - attributed,
            "seq.padded_frac": 1.0 - packed.total_residues / packed.padded_slots,
            "search.call_s": median(calls),
            "prefilter.ceiling_s": _ceiling_seconds(packed, self.queries, config.scoring, tiers),
            "prefilter.pruned_frac": median([r.pruned_fraction for r in results]),
            "prefilter.cells_skipped_frac": median(
                [r.cells_skipped / r.total_cells for r in results]
            ),
            "plan.build_s": median(builds),
            "plan.tiles_per_op": float(len(graph.tiles)),
            "plan.cells_per_tile": graph.total_cells / len(graph.tiles) if graph.tiles else 0.0,
            "kernel.search_isolated_gcups": iso,
            "kernel.efficiency": loop_gcups(plain) / iso if iso > 0 else 0.0,
            "kernel.cells_per_op": median(counted),
            "layers.coverage": attributed / op_p50 if op_p50 > 0 else 0.0,
        }


class AlignPool(Workload):
    """Warm pool, ``run_mp_pipeline(backend="blocked")`` over rotating pairs."""

    name = "align-pool"

    def setup(self, workdir: Path) -> None:
        pairs = inputs.align_inputs(self.seed)
        paths = [workdir / f"pair{k}.fa" for k in range(len(pairs))]
        for path, pair in zip(paths, pairs):
            seq_layer.write_fasta(path, [("s", pair.s), ("t", pair.t)])

        def parse():
            return [
                tuple(rec.codes for rec in seq_layer.read_fasta(path)) for path in paths
            ]

        self.pairs = self._phase("parse", parse)
        self.planted = [pair.regions for pair in pairs]
        self._start_pool()
        self.op(0)

    @staticmethod
    def _regions(alignments) -> list[tuple]:
        return sorted((r.score, r.s_start, r.s_end, r.t_start, r.t_end) for r in alignments)

    def reference(self) -> bool:
        """The inline executor on the same spec graph; every planted region
        must overlap a detected one."""
        spec = MpBlockedConfig(n_workers=self.n_workers).spec()
        self.expected = []
        ok = True
        for (s, t), planted in zip(self.pairs, self.planted):
            graph = cached_plan(spec, len(s), len(t))
            regions = self._regions(InlineExecutor().run(graph, s, t).alignments)
            self.expected.append(regions)
            for p in planted:
                ok &= any(
                    r[1] < p.s_end and p.s_start < r[2] and r[3] < p.t_end and p.t_start < r[4]
                    for r in regions
                )
        return ok

    def op(self, i: int):
        s, t = self.pairs[i % len(self.pairs)]
        return run_mp_pipeline(s, t, backend="blocked", pool=self.pool)

    def check(self, i: int, out) -> bool:
        expected = self.expected[i % len(self.expected)]
        alignable = sum(1 for r in expected if r[2] > r[1] and r[4] > r[3])
        return self._regions(out.regions) == expected and len(out.records) == alignable

    def cells(self, i: int, out) -> int:
        s, t = self.pairs[i % len(self.pairs)]
        phase2 = sum((r.s_end - r.s_start) * (r.t_end - r.t_start) for r in out.regions)
        return len(s) * len(t) + phase2

    def layers(self, plain, records) -> dict[str, float]:
        spec = MpBlockedConfig(n_workers=self.n_workers).spec()
        builds = [_timed(build_plan, spec, len(s), len(t))[1] for s, t in self.pairs]
        iso = [_pair_isolated_gcups(s, t) for s, t in self.pairs]
        outs = [out for _, out in records]
        pair_iso = median(iso)
        residues = sum(len(s) + len(t) for s, t in self.pairs)
        efficiency = loop_gcups(plain) / (pair_iso * self.n_workers) if pair_iso > 0 else 0.0
        return {
            **self._seq_rows(residues),
            **self._traced_rows(),
            "plan.build_s": median(builds),
            "kernel.pair_isolated_gcups": pair_iso,
            "kernel.efficiency": efficiency,
            "align.phase1_s": median([o.phase1_seconds for o in outs]),
            "align.phase2_s": median([o.phase2_seconds for o in outs]),
            "align.regions": float(sum(len(r) for r in self.expected)),
        }


def _pair_isolated_gcups(s, t) -> float:
    """Whole-row ``KernelWorkspace`` scan of one pair: the pairwise kernel's
    own rate, with no tiles, handshakes or region detection."""
    ws = KernelWorkspace(t, DEFAULT_SCORING)
    prev = np.zeros(len(t) + 1, dtype=SCORE_DTYPE)
    t0 = time.perf_counter()
    for ch in s:
        prev = ws.sw_row(prev, int(ch), out=prev)
    return len(s) * len(t) / (time.perf_counter() - t0) / 1e9


WORKLOADS = {w.name: w for w in (SearchScan, SearchHomolog, SearchCli, AlignPool)}
