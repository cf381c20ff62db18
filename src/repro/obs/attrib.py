"""Plan-aware performance attribution: join a trace against its task graph.

A traced run (``repro align --trace`` / ``repro search --trace``) leaves two
kinds of evidence in the Chrome-trace file: every executed tile is stamped
with ``(tile, owner, kind, cells, kernel, dtype)`` span args, and the
``plan:{kind}`` coordination span carries the graph's accounting -- total
cells, critical-path cells and, for statically planned kinds, the embedded
:class:`~repro.plan.planners.PlanSpec` that deterministically rebuilds the
exact dependency structure.  This module performs the join:

* **Critical path** -- the achieved critical path is the heaviest-duration
  dependency chain through the *measured* tile durations; the theoretical
  one is ``critical_path_cells`` replayed at the run's measured cell
  throughput.  The gap between wall time and the achieved chain is
  coordination overhead; the gap between achieved and theoretical is
  schedule skew.
* **Utilization** -- per-worker busy/communication seconds over the plan
  span's window.
* **Stalls** -- idle gaps on each worker's tile timeline, classified by
  cause: ``dependency_wait`` (overlaps a ``tile_wait`` poll),
  ``arena_publish`` (overlaps an ``shm_publish``), ``result_drain`` (the
  trailing gap before the plan span closes), ``queue_starvation`` (interior
  gap of a dynamic search job), ``other``.

Everything here reads the *exported* trace payload (``traceEvents`` +
optional ``reproMetrics``), so the same analysis runs on a file from last
week or on a live tracer via :func:`payload_from_tracer`.  The plan package
is imported lazily (it imports :mod:`repro.obs` at module level).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any

from .metrics import safe_rate

#: Idle gaps shorter than this (seconds) are scheduling noise, not stalls.
MIN_STALL_SECONDS = 1e-4

#: Every cause :func:`attribute` can assign to a stall interval.
STALL_CAUSES = (
    "dependency_wait",
    "arena_publish",
    "queue_starvation",
    "result_drain",
    "other",
)


@dataclass(frozen=True)
class Event:
    """One normalised trace event (seconds since the trace origin)."""

    name: str
    cat: str
    process: str
    start: float
    dur: float
    args: dict

    @property
    def end(self) -> float:
        return self.start + self.dur


def load_payload(path: str | os.PathLike[str]) -> dict:
    """Read a Chrome-trace JSON file written by ``Tracer.write_chrome_trace``."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError(f"{path}: not a Chrome-trace payload (no traceEvents)")
    return payload


def payload_from_tracer(tracer: Any, metrics: Any = None) -> dict:
    """The same payload shape ``write_chrome_trace`` produces, in memory."""
    payload: dict = {"traceEvents": tracer.to_chrome_trace()}
    if metrics is not None:
        payload["reproMetrics"] = metrics.snapshot()
    return payload


def events_of(payload: dict) -> list[Event]:
    """Normalise ``traceEvents`` (µs, args.process) into sorted :class:`Event` s."""
    out: list[Event] = []
    for raw in payload.get("traceEvents", []):
        if not isinstance(raw, dict) or raw.get("ph") != "X":
            continue
        args = dict(raw.get("args", {}))
        process = str(args.pop("process", "") or f"pid{raw.get('pid', 0)}")
        out.append(
            Event(
                name=str(raw.get("name", "")),
                cat=str(raw.get("cat", "")),
                process=process,
                start=float(raw.get("ts", 0.0)) / 1e6,
                dur=float(raw.get("dur", 0.0)) / 1e6,
                args=args,
            )
        )
    out.sort(key=lambda e: (e.start, -e.dur))
    return out


# --------------------------------------------------------------------------
# Plan-span discovery
# --------------------------------------------------------------------------


def plan_spans(events: list[Event]) -> list[Event]:
    """Top-level ``plan:{kind}`` coordination spans, outermost copy only.

    A :class:`~repro.plan.executors.PoolExecutor` wraps
    ``pool.run_plan`` -- which stamps its own span for the direct
    ``pool.wavefront`` path -- so a pool-backend trace holds two nested
    copies of the same plan span.  Time containment keeps the outer one.
    """
    spans = [
        e
        for e in events
        if e.name.startswith("plan:") and e.cat == "coordination" and "cells" in e.args
    ]
    kept: list[Event] = []
    eps = 1e-9
    for e in spans:  # sorted by (start, -dur): outer copies come first
        if any(k.start - eps <= e.start and e.end <= k.end + eps for k in kept):
            continue
        kept.append(e)
    return kept


def pick_plan(events: list[Event], pick: int | None = None) -> Event:
    """Select the plan span to attribute: by index, or the largest by cells."""
    spans = plan_spans(events)
    if not spans:
        raise ValueError("trace holds no plan:{kind} coordination span")
    if pick is not None:
        return spans[pick]
    return max(spans, key=lambda e: float(e.args.get("cells", 0)))


def span_digest(span: Event) -> str:
    """Stable digest of the plan identity (spec if present, else shape)."""
    ident = {
        "kind": span.args.get("kind"),
        "spec_kind": span.args.get("spec_kind"),
        "spec_params": span.args.get("spec_params"),
        "rows": span.args.get("rows"),
        "cols": span.args.get("cols"),
        "n_procs": span.args.get("n_procs"),
    }
    blob = json.dumps(ident, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def rebuild_graph(span: Event) -> Any:
    """Rebuild the exact :class:`~repro.plan.ir.TaskGraph` from span args.

    Returns ``None`` for graphs without a rebuildable spec (the search
    plan): those have no edges, so attribution degrades gracefully to the
    heaviest single tile.
    """
    args = span.args
    if "spec_kind" not in args or "rows" not in args:
        return None
    from ..plan.planners import PlanSpec, build_plan  # lazy: plan imports obs

    params = tuple(sorted((str(k), v) for k, v in dict(args["spec_params"]).items()))
    spec = PlanSpec(str(args["spec_kind"]), params)
    return build_plan(spec, int(args["rows"]), int(args["cols"]))


def tile_events(events: list[Event], span: Event) -> list[Event]:
    """Per-tile computation slices inside the plan span's time window."""
    lo, hi = span.start - 1e-9, span.end + 1e-9
    return [
        e
        for e in events
        if e.cat == "computation" and "tile" in e.args and lo <= e.start and e.end <= hi
    ]


# --------------------------------------------------------------------------
# Attribution
# --------------------------------------------------------------------------


@dataclass
class WorkerRow:
    """One worker's share of the plan window."""

    process: str
    tiles: int
    busy_seconds: float
    comm_seconds: float
    util_pct: float


@dataclass
class ShardRow:
    """One shard's share of a sharded search window.

    Aggregated from the ``shard`` arg the search runtime stamps on every
    tile span, so the rows survive in exported traces and the run ledger
    without needing the graph back.
    """

    shard: int
    tiles: int
    busy_seconds: float
    cells: int
    util_pct: float


@dataclass
class Stall:
    """One classified idle interval of one worker (window-relative start)."""

    process: str
    start: float
    seconds: float
    cause: str


@dataclass
class Attribution:
    """Everything the critical-path/stall analysis derived from one plan run."""

    kind: str
    backend: str
    wall_seconds: float
    busy_seconds: float
    cells_traced: int
    cells_planned: int
    tiles_traced: int
    tiles_planned: int
    critical_path_cells: int
    achieved_critical_seconds: float
    theoretical_critical_seconds: float
    measured_gcups: float
    spec_digest: str
    workers: list[WorkerRow] = field(default_factory=list)
    shards: list[ShardRow] = field(default_factory=list)
    stalls: list[Stall] = field(default_factory=list)
    #: Host cost model vs the measured tiles, per tile kind (see
    #: :func:`repro.plan.hostcost.prediction_report`); empty without a graph.
    host_cost: dict = field(default_factory=dict)

    @property
    def critical_path_pct(self) -> float:
        """Share of wall time spent on the achieved critical chain."""
        return 100.0 * safe_rate(self.achieved_critical_seconds, self.wall_seconds)

    def stall_seconds_by_cause(self) -> dict[str, float]:
        out = {cause: 0.0 for cause in STALL_CAUSES}
        for stall in self.stalls:
            out[stall.cause] = out.get(stall.cause, 0.0) + stall.seconds
        return out

    def summary(self, top_stalls: int = 5) -> dict:
        """JSON-safe snapshot (what the run ledger persists)."""
        return {
            "kind": self.kind,
            "backend": self.backend,
            "spec_digest": self.spec_digest,
            "wall_seconds": self.wall_seconds,
            "busy_seconds": self.busy_seconds,
            "cells_traced": self.cells_traced,
            "cells_planned": self.cells_planned,
            "tiles_traced": self.tiles_traced,
            "tiles_planned": self.tiles_planned,
            "critical_path_cells": self.critical_path_cells,
            "achieved_critical_seconds": self.achieved_critical_seconds,
            "theoretical_critical_seconds": self.theoretical_critical_seconds,
            "critical_path_pct": self.critical_path_pct,
            "measured_gcups": self.measured_gcups,
            "workers": [
                {
                    "process": w.process,
                    "tiles": w.tiles,
                    "busy_seconds": w.busy_seconds,
                    "comm_seconds": w.comm_seconds,
                    "util_pct": w.util_pct,
                }
                for w in self.workers
            ],
            "shards": [
                {
                    "shard": s.shard,
                    "tiles": s.tiles,
                    "busy_seconds": s.busy_seconds,
                    "cells": s.cells,
                    "util_pct": s.util_pct,
                }
                for s in self.shards
            ],
            "stall_seconds_by_cause": self.stall_seconds_by_cause(),
            "host_cost": self.host_cost,
            "top_stalls": [
                {
                    "process": s.process,
                    "start": s.start,
                    "seconds": s.seconds,
                    "cause": s.cause,
                }
                for s in sorted(self.stalls, key=lambda s: -s.seconds)[:top_stalls]
            ],
        }

    def render(self, top_stalls: int = 5) -> str:
        """Human-readable report (the ``repro obs critical-path`` output)."""
        lines = [
            f"plan:{self.kind}  backend={self.backend}  "
            f"workers={len(self.workers)}  tiles={self.tiles_traced}/{self.tiles_planned}",
            f"  wall            {self.wall_seconds:>10.4f} s  (plan coordination span)",
            f"  busy            {self.busy_seconds:>10.4f} s  "
            f"across workers  ({self.measured_gcups:.3f} GCUPS)",
            f"  cells           {self.cells_traced:,} traced / "
            f"{self.cells_planned:,} planned",
            f"  critical path   {self.achieved_critical_seconds:>10.4f} s achieved"
            f"  vs {self.theoretical_critical_seconds:.4f} s theoretical"
            f"  ({self.critical_path_cells:,} cells)",
            f"  on-chain        {self.critical_path_pct:>9.1f} %  of wall time",
            "  workers:",
        ]
        for w in self.workers:
            lines.append(
                f"    {w.process:<16} tiles={w.tiles:<6} busy={w.busy_seconds:.4f} s"
                f"  comm={w.comm_seconds:.4f} s  util={w.util_pct:5.1f} %"
            )
        if len(self.shards) > 1:
            lines.append("  shards:")
            for s in self.shards:
                lines.append(
                    f"    shard {s.shard:<11} tiles={s.tiles:<6} "
                    f"busy={s.busy_seconds:.4f} s  cells={s.cells:,}  "
                    f"util={s.util_pct:5.1f} %"
                )
        if self.host_cost:
            lines.append("  host cost model (predicted vs measured tile seconds):")
            for kind, row in self.host_cost.items():
                lines.append(
                    f"    {kind:<16} tiles={row['tiles']:<6} "
                    f"predicted={row['predicted_seconds']:.4f} s  "
                    f"measured={row['measured_seconds']:.4f} s  "
                    f"median rel error={100.0 * row['median_rel_error']:.1f} %"
                )
        shown = sorted(self.stalls, key=lambda s: -s.seconds)[:top_stalls]
        lines.append(f"  stalls (top {len(shown)} of {len(self.stalls)}):")
        if not shown:
            lines.append("    none above threshold")
        for s in shown:
            lines.append(
                f"    {s.process:<16} +{s.start:.4f} s  {s.seconds:.4f} s  {s.cause}"
            )
        return "\n".join(lines)


def _overlaps(lo: float, hi: float, spans: list[Event]) -> bool:
    return any(e.start < hi and e.end > lo for e in spans)


def _classify(
    lo: float,
    hi: float,
    *,
    kind: str,
    trailing: bool,
    waits: list[Event],
    publishes: list[Event],
) -> str:
    if _overlaps(lo, hi, waits):
        return "dependency_wait"
    if _overlaps(lo, hi, publishes):
        return "arena_publish"
    if trailing:
        return "result_drain"
    if kind == "search":
        return "queue_starvation"
    return "other"


def attribute(
    payload: dict,
    *,
    pick: int | None = None,
    min_stall: float = MIN_STALL_SECONDS,
) -> Attribution:
    """Join one plan span of a trace against its task graph.

    ``pick`` selects among multiple plan spans (trace order); the default
    takes the one covering the most cells.  Idle gaps shorter than
    ``min_stall`` seconds are dropped.
    """
    events = events_of(payload)
    span = pick_plan(events, pick)
    kind = str(span.args.get("kind", span.name.split(":", 1)[-1]))
    graph = rebuild_graph(span)
    tiles = tile_events(events, span)

    durations: dict[int, float] = {}
    for e in tiles:
        tid = int(e.args["tile"])
        durations[tid] = durations.get(tid, 0.0) + e.dur
    busy = sum(e.dur for e in tiles)
    cells_traced = sum(int(e.args.get("cells", 0)) for e in tiles)
    cells_planned = int(span.args.get("cells", 0))
    cp_cells = int(span.args.get("critical_path_cells", 0))

    host_cost: dict = {}
    if graph is not None:
        from ..plan.hostcost import graph_samples, prediction_report

        host_cost = prediction_report(graph_samples(graph, tiles))
        best: list[float] = []
        for tile in graph.tiles:
            here = durations.get(tile.id, 0.0) + max(
                (best[d] for d in tile.deps), default=0.0
            )
            best.append(here)
        achieved = max(best, default=0.0)
    else:
        # No edges (search): the chain is the heaviest single tile.
        achieved = max(durations.values(), default=0.0)

    rate = safe_rate(cells_traced, busy)  # cells/second at measured throughput
    theoretical = cp_cells / rate if rate > 0.0 else 0.0
    gcups = rate / 1e9

    window = span.dur
    by_shard: dict[int, list[Event]] = {}
    for e in tiles:
        if "shard" in e.args:
            by_shard.setdefault(int(e.args["shard"]), []).append(e)
    shard_rows = [
        ShardRow(
            shard=s,
            tiles=len(mine),
            busy_seconds=sum(e.dur for e in mine),
            cells=sum(int(e.args.get("cells", 0)) for e in mine),
            util_pct=100.0 * safe_rate(sum(e.dur for e in mine), window),
        )
        for s, mine in sorted(by_shard.items())
    ]
    workers: list[WorkerRow] = []
    stalls: list[Stall] = []
    by_process: dict[str, list[Event]] = {}
    for e in tiles:
        by_process.setdefault(e.process, []).append(e)
    lo_w, hi_w = span.start, span.end
    publishes = [
        e for e in events if e.name == "shm_publish" and e.start < hi_w and e.end > lo_w
    ]
    for process in sorted(by_process):
        mine = sorted(by_process[process], key=lambda e: e.start)
        busy_p = sum(e.dur for e in mine)
        comm_p = sum(
            e.dur
            for e in events
            if e.process == process
            and e.cat == "communication"
            and lo_w - 1e-9 <= e.start
            and e.end <= hi_w + 1e-9
        )
        workers.append(
            WorkerRow(
                process=process,
                tiles=len(mine),
                busy_seconds=busy_p,
                comm_seconds=comm_p,
                util_pct=100.0 * safe_rate(busy_p, window),
            )
        )
        waits = [
            e for e in events if e.process == process and e.name == "tile_wait"
        ]
        # Gaps: window start -> first tile, between tiles, last tile -> end.
        edges: list[tuple[float, float, bool]] = []
        cursor = lo_w
        for e in mine:
            if e.start > cursor:
                edges.append((cursor, e.start, False))
            cursor = max(cursor, e.end)
        if hi_w > cursor:
            edges.append((cursor, hi_w, True))
        for g_lo, g_hi, trailing in edges:
            if g_hi - g_lo < min_stall:
                continue
            stalls.append(
                Stall(
                    process=process,
                    start=g_lo - lo_w,
                    seconds=g_hi - g_lo,
                    cause=_classify(
                        g_lo,
                        g_hi,
                        kind=kind,
                        trailing=trailing,
                        waits=waits,
                        publishes=publishes,
                    ),
                )
            )

    return Attribution(
        kind=kind,
        backend=str(span.args.get("backend", "")),
        wall_seconds=window,
        busy_seconds=busy,
        cells_traced=cells_traced,
        cells_planned=cells_planned,
        tiles_traced=len(durations),
        tiles_planned=int(span.args.get("tiles", 0)),
        critical_path_cells=cp_cells,
        achieved_critical_seconds=achieved,
        theoretical_critical_seconds=theoretical,
        measured_gcups=gcups,
        spec_digest=span_digest(span),
        workers=workers,
        shards=shard_rows,
        stalls=stalls,
        host_cost=host_cost,
    )


# --------------------------------------------------------------------------
# Gantt rendering
# --------------------------------------------------------------------------

_SHADE = ("·", "░", "▒", "▓", "█")


def render_gantt(payload: dict, width: int = 80, pick: int | None = None) -> str:
    """ASCII Gantt chart of one plan window, one row per process.

    Column shade encodes the computation coverage of that time slice
    (``·`` idle through ``█`` fully busy); ``~`` marks slices spent purely
    in communication (waits, shm traffic).
    """
    events = events_of(payload)
    span = pick_plan(events, pick)
    lo, hi = span.start, span.end
    window = hi - lo
    if window <= 0.0 or width <= 0:
        return "(empty plan window)"
    inside = [e for e in events if e.start < hi and e.end > lo and e.dur > 0.0]
    processes = sorted({e.process for e in inside})
    col = window / width
    label_w = max((len(p) for p in processes), default=0)
    lines = [
        f"plan:{span.args.get('kind', '?')}  window={window:.4f} s  "
        f"({col * 1e3:.3f} ms/column)"
    ]
    for process in processes:
        comp = [e for e in inside if e.process == process and e.cat == "computation"]
        comm = [e for e in inside if e.process == process and e.cat == "communication"]
        row = []
        for i in range(width):
            c_lo, c_hi = lo + i * col, lo + (i + 1) * col
            covered = sum(
                max(0.0, min(c_hi, e.end) - max(c_lo, e.start)) for e in comp
            )
            frac = covered / col
            if frac > 0.0:
                row.append(_SHADE[min(4, 1 + int(frac * 3.999))])
            elif _overlaps(c_lo, c_hi, comm):
                row.append("~")
            else:
                row.append(_SHADE[0])
        lines.append(f"{process:>{label_w}} |{''.join(row)}|")
    lines.append(
        f"{'':>{label_w}}  {'█ busy':<10} ░▒▓ partial   ~ communication   · idle"
    )
    return "\n".join(lines)
