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
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Iterator

import numpy as np

from .partition import split_even

#: Widest candidate block count the geometry search considers; beyond it
#: the per-row dispatch cost only grows.
MAX_BLOCKS = 16


@dataclass(frozen=True)
class HostCost:
    """Seconds per DP cell and per slice-row kernel dispatch."""

    cell_seconds: float
    dispatch_seconds: float

    def tile_seconds(self, rows: int, cells: int) -> float:
        """Predicted seconds of one tile of ``rows`` slice rows."""
        return rows * self.dispatch_seconds + cells * self.cell_seconds

    @classmethod
    def fit(cls, payload: dict) -> "HostCost":
        """Least-squares fit from the tile spans of a traced run.

        Every plan span with a rebuildable graph contributes its tiles:
        :mod:`repro.obs.attrib` joins each tile span to its graph tile,
        which gives the tile's slice rows and cells.  Residuals are taken
        relative to each tile's measured seconds, so small edge tiles weigh
        as much as wide ones.
        """
        samples = tile_samples(payload)
        if len(samples) < 2:
            raise ValueError("need at least two traced tiles to fit a host cost")
        rows = np.array([s[1] for s in samples], dtype=np.float64)
        cells = np.array([s[2] for s in samples], dtype=np.float64)
        seconds = np.array([s[3] for s in samples], dtype=np.float64)
        design = np.stack([cells, rows], axis=1) / seconds[:, None]
        coef, *_ = np.linalg.lstsq(design, np.ones_like(seconds), rcond=None)
        if coef[0] <= 0 or coef[1] <= 0:
            # Degenerate sample (one width only): charge everything per cell.
            return cls(float(seconds.sum() / cells.sum()), 0.0)
        return cls(float(coef[0]), float(coef[1]))


#: Fitted with :meth:`HostCost.fit` on traced ``align-pool`` runs (2 warm
#: workers, 4.7-5.3 kbp pairs, 1..8 uniform blocks) on a 2-core x86-64 VM.
HOST_COST = HostCost(cell_seconds=9.0e-9, dispatch_seconds=9.6e-6)


def tile_rows(graph, tile) -> int:
    """Slice rows one tile dispatches (the model's per-dispatch count)."""
    if graph.kind in ("blocked", "preprocess"):
        r0, r1 = graph.params["row_bounds"][tile.payload[0]]
        return r1 - r0
    if graph.kind == "wavefront":
        lo, hi = tile.payload[0], tile.payload[1]
        return hi - lo
    raise ValueError(f"no slice-row count for plan kind {graph.kind!r}")


def tile_samples(payload: dict) -> list[tuple[str, int, int, float]]:
    """``(kind, rows, cells, seconds)`` per traced tile of every plan span.

    Only plan spans whose graph can be rebuilt from the trace contribute
    (the search plan has no slice rows); empty tiles are skipped.
    """
    from ..obs import attrib  # lazy: keeps attribution off the planner import path

    events = attrib.events_of(payload)
    out: list[tuple[str, int, int, float]] = []
    for span in attrib.plan_spans(events):
        graph = attrib.rebuild_graph(span)
        if graph is not None:
            out.extend(graph_samples(graph, attrib.tile_events(events, span)))
    return out


def graph_samples(graph, tile_events) -> list[tuple[str, int, int, float]]:
    """``(kind, rows, cells, seconds)`` of one plan's traced tile spans."""
    out = []
    for e in tile_events:
        tile = graph.tiles[int(e.args["tile"])]
        if tile.cells and e.dur > 0:
            out.append((graph.kind, tile_rows(graph, tile), tile.cells, e.dur))
    return out


def prediction_report(
    samples: list[tuple[str, int, int, float]], cost: HostCost = HOST_COST
) -> dict[str, dict[str, float]]:
    """Per tile kind: measured vs predicted seconds and median relative error."""
    by_kind: dict[str, list[tuple[float, float]]] = {}
    for kind, rows, cells, seconds in samples:
        by_kind.setdefault(kind, []).append((seconds, cost.tile_seconds(rows, cells)))
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
