"""Host cost model and the blocked plan's host-chosen column geometry.

Regions are detected per band, so the column bounds of a blocked plan must
not change them: every ``n_blocks`` value, the host-chosen bounds and
explicit uneven bounds all give identical ordered region lists, inline and on the
pool.  The simulator keeps the paper's geometry.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.obs.attrib import attribute, payload_from_tracer
from repro.parallel import AlignmentWorkerPool, MpBlockedConfig
from repro.plan import InlineExecutor, blocked_spec, build_plan, cached_plan
from repro.plan.hostcost import (
    HOST_COST,
    HostCost,
    blocked_makespan,
    candidate_col_bounds,
    host_col_bounds,
    prediction_report,
    tile_samples,
)
from repro.plan.planners import _banded_tiles
from repro.plan.verify import verify_graph
from repro.seq import genome_pair
from repro.strategies import BlockedConfig

SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def pairs():
    return [
        genome_pair(1500, n_regions=3, region_length=70, mutation_rate=0.03, rng=seed)
        for seed in SEEDS
    ]


def _regions(alignments) -> list[tuple]:
    return [(a.score, a.s_start, a.s_end, a.t_start, a.t_end) for a in alignments]


def _with_col_bounds(graph, col_bounds):
    """The same blocked graph re-tiled over explicit column bounds."""
    row_bounds = graph.params["row_bounds"]
    return dataclasses.replace(
        graph,
        tiles=_banded_tiles(row_bounds, col_bounds, graph.n_procs),
        params={**graph.params, "col_bounds": col_bounds, "n_blocks": len(col_bounds)},
    ).validate()


def _uneven(cols: int) -> tuple[tuple[int, int], ...]:
    edge = cols * 3 // 20
    return ((0, edge), (edge, cols - edge), (cols - edge, cols))


# -- geometry ----------------------------------------------------------------


def test_default_config_lets_the_host_choose():
    assert MpBlockedConfig().n_blocks is None
    graph = cached_plan(MpBlockedConfig().spec(), 4900, 5100)
    assert graph.params["n_bands"] == 8
    assert len(graph.tiles) < 64
    assert graph.params["col_bounds"] == host_col_bounds(
        graph.params["row_bounds"], 5100, 2
    )


def test_host_choice_minimises_predicted_makespan():
    rows = tuple((i * 600, (i + 1) * 600) for i in range(8))
    chosen = host_col_bounds(rows, 5000, 2)
    best = blocked_makespan(rows, chosen, 2)
    assert all(blocked_makespan(rows, b, 2) >= best for b in candidate_col_bounds(5000))
    # the paper's 8 blocks pay eight dispatches per row for little overlap
    assert blocked_makespan(rows, tuple((j * 625, (j + 1) * 625) for j in range(8)), 2) > best


def test_explicit_block_count_is_honoured():
    graph = build_plan(blocked_spec(2, n_bands=8, n_blocks=8), 800, 800)
    widths = [c1 - c0 for c0, c1 in graph.params["col_bounds"]]
    assert widths == [100] * 8 and len(graph.tiles) == 64


def test_candidates_tile_the_columns():
    for bounds in candidate_col_bounds(1000):
        assert bounds[0][0] == 0 and bounds[-1][1] == 1000
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


def test_host_chosen_graph_verifies():
    graph = build_plan(blocked_spec(3, n_bands=5, n_blocks=None), 700, 2000)
    for backend in ("inline", "sim", "pool"):
        assert verify_graph(graph, backend) == []


def test_simulator_keeps_the_paper_geometry():
    config = BlockedConfig(n_procs=8)
    tiling = config.tiling(4000, 4000)
    assert tiling.n_blocks == 40 and tiling.n_bands == 40  # 5 x 5 multiplier


# -- region invariance ----------------------------------------------------------


def test_regions_do_not_depend_on_column_geometry_inline(pairs):
    for pair in pairs:
        rows, cols = len(pair.s), len(pair.t)
        reference = _regions(
            InlineExecutor()
            .run(cached_plan(MpBlockedConfig(n_blocks=8).spec(), rows, cols), pair.s, pair.t)
            .alignments
        )
        assert reference
        host = cached_plan(MpBlockedConfig().spec(), rows, cols)
        graphs = [
            cached_plan(MpBlockedConfig(n_blocks=k).spec(), rows, cols) for k in range(1, 9)
        ]
        graphs += [host, _with_col_bounds(host, _uneven(cols))]
        for graph in graphs:
            got = _regions(InlineExecutor().run(graph, pair.s, pair.t).alignments)
            assert got == reference, graph.params["col_bounds"]


def test_regions_do_not_depend_on_column_geometry_on_the_pool(pairs):
    with AlignmentWorkerPool(n_workers=2) as pool:
        for pair in pairs:
            reference = _regions(pool.blocked(pair.s, pair.t, MpBlockedConfig(n_blocks=8)))
            for k in (None, *range(1, 8)):
                got = _regions(pool.blocked(pair.s, pair.t, MpBlockedConfig(n_blocks=k)))
                assert got == reference, k


# -- the fit -------------------------------------------------------------------


def _synthetic_payload(cost: HostCost, noise: float = 0.02) -> dict:
    """A trace of blocked plans whose tile spans last what ``cost`` predicts."""
    rng = np.random.default_rng(3)
    events = []
    clock = 0.0
    for n_blocks in (1, 2, 3, 5, 8, 13):
        graph = build_plan(blocked_spec(2, n_bands=4, n_blocks=n_blocks), 400, 3000)
        start = clock
        for tile in graph.tiles:
            rows = graph.params["row_bounds"][tile.payload[0]]
            dur = cost.tile_seconds(rows[1] - rows[0], tile.cells)
            dur *= 1.0 + rng.uniform(-noise, noise)
            events.append(
                {
                    "name": "tile",
                    "cat": "computation",
                    "ph": "X",
                    "ts": clock * 1e6,
                    "dur": dur * 1e6,
                    "args": {"tile": tile.id, "cells": tile.cells, "process": "worker-0"},
                }
            )
            clock += dur
        events.append(
            {
                "name": "plan:blocked",
                "cat": "coordination",
                "ph": "X",
                "ts": start * 1e6,
                "dur": (clock - start) * 1e6,
                "args": {**graph.span_args(backend="pool"), "process": "coordinator"},
            }
        )
        clock += 1e-3
    return {"traceEvents": events}


def test_fit_recovers_synthetic_constants():
    truth = HostCost(cell_seconds=7.0e-9, dispatch_seconds=1.3e-5)
    fit = HostCost.fit(_synthetic_payload(truth))
    assert fit.cell_seconds == pytest.approx(truth.cell_seconds, rel=0.05)
    assert fit.dispatch_seconds == pytest.approx(truth.dispatch_seconds, rel=0.05)
    report = prediction_report(tile_samples(_synthetic_payload(truth)), fit)
    assert report["blocked"]["median_rel_error"] < 0.05


def test_fit_needs_tiles():
    with pytest.raises(ValueError, match="at least two"):
        HostCost.fit({"traceEvents": []})


def test_traced_pool_run_reports_the_prediction_error(pairs):
    pair = pairs[0]
    with AlignmentWorkerPool(n_workers=2) as pool:
        with obs.observed("coordinator") as (tracer, metrics):
            pool.blocked(pair.s, pair.t)
        payload = payload_from_tracer(tracer, metrics)
    attrib = attribute(payload)
    row = attrib.host_cost["blocked"]
    assert row["tiles"] == attrib.tiles_planned
    assert row["measured_seconds"] > 0 and row["predicted_seconds"] > 0
    assert row["median_rel_error"] >= 0
    assert "median rel error" in attrib.render()
    assert attrib.summary()["host_cost"] == attrib.host_cost
    assert HostCost.fit(payload).cell_seconds > 0
    assert HOST_COST.tile_seconds(10, 100) > 0
