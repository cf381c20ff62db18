"""The host cost model's search tiling: kernel and lane cap per tile.

:func:`repro.plan.hostcost.search_cuts` is a pure function of (lane
lengths, query length, workers); every backend builds its search tiles from
it, so the same inputs must always give the same tiles, every lane must land
in exactly one tile, and a forced kernel must reach every tile.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.obs.attrib import attribute, payload_from_tracer
from repro.parallel import AlignmentWorkerPool
from repro.plan import InlineExecutor, PoolExecutor, SimExecutor, plan_search_buckets
from repro.plan.hostcost import (
    LANE_CAPS,
    SEARCH_COST,
    TILE_WASTE,
    HostCost,
    prediction_report,
    queue_makespan,
    search_cuts,
    search_kind,
    search_terms,
    search_tile_seconds,
    tile_kernel,
    tile_samples,
)
from repro.seq import pack_database, random_dna
from repro.seq.db import greedy_runs, pack_runs
from repro.strategies import SearchConfig, search_db, search_db_sequential


def _lengths(n, lo=200, hi=600, seed=1):
    rng = np.random.default_rng(seed)
    return np.sort(rng.integers(lo, hi + 1, size=n))[::-1]


def _predicted_makespan(lengths, cuts, query_len, n_workers):
    seconds = [
        search_tile_seconds(k, b - a, int(lengths[a]), query_len) for a, b, k in cuts
    ]
    return queue_makespan(seconds, n_workers)


class TestSearchCuts:
    def test_same_inputs_give_identical_tiles(self):
        lengths = _lengths(568)
        first = search_cuts(lengths, 400, 2)
        assert first == search_cuts(lengths.copy(), 400, 2)
        assert first == search_cuts(list(lengths), 400, 2)

    @pytest.mark.parametrize("n", [1, 7, 32, 568, 3000])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_every_lane_lands_in_exactly_one_tile(self, n, n_workers):
        lengths = _lengths(n, 20, 900, seed=n)
        cuts = search_cuts(lengths, 300, n_workers)
        covered = np.zeros(n, dtype=np.int64)
        for a, b, _ in cuts:
            assert b > a
            covered[a:b] += 1
        assert (covered == 1).all()

    def test_empty_lanes_are_tiled_once(self):
        lengths = np.array([50, 40, 0, 0, 0])
        for n_workers in (1, 2, 4):
            cuts = search_cuts(lengths, 30, n_workers)
            assert sorted(i for a, b, _ in cuts for i in range(a, b)) == list(range(5))

    def test_seed_prefix_on_two_workers_yields_two_tiles(self):
        cuts = search_cuts(_lengths(32), 400, 2)
        assert len(cuts) >= 2
        assert all(kernel == "classic" for _, _, kernel in cuts)
        assert len(search_cuts(_lengths(32), 400, 1)) == 1

    def test_forced_kernel_overrides_every_tile(self):
        lengths = _lengths(568)
        for kernel in ("classic", "striped"):
            cuts = search_cuts(lengths, 400, 2, kernel=kernel)
            assert {k for _, _, k in cuts} == {kernel}
        auto = {k for _, _, k in search_cuts(lengths, 400, 2)}
        assert auto == {"striped"}  # wide survivors amortise the plane dispatches

    def test_dispatch_order_is_longest_predicted_first(self):
        lengths = _lengths(3000, 50, 2000)
        cuts = search_cuts(lengths, 500, 2)
        seconds = [search_tile_seconds(k, b - a, int(lengths[a]), 500) for a, b, k in cuts]
        assert len(cuts) > 1
        assert seconds == sorted(seconds, reverse=True) or np.allclose(
            seconds, sorted(seconds, reverse=True), rtol=1e-9
        )

    def test_chosen_cut_beats_the_storage_packing(self):
        lengths = _lengths(568)
        cuts = search_cuts(lengths, 400, 2)
        storage = [(a, b, tile_kernel(b - a, int(lengths[a]), 400)) for a, b in greedy_runs(lengths, 512, 0.15)]
        assert _predicted_makespan(lengths, cuts, 400, 2) <= _predicted_makespan(
            lengths, storage, 400, 2
        )

    def test_rejects_unsorted_lengths_and_unknown_kernels(self):
        with pytest.raises(ValueError, match="descending"):
            search_cuts([10, 20], 5, 1)
        with pytest.raises(ValueError, match="kernel"):
            search_cuts([20, 10], 5, 1, kernel="avx512")
        assert search_cuts([], 5, 2) == ()

    def test_candidate_family_is_bounded(self):
        assert LANE_CAPS[0] == 1 and LANE_CAPS[-1] == 4096
        assert TILE_WASTE[-1] == 1.0


class TestTileKernel:
    def test_narrow_tiles_classic_wide_tiles_striped(self):
        assert tile_kernel(8, 600, 400) == "classic"
        assert tile_kernel(1024, 600, 400) == "striped"
        assert tile_kernel(1024, 600, 400, "classic") == "classic"

    def test_terms(self):
        assert search_terms("classic", 10, 99, 7) == (7, 7 * 10 * 100, 0)
        # seg = isqrt(100) = 10 planes per row over a 100-wide striped block
        assert search_terms("striped", 10, 100, 7) == (70, 7 * 10 * 100, 1000)
        with pytest.raises(ValueError):
            search_terms("avx512", 1, 1, 1)

    def test_planner_assigns_the_tiler_kernels(self):
        rng = np.random.default_rng(4)
        records = [(f"s{i}", random_dna(int(n), rng)) for i, n in enumerate(rng.integers(200, 600, 400))]
        packed = pack_database(records)
        lengths_of = packed.lane_map()[2]
        idx = np.arange(400)

        def cut(lengths):
            return search_cuts(lengths, 400, 2)

        tiles = pack_runs(packed, idx, cut)
        graph = plan_search_buckets(tiles, 400, kernel="auto")
        expected = cut(np.sort(lengths_of)[::-1])
        assert [t.payload[5] for t in graph.tiles] == [k for _, _, k in expected]
        assert [t.payload[2] for t in graph.tiles] == [b - a for a, b, _ in expected]


class TestExecutorWorkers:
    def test_each_backend_reports_its_workers(self):
        assert InlineExecutor().n_workers == 1
        assert SimExecutor().n_workers == 1

        class Stub:
            n_workers = 3

        assert PoolExecutor(Stub()).n_workers == 3


def _synthetic_search_payload(cost: HostCost, kernel: str, noise: float = 0.02) -> dict:
    """Search plan spans whose ``search_chunk`` tiles last what ``cost`` predicts."""
    rng = np.random.default_rng(5)
    events = []
    clock = 0.0
    for _ in range(8):
        start = clock
        for tile in range(6):
            lanes = int(2 ** rng.integers(2, 11))
            width = int(rng.integers(100, 1000))
            query_len = int(rng.choice([60, 400, 900]))
            dur = cost.tile_seconds(*search_terms(kernel, lanes, width, query_len))
            dur *= 1.0 + rng.uniform(-noise, noise)
            args = {
                "tile": tile, "kernel": kernel, "lanes": lanes, "width": width,
                "query_len": query_len, "cells": lanes * width * query_len,
                "process": "worker-0",
            }
            events.append({"name": "search_chunk", "cat": "computation", "ph": "X",
                           "ts": clock * 1e6, "dur": dur * 1e6, "args": args})
            clock += dur
        events.append({"name": "plan:search", "cat": "coordination", "ph": "X",
                       "ts": start * 1e6, "dur": (clock - start) * 1e6,
                       "args": {"kind": "search", "tiles": 6, "cells": 1, "process": "coordinator"}})
        clock += 1e-3
    return {"traceEvents": events}


class TestSearchFit:
    def test_fit_recovers_synthetic_striped_terms(self):
        truth = HostCost(cell_seconds=4e-10, dispatch_seconds=6e-6, setup_seconds=3e-8)
        payload = _synthetic_search_payload(truth, "striped")
        fit = HostCost.fit(payload, kind=search_kind("striped"))
        assert fit.cell_seconds == pytest.approx(truth.cell_seconds, rel=0.1)
        assert fit.dispatch_seconds == pytest.approx(truth.dispatch_seconds, rel=0.1)
        assert fit.setup_seconds == pytest.approx(truth.setup_seconds, rel=0.2)
        report = prediction_report(tile_samples(payload), fit)
        assert report["search[striped]"]["median_rel_error"] < 0.05
        with pytest.raises(ValueError, match="at least two"):
            HostCost.fit(payload, kind=search_kind("classic"))

    def test_committed_terms_are_positive(self):
        for cost in SEARCH_COST.values():
            assert cost.cell_seconds > 0 and cost.dispatch_seconds > 0


@pytest.fixture(scope="module")
def database():
    rng = np.random.default_rng(12)
    records = [(f"s{i}", random_dna(int(n), rng)) for i, n in enumerate(rng.integers(150, 500, 300))]
    return random_dna(300, rng), pack_database(records)


class TestTracedSearch:
    def test_inline_spans_carry_the_tile_shape(self, database):
        query, packed = database
        with obs.observed("coordinator") as (tracer, metrics):
            search_db(query, packed, SearchConfig(top_k=5, prefilter="off"))
        payload = payload_from_tracer(tracer, metrics)
        chunks = [e for e in payload["traceEvents"] if e["name"] == "search_chunk"]
        assert chunks
        for e in chunks:
            assert {"lanes", "width", "query_len", "kernel"} <= set(e["args"])
            assert e["args"]["query_len"] == 300
        samples = tile_samples(payload)
        assert len(samples) == len(chunks)
        assert all(s.kind.startswith("search[") for s in samples)

    def test_pool_critical_path_reports_the_search_prediction_error(self, database):
        query, packed = database
        config = SearchConfig(top_k=5, prefilter="off")
        with AlignmentWorkerPool(n_workers=2) as pool:
            with obs.observed("coordinator") as (tracer, metrics):
                result = search_db(query, packed, config, pool=pool)
            payload = payload_from_tracer(tracer, metrics)
        assert result.scores() == search_db_sequential(query, packed, config).scores()
        attrib = attribute(payload)
        assert attrib.kind == "search"
        kinds = set(attrib.host_cost)
        assert kinds and all(k.startswith("search[") for k in kinds)
        for row in attrib.host_cost.values():
            assert row["tiles"] >= 1 and row["median_rel_error"] >= 0
        assert sum(row["tiles"] for row in attrib.host_cost.values()) == attrib.tiles_traced
        assert "median rel error" in attrib.render()
