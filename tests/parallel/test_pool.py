"""Tests for the persistent shared-memory worker pool.

The pool is the one real-parallel backend: its wave-front, blocked and
phase-2 jobs must return exactly what the single-process
:class:`~repro.plan.InlineExecutor` (and :func:`~repro.core.align_region`)
return for the same plan, stay correct across many repeated requests (the
amortisation case it exists for), and fail fast -- not hang for the full
timeout -- when a worker dies.
"""

import os
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core import LocalAlignment, align_region, needleman_wunsch
from repro.parallel import (
    AlignmentWorkerPool,
    MpBlockedConfig,
    MpWavefrontConfig,
    SequenceArena,
    SharedArray,
    WorkerCrashed,
    attach_shared_array,
    create_shared_array,
)
from repro.parallel.shm import attach_arena
from repro.plan import InlineExecutor, cached_plan
from repro.seq import encode, genome_pair


@pytest.fixture(scope="module")
def pair():
    return genome_pair(
        600, 600, n_regions=2, region_length=60, mutation_rate=0.02, rng=51
    )


@pytest.fixture(scope="module")
def pool():
    with AlignmentWorkerPool(n_workers=2) as p:
        yield p


@pytest.fixture(scope="module")
def solo_pool():
    with AlignmentWorkerPool(n_workers=1) as p:
        yield p


@pytest.fixture(scope="module")
def trio_pool():
    with AlignmentWorkerPool(n_workers=3) as p:
        yield p


def inline(s, t, config, n_workers=2):
    """The single-process run of the plan ``pool.wavefront``/``blocked``
    would execute for ``config`` on an ``n_workers`` pool."""
    s, t = encode(s), encode(t)
    graph = cached_plan(replace(config, n_workers=n_workers).spec(), len(s), len(t))
    return InlineExecutor().run(graph, s, t).alignments


def keyed(alignments):
    return [(a.score, a.region) for a in alignments]


class TestSequenceArena:
    def test_round_trip(self):
        s = np.array([0, 1, 2, 3, 1], dtype=np.uint8)
        t = np.array([3, 2, 1], dtype=np.uint8)
        with SequenceArena(s, t) as arena:
            shm, s_view, t_view = attach_arena(arena.handle)
            try:
                assert s_view.tolist() == s.tolist()
                assert t_view.tolist() == t.tolist()
                assert s_view.dtype == np.uint8
            finally:
                shm.close()

    def test_context_manager_unlinks(self):
        from multiprocessing import shared_memory

        s = np.zeros(4, dtype=np.uint8)
        with SequenceArena(s, s) as arena:
            name = arena.handle.name
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestSharedArrayLifecycle:
    def test_create_and_attach(self):
        owner = create_shared_array((4, 5))
        try:
            owner.array[2, 3] = 42
            view = attach_shared_array(owner.name, (4, 5))
            try:
                assert view.array[2, 3] == 42
                view.array[0, 0] = 7
                assert owner.array[0, 0] == 7
            finally:
                view.close()
        finally:
            owner.close()

    def test_zero_initialised(self):
        arr = create_shared_array((10,))
        try:
            assert (arr.array == 0).all()
        finally:
            arr.close()

    def test_context_manager_unlinks(self):
        from multiprocessing import shared_memory

        with create_shared_array((3, 3)) as arr:
            name = arr.name
            arr.array[1, 1] = 9
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_close_idempotent(self):
        arr = create_shared_array((4,))
        arr.close()
        arr.close()  # second close is a no-op, not a crash

    def test_name_after_close_raises(self):
        arr = create_shared_array((4,))
        arr.close()
        with pytest.raises(ValueError):
            _ = arr.name


WAVEFRONT_CONFIGS = {
    "rows16": MpWavefrontConfig(rows_per_exchange=16),
    "rows1": MpWavefrontConfig(rows_per_exchange=1),
    "rows64-threshold40": MpWavefrontConfig(rows_per_exchange=64, threshold=40),
}

BLOCKED_CONFIGS = {
    "6x4": MpBlockedConfig(n_bands=6, n_blocks=4),
    "8xhost": MpBlockedConfig(n_bands=8),
    "1x2": MpBlockedConfig(n_bands=1, n_blocks=2),
}


class TestPoolMatchesInline:
    @pytest.mark.parametrize("name", sorted(WAVEFRONT_CONFIGS))
    def test_wavefront_matches(self, pool, pair, name):
        config = WAVEFRONT_CONFIGS[name]
        expected = inline(pair.s, pair.t, config)
        assert expected
        assert keyed(pool.wavefront(pair.s, pair.t, config)) == keyed(expected)

    @pytest.mark.parametrize("name", sorted(BLOCKED_CONFIGS))
    def test_blocked_matches(self, pool, pair, name):
        config = BLOCKED_CONFIGS[name]
        expected = inline(pair.s, pair.t, config)
        assert expected
        assert keyed(pool.blocked(pair.s, pair.t, config)) == keyed(expected)

    def test_phase2_matches(self, pool, pair):
        regions = [
            LocalAlignment(10, p.s_start, p.s_end, p.t_start, p.t_end)
            for p in pair.regions
        ]
        got = pool.phase2(regions, pair.s, pair.t)
        ordered = sorted(regions, key=lambda r: (-r.size, r.region))
        assert len(got) == len(ordered) == 2
        for g, region in zip(got, ordered):
            expected = align_region(pair.s, pair.t, region)
            assert g.source.region == expected.source.region
            assert g.similarity == expected.similarity
            assert g.similarity == needleman_wunsch(
                encode(pair.s)[region.s_start : region.s_end],
                encode(pair.t)[region.t_start : region.t_end],
            ).score

    def test_phase2_records_match_serial_nw(self, pool):
        gp = genome_pair(800, 800, n_regions=2, region_length=60, mutation_rate=0.05, rng=54)
        regions = [
            LocalAlignment(10, p.s_start, p.s_end, p.t_start, p.t_end)
            for p in gp.regions
        ]
        records = pool.phase2(regions, gp.s, gp.t)
        assert len(records) == 2
        for rec in records:
            reference = needleman_wunsch(
                encode(gp.s)[rec.source.s_start : rec.source.s_end],
                encode(gp.t)[rec.source.t_start : rec.source.t_end],
            )
            assert rec.similarity == reference.score

    def test_phase2_sorted_by_size(self, pool):
        gp = genome_pair(1000, 1000, n_regions=0, rng=57)
        regions = [
            LocalAlignment(5, 0, 50, 0, 50),
            LocalAlignment(5, 100, 400, 100, 400),
            LocalAlignment(5, 500, 600, 500, 600),
        ]
        sizes = [r.source.size for r in pool.phase2(regions, gp.s, gp.t)]
        assert sizes == sorted(sizes, reverse=True)

    def test_repeated_requests_stay_correct(self, pool, pair):
        """Ten requests on live workers: the amortisation scenario."""
        config = MpWavefrontConfig(n_workers=2, rows_per_exchange=16)
        expected = keyed(inline(pair.s, pair.t, config))
        pool.load_pair(pair.s, pair.t)
        for _ in range(10):
            assert keyed(pool.wavefront(config=config)) == expected

    def test_pair_switch(self, pool, pair):
        other = genome_pair(
            400, 400, n_regions=1, region_length=70, mutation_rate=0.0, rng=50
        )
        config = MpWavefrontConfig(n_workers=2, rows_per_exchange=16)
        first = pool.wavefront(pair.s, pair.t, config)
        second = pool.wavefront(other.s, other.t, config)
        third = pool.wavefront(pair.s, pair.t, config)
        assert [a.region for a in first] == [a.region for a in third]
        assert [a.region for a in second] != [a.region for a in first]

    def test_phase2_empty(self, pool, pair):
        assert pool.phase2([], pair.s, pair.t) == []


class TestPoolBehaviour:
    """What the strategies promise on real workers, whatever the pool size."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: MpWavefrontConfig(n_workers=0), id="wavefront"),
            pytest.param(lambda: MpWavefrontConfig(rows_per_exchange=0), id="wavefront-rows"),
            pytest.param(lambda: MpBlockedConfig(n_workers=0), id="blocked"),
            pytest.param(lambda: MpBlockedConfig(n_bands=0), id="blocked-bands"),
        ],
    )
    def test_config_validation(self, make):
        with pytest.raises(ValueError):
            make()

    def test_phase2_empty_region_list(self, trio_pool):
        gp = genome_pair(100, 100, n_regions=0, rng=55)
        assert trio_pool.phase2([], gp.s, gp.t) == []

    def test_pipeline_rejects_zero_workers(self):
        from repro.strategies import run_mp_pipeline

        gp = genome_pair(100, 100, n_regions=0, rng=56)
        with pytest.raises(ValueError):
            run_mp_pipeline(gp.s, gp.t, n_workers=0)

    @pytest.mark.parametrize("strategy", ["wavefront", "blocked"])
    def test_single_worker_finds_planted_region(self, solo_pool, strategy):
        gp = genome_pair(500, 500, n_regions=1, region_length=70, mutation_rate=0.0, rng=50)
        if strategy == "wavefront":
            found = solo_pool.wavefront(gp.s, gp.t)
        else:
            found = solo_pool.blocked(gp.s, gp.t, MpBlockedConfig(n_bands=4, n_blocks=4))
        assert found
        assert abs(found[0].s_end - gp.regions[0].s_end) <= 20

    def test_blocked_regions_independent_of_worker_count(self, solo_pool, trio_pool, pair):
        config = MpBlockedConfig(n_bands=6, n_blocks=4)
        one = solo_pool.blocked(pair.s, pair.t, config)
        three = trio_pool.blocked(pair.s, pair.t, config)
        assert one
        assert keyed(one) == keyed(three)

    def test_wavefront_best_score_independent_of_worker_count(
        self, solo_pool, trio_pool, pair
    ):
        config = MpWavefrontConfig(rows_per_exchange=16)
        one = solo_pool.wavefront(pair.s, pair.t, config)
        three = trio_pool.wavefront(pair.s, pair.t, config)
        # the dominant alignments agree (border-split fragments may differ)
        assert max(a.score for a in one) == max(a.score for a in three)

    def test_rows_per_exchange_does_not_change_results(self, pool, pair):
        fine = pool.wavefront(pair.s, pair.t, MpWavefrontConfig(rows_per_exchange=1))
        coarse = pool.wavefront(pair.s, pair.t, MpWavefrontConfig(rows_per_exchange=64))
        assert fine
        assert keyed(fine) == keyed(coarse)

    def test_blocked_matches_simulated_backend(self, pool):
        """The real and simulated backends agree on the alignment queue."""
        from repro.strategies import BlockedConfig, ScaledWorkload, run_blocked

        gp = genome_pair(500, 500, n_regions=1, region_length=80, mutation_rate=0.0, rng=52)
        real = pool.blocked(gp.s, gp.t, MpBlockedConfig(n_bands=8, n_blocks=4))
        simulated = run_blocked(
            ScaledWorkload(gp.s, gp.t),
            BlockedConfig(n_procs=2, n_bands=8, n_blocks=4),
        ).alignments
        assert real
        assert keyed(real) == keyed(simulated)

    def test_threshold_honoured(self, pool, pair):
        found = pool.blocked(pair.s, pair.t, MpBlockedConfig(threshold=40))
        assert found
        assert min(a.score for a in found) >= 40

    def test_no_regions_in_noise(self, pool):
        gp = genome_pair(400, 400, n_regions=0, rng=53)
        config = MpBlockedConfig(n_bands=4, n_blocks=2, threshold=40)
        assert pool.blocked(gp.s, gp.t, config) == []

    def test_wavefront_matches_blocked_on_one_band(self, pool):
        gp = genome_pair(400, 400, n_regions=1, region_length=70, mutation_rate=0.0, rng=123)
        wavefront = pool.wavefront(gp.s, gp.t)
        blocked = pool.blocked(gp.s, gp.t, MpBlockedConfig(n_bands=1, n_blocks=2))
        assert max(a.score for a in wavefront) == max(a.score for a in blocked)

    def test_narrow_input_rejected(self, trio_pool):
        gp = genome_pair(10, 10, n_regions=0, rng=124)
        with pytest.raises(ValueError, match="narrower"):
            trio_pool.wavefront(gp.s, gp.t[:2])


class TestPoolLifecycle:
    def test_requires_loaded_pair(self):
        with AlignmentWorkerPool(n_workers=1) as p:
            with pytest.raises(ValueError):
                p.wavefront()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            AlignmentWorkerPool(n_workers=0)

    def test_submit_after_close_raises(self, pair):
        p = AlignmentWorkerPool(n_workers=1)
        p.close()
        with pytest.raises(RuntimeError):
            p.wavefront(pair.s, pair.t)

    def test_close_idempotent(self):
        p = AlignmentWorkerPool(n_workers=1)
        p.close()
        p.close()

    def test_worker_error_reports_not_hangs(self, pair):
        """A job-level error surfaces as PoolJobError and the pool survives."""
        from repro.parallel import PoolJobError

        with AlignmentWorkerPool(n_workers=2) as p:
            with pytest.raises((PoolJobError, ValueError)):
                # t narrower than worker count -> worker-side / parent-side error
                p.wavefront(pair.s[:4], pair.t[:1])
            # the pool still serves good jobs afterwards
            got = p.wavefront(
                pair.s, pair.t, MpWavefrontConfig(n_workers=2, rows_per_exchange=16)
            )
            assert got


class TestWorkerDeathDetection:
    def test_killed_worker_raises_quickly(self, pair):
        """SIGKILL one worker mid-pool: the request fails in seconds, it does
        not sit out the full 300 s job timeout."""
        pool = AlignmentWorkerPool(n_workers=2)
        try:
            pool.load_pair(pair.s, pair.t)
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            start = time.monotonic()
            with pytest.raises(WorkerCrashed):
                pool.wavefront(
                    config=MpWavefrontConfig(n_workers=2, rows_per_exchange=16)
                )
            assert time.monotonic() - start < 30.0
        finally:
            pool.close(join_timeout=0.5)
