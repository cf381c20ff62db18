"""Real shared-memory implementation of the blocked strategy.

This is the Section 4.3 algorithm executed with actual OS processes: bands
are dealt round-robin to workers, band-boundary rows live in a
:mod:`multiprocessing.shared_memory` segment (the stand-in for JIAJIA's
shared pages), and per-block readiness is signalled with
:class:`multiprocessing.Event` (the stand-in for jia_setcv/jia_waitcv --
like them, an Event remembers a signal sent before anyone waits).

The schedule and the kernel-driving code both come from :mod:`repro.plan`:
the worker walks its tiles of the blocked task graph and executes each one
through the shared :class:`~repro.plan.BlockedRuntime`; only the Event
handshake around each tile is this backend's own.

CPython's GIL does not hinder this backend: each worker is a separate
process, and the DP kernel is numpy-bound anyway.  On a single-core host it
degrades to correct-but-serial execution; the simulated cluster remains the
source of the paper's performance curves.
"""

from __future__ import annotations

import multiprocessing as mp
import shutil
import tempfile
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..check.sanitizer import get_sanitizer
from ..core.alignment import LocalAlignment
from ..core.kernels import SCORE_DTYPE
from ..core.scoring import DEFAULT_SCORING, Scoring
from ..obs import get_metrics, get_tracer, is_enabled
from ..obs.collect import ObsJob, merge_into, observed_worker
from ..plan import blocked_spec, cached_plan, finalize_plan, make_runtime, state_shape
from .guard import drain_results
from .shm import attach_shared_array, create_shared_array


@dataclass(frozen=True)
class MpBlockedConfig:
    """Parameters of the real-parallel blocked run.

    ``n_blocks=None`` (the default) lets the host cost model choose the
    column bounds (:func:`repro.plan.hostcost.host_col_bounds`); an integer
    forces that many even blocks.  ``n_bands`` stays fixed because the
    regions are detected per band: changing it changes the regions.
    """

    n_workers: int = 2
    n_bands: int = 8
    n_blocks: int | None = None
    threshold: int = 35
    min_score: int | None = None
    timeout: float = 300.0
    kernel: str = "classic"

    def __post_init__(self) -> None:
        blocks = 1 if self.n_blocks is None else self.n_blocks
        if self.n_workers <= 0 or self.n_bands <= 0 or blocks <= 0:
            raise ValueError("workers/bands/blocks must be positive")

    def spec(self):
        """The plan spec this config describes (one graph per (rows, cols))."""
        return blocked_spec(
            n_procs=self.n_workers,
            n_bands=self.n_bands,
            n_blocks=self.n_blocks,
            threshold=self.threshold,
            min_score=self.min_score,
            kernel=self.kernel,
        )


def _worker(
    worker_id: int,
    s_bytes: bytes,
    t_bytes: bytes,
    config: MpBlockedConfig,
    scoring: Scoring,
    shm_name: str,
    shape: tuple[int, int],
    ready: list,
    results: "mp.Queue",
    obs: ObsJob | None = None,
) -> None:
    """One cluster-node stand-in: processes its bands, signals block edges."""
    s = np.frombuffer(s_bytes, dtype=np.uint8)
    t = np.frombuffer(t_bytes, dtype=np.uint8)
    graph = cached_plan(config.spec(), len(s), len(t))
    n_blocks = graph.params["n_blocks"]
    with observed_worker(obs, f"worker-{worker_id}") as (tracer, metrics), attach_shared_array(
        shm_name, shape, SCORE_DTYPE
    ) as boundaries:
        runtime = make_runtime(graph, s, t, scoring, state=boundaries.array)
        tracing = tracer.enabled
        wait_s = busy_s = 0.0
        for tile in graph.tiles_of(worker_id):
            band, block = tile.payload
            if band > 0:
                t0 = perf_counter() if tracing else 0.0
                if not ready[(band - 1) * n_blocks + block].wait(config.timeout):
                    raise TimeoutError(
                        f"worker {worker_id} starved waiting for "
                        f"block ({band - 1}, {block})"
                    )
                san = get_sanitizer()
                if san is not None:
                    san.on_wait(f"ready[{band - 1},{block}]")
                if tracing:
                    waited = perf_counter() - t0
                    wait_s += waited
                    tracer.record(
                        "block_wait", "communication", t0, waited, band=band, block=block
                    )
            t0 = perf_counter() if tracing else 0.0
            runtime.run_tile(tile)
            if tracing and tile.cells:
                spent = perf_counter() - t0
                busy_s += spent
                tracer.record("tile", "computation", t0, spent, band=band, block=block)
            ready[band * n_blocks + block].set()
            san = get_sanitizer()
            if san is not None:
                san.on_post(f"ready[{band},{block}]")
        if tracing:
            # Tile cells are counted by the engine's batched-kernel hook.
            metrics.counter("worker_busy_seconds").inc(busy_s)
            metrics.counter("worker_wait_seconds").inc(wait_s)
        results.put((worker_id, runtime.emit(worker_id)))


def mp_blocked_alignments(
    s: np.ndarray,
    t: np.ndarray,
    config: MpBlockedConfig | None = None,
    scoring: Scoring = DEFAULT_SCORING,
) -> list[LocalAlignment]:
    """Find local alignments with real worker processes.

    Returns the merged, finalized alignment queue -- the same post-processing
    as the simulated strategies, so results are comparable across backends.
    """
    config = config or MpBlockedConfig()
    from ..seq.alphabet import encode

    s = encode(s)
    t = encode(t)
    graph = cached_plan(config.spec(), len(s), len(t))
    ctx = mp.get_context()
    obs_dir: str | None = None
    obs: ObsJob | None = None
    # Segments also flow when only the sanitizer is on (they carry its events).
    if is_enabled() or get_sanitizer() is not None:
        obs_dir = tempfile.mkdtemp(prefix="repro-obs-")
        obs = ObsJob(obs_dir, "blocked", perf_counter())
    ready = [ctx.Event() for _ in range(len(graph.tiles))]
    results: mp.Queue = ctx.Queue()
    with create_shared_array(state_shape(graph), SCORE_DTYPE) as boundaries:
        workers = [
            ctx.Process(
                target=_worker,
                args=(
                    w,
                    s.tobytes(),
                    t.tobytes(),
                    config,
                    scoring,
                    boundaries.name,
                    boundaries.array.shape,
                    ready,
                    results,
                    obs,
                ),
            )
            for w in range(config.n_workers)
        ]
        try:
            with get_tracer().span("mp_blocked", "coordination", n_workers=config.n_workers):
                for w in workers:
                    w.start()
                collected = drain_results(
                    results, workers, config.n_workers, config.timeout
                )
                for w in workers:
                    w.join(timeout=config.timeout)
        finally:
            for w in workers:
                if w.is_alive():
                    w.terminate()
                    w.join(timeout=5.0)
            if obs is not None:
                merge_into(get_tracer(), get_metrics(), obs.dir, obs.key)
                shutil.rmtree(obs_dir, ignore_errors=True)

    parts = [collected[w] for w in sorted(collected)]
    return finalize_plan(graph, parts).alignments
