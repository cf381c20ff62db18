"""Tile attribution must stay <2% overhead when observability is disabled.

The per-tile span stamping this feature added (tile_args construction, the
plan-span args with their O(tiles) critical-path walk) is gated on
``tracer.enabled``; with no tracer installed each tile pays one attribute
check and ``Executor.run`` pays one branch.  Enforced the same two ways as
``tests/obs/test_overhead.py``: an accounting bound on the measured cost of
the disabled check, and an A/B of the instrumented inline executor against a
verbatim hook-free copy of its loop (best-of-several with retries, because
millisecond timings jitter more than the 2% being asserted; each retry
times the two sides alternately, run by run).
"""

from __future__ import annotations

from time import perf_counter

import pytest

import repro.obs as obs
from repro.core.scoring import DEFAULT_SCORING
from repro.plan import InlineExecutor, plan_wavefront
from repro.plan.runtime import finalize_plan, make_runtime
from repro.seq import encode, genome_pair

N = 512


@pytest.fixture(scope="module")
def workload():
    gp = genome_pair(N, N, n_regions=1, region_length=60, mutation_rate=0.02, rng=33)
    s, t = encode(gp.s), encode(gp.t)
    return s, t, plan_wavefront(len(s), len(t), n_procs=2, group_rows=16)


def _best_of(fn, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def _best_of_pair(fa, fb, rounds=5):
    """Best-of-``rounds`` of two functions timed alternately, run by run, so
    a slow stretch on a shared host lands on both sides instead of one."""
    best_a = best_b = float("inf")
    for _ in range(rounds):
        t0 = perf_counter()
        fa()
        best_a = min(best_a, perf_counter() - t0)
        t0 = perf_counter()
        fb()
        best_b = min(best_b, perf_counter() - t0)
    return best_a, best_b


def test_disabled_tile_attribution_overhead_under_2pct(workload):
    s, t, graph = workload
    assert not obs.is_enabled()

    def instrumented():
        InlineExecutor().run(graph, s, t)

    def uninstrumented():
        # InlineExecutor._execute, verbatim, minus every obs hook: no
        # Stopwatch, no tracer check, no tile_args, no cell counting.
        runtime = make_runtime(graph, s, t, DEFAULT_SCORING)
        for tile in graph.tiles:
            runtime.run_tile(tile)
        finalize_plan(graph, [runtime.emit(owner) for owner in graph.owners()])

    run_s = _best_of(instrumented)

    # Accounting bound: the disabled path costs one tracer-enabled check per
    # tile (plus one span-args branch per plan).  Even charging every tile
    # the measured per-check cost must fit the 2% budget.
    reps = 10_000
    t0 = perf_counter()
    for _ in range(reps):
        obs.get_tracer().enabled  # noqa: B018 -- the disabled branch itself
    per_check = (perf_counter() - t0) / reps
    assert per_check * len(graph.tiles) < 0.02 * run_s, (
        f"disabled check costs {per_check * 1e9:.0f} ns; {len(graph.tiles)} "
        f"of them exceed 2% of the {run_s * 1e3:.2f} ms run"
    )

    # A/B bound with retries: instrumented executor vs its hook-free twin.
    for _ in range(4):
        a, b = _best_of_pair(instrumented, uninstrumented)
        if a <= b * 1.02:
            break
    else:
        pytest.fail(
            f"instrumented {a * 1e3:.3f} ms vs uninstrumented {b * 1e3:.3f} ms (>2%)"
        )


def test_plan_span_args_not_built_when_disabled(workload, monkeypatch):
    """The O(tiles) critical-path walk must not run on the disabled path."""
    s, t, graph = workload
    assert not obs.is_enabled()
    called = []
    monkeypatch.setattr(
        type(graph), "span_args", lambda self, **kw: called.append(1) or {}
    )
    InlineExecutor().run(graph, s, t)
    assert not called
    with obs.observed():
        InlineExecutor().run(graph, s, t)
    assert called
