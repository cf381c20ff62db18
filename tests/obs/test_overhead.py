"""The disabled-observability overhead budget: <2% on a 512x512 alignment.

The instrumentation contract is that every hook in a hot path is (a) batch-
grained, never per-row, and (b) guarded by one attribute check when no
tracer is installed.  This test enforces the budget two ways:

* an A/B timing of the instrumented batched kernel against a verbatim
  uninstrumented copy of its loop (the only difference is the hook), and
* a direct accounting check: the measured per-call cost of the disabled
  hook, multiplied by a generous per-row hook count, must stay under 2% of
  the full 512x512 alignment time.

Timing comparisons on millisecond workloads are noisy, so the A/B check
takes best-of-several, timing the two sides alternately run by run, and
retries before failing.
"""

from time import perf_counter

import numpy as np
import pytest

import repro.obs as obs
from repro.core import KernelWorkspace, initial_row
from repro.core.kernels import SCORE_DTYPE
from repro.seq import random_dna

N = 512


@pytest.fixture(scope="module")
def pair_512():
    return random_dna(N, rng=21), random_dna(N, rng=22)


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


def test_observability_disabled_by_default():
    assert not obs.is_enabled()
    assert obs.get_tracer().enabled is False


def test_disabled_hook_overhead_under_2pct_on_512_alignment(pair_512):
    """Tier-1 budget: hooks cost <2% of a 512x512 alignment when disabled."""
    s, t = pair_512
    assert not obs.is_enabled()
    ws = KernelWorkspace(t)
    H = np.zeros((N + 1, N + 1), dtype=SCORE_DTYPE)
    H[0] = initial_row(N, local=True)

    def instrumented():
        ws.sw_rows(H[0], s, out=H[1:])

    def uninstrumented():
        # sw_rows' loop, verbatim, minus the count_cells hook.
        row = H[0]
        out = H[1:]
        for r in range(N):
            row = ws.sw_row(row, int(s[r]), out=out[r])

    alignment_s = _best_of(instrumented)

    # Accounting bound: even if a hook fired once per ROW (the code only
    # fires once per batch), the disabled cost must fit the 2% budget.
    reps = 10_000
    t0 = perf_counter()
    for _ in range(reps):
        obs.count_cells(N)
    per_hook = (perf_counter() - t0) / reps
    assert per_hook * N < 0.02 * alignment_s, (
        f"disabled hook costs {per_hook * 1e9:.0f} ns; {N} of them exceed "
        f"2% of the {alignment_s * 1e3:.2f} ms alignment"
    )

    # A/B bound: the instrumented batch API vs its hook-free twin.  Retry a
    # few times -- ~1.5 ms timings jitter more than the 2% we are asserting.
    for attempt in range(4):
        a, b = _best_of_pair(instrumented, uninstrumented)
        if a <= b * 1.02:
            break
    else:
        pytest.fail(f"instrumented {a * 1e3:.3f} ms vs uninstrumented {b * 1e3:.3f} ms (>2%)")


def test_enabled_hook_counts_exactly_once(pair_512):
    s, t = pair_512
    ws = KernelWorkspace(t)
    H = np.zeros((N + 1, N + 1), dtype=SCORE_DTYPE)
    H[0] = initial_row(N, local=True)
    with obs.observed() as (_, metrics):
        ws.sw_rows(H[0], s, out=H[1:])
    assert metrics.counter("cells_computed").value == N * N
    assert not obs.is_enabled()
