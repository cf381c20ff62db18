"""Closed-loop driver, statistics and the result line shared by every workload.

A workload object provides ``setup(workdir)``, ``reference()``, ``op(i)``,
``check(i, out)``, ``cells(i, out)``, ``peak_rss_mb()``, ``close()`` and, for
traced runs, ``traced_op(i)`` and ``layers(...)``.  :func:`run_workload` owns
the timing: repeated set-ups, the closed loop of one client, failure
counting and the final metric set.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: ``op_tail_s`` is the latency with exactly this many samples above it.
TAIL_SAMPLES_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "gcups": "GCUPS",
    "peak_rss_mb": "MB",
    "op_success_frac": "ratio",
}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float]:
    """``(latency, percentile)`` of the highest percentile that still has
    :data:`TAIL_SAMPLES_BEYOND` samples beyond it (the max if too few)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    rank = max(0, n - TAIL_SAMPLES_BEYOND - 1)
    return float(ordered[rank]), 100.0 * (rank + 1) / n


def process_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB; 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def self_hwm_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostProbe:
    """A frozen numpy workload timed between ops: an ungated diagnostic of
    how fast the shared host runs at that moment."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.integers(0, 1 << 20, size=50_000, dtype=np.int64)
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        np.sort(self._a, kind="stable")
        self.samples.append(time.perf_counter() - t0)


@dataclass
class LoopStats:
    latencies: list[float] = field(default_factory=list)
    cells: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def note_failure(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def _one_op(workload, i: int, stats: LoopStats, traced: bool):
    """Run, time and check op ``i``; returns its record or None on failure."""
    stats.attempted += 1
    try:
        t0 = time.perf_counter()
        out = workload.traced_op(i) if traced else workload.op(i)
        elapsed = time.perf_counter() - t0
    except Exception as exc:  # an op that raises is a failed op, not a crash
        stats.note_failure(f"op {i}: {type(exc).__name__}: {exc}")
        return None
    if not workload.check(i, out):
        stats.note_failure(f"op {i}: output differs from the reference")
        return None
    stats.latencies.append(elapsed)
    stats.cells += workload.cells(i, out)
    return elapsed, out


def closed_loop(workload, seconds: float, probe: HostProbe) -> LoopStats:
    """One client: the next op starts when the previous one has returned."""
    stats = LoopStats()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        _one_op(workload, i, stats, traced=False)
        probe.sample()
        i += 1
    return stats


def traced_loop(workload, seconds: float, probe: HostProbe):
    """Alternate untraced and traced ops; returns both loops' stats and the
    traced ops' records (for the per-layer numbers)."""
    plain, traced = LoopStats(), LoopStats()
    records = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        _one_op(workload, i, plain, traced=False)
        rec = _one_op(workload, i + 1, traced, traced=True)
        if rec is not None:
            records.append(rec)
        probe.sample()
        i += 2
    return plain, traced, records


def loop_gcups(stats: LoopStats) -> float:
    """Geometric cells of the successful ops over their summed wall time."""
    busy = sum(stats.latencies)
    return stats.cells / busy / 1e9 if busy > 0 else 0.0


def end_to_end(workload, setups: list[float], stats: LoopStats) -> dict[str, float]:
    op_tail, _ = tail(stats.latencies)
    return {
        "setup_s": median(setups),
        "op_p50_s": median(stats.latencies),
        "op_tail_s": op_tail,
        "gcups": loop_gcups(stats),
        "peak_rss_mb": workload.peak_rss_mb(),
        "op_success_frac": (stats.attempted - stats.failed) / max(1, stats.attempted),
    }


def run_workload(workload, root: Path, seconds: float, trace: bool) -> dict:
    """Set up, check, measure; returns the result object (not yet printed)."""
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            workload.close()
            t0 = time.perf_counter()
            workload.setup(workdir)
            setups.append(time.perf_counter() - t0)
        reference_ok = workload.reference()
        probe = HostProbe()
        if trace:
            plain, traced, records = traced_loop(workload, seconds, probe)
            metrics = workload.layers(plain, records)
            stats = LoopStats(
                plain.latencies + traced.latencies,
                plain.cells + traced.cells,
                plain.attempted + traced.attempted,
                plain.failed + traced.failed,
                plain.errors + traced.errors,
            )
            metrics["obs.trace_overhead_frac"] = (
                median(traced.latencies) / median(plain.latencies) - 1.0
                if plain.latencies and traced.latencies
                else 0.0
            )
            metrics["host.probe_ms"] = 1e3 * median(probe.samples)
        else:
            stats = closed_loop(workload, seconds, probe)
            metrics = end_to_end(workload, setups, stats)
        _, tail_pct = tail(stats.latencies)
        notes = {
            "workload": workload.name,
            "workers": workload.n_workers,
            "ops": len(stats.latencies),
            "tail_percentile": round(tail_pct, 1),
            "setups_s": setups,
            "host_probe_ms_p50": 1e3 * median(probe.samples),
            "reference_ok": reference_ok,
            "errors": stats.errors,
        }
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": bool(reference_ok and stats.failed == 0),
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
        "notes": notes,
    }


def child_env(root: Path) -> dict[str, str]:
    """Environment for a program child process: this checkout's sources only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env
