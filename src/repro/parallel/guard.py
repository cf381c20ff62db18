"""Crash-safe waiting on pool workers.

A worker that dies mid-job (OOM kill, segfault in a C extension) must fail
the request in well under a second, not leave the coordinator blocked for
the full job timeout while named shared-memory segments leak.  The pool
polls with short timeouts and checks ``Process.exitcode`` between polls
(:meth:`repro.parallel.AlignmentWorkerPool._collect`); the pieces it shares
live here.
"""

from __future__ import annotations

import time


class WorkerCrashed(RuntimeError):
    """A worker process exited without delivering its result."""


def poll_until(condition, timeout: float, what: str, interval: float = 1e-4) -> None:
    """Spin (with tiny sleeps) until ``condition()`` is true.

    The shared-memory pool signals progress through plain counters instead of
    semaphores -- counters can be created per job and attached by name,
    whereas ``multiprocessing`` semaphores can only be inherited at fork
    time, which would pin the pool to one job shape forever.
    """
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise TimeoutError(what)
        time.sleep(interval)
