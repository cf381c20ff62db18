"""The real shared-memory backend: the paper's algorithm on actual processes.

The simulated cluster reproduces the paper's *measurements*; this example
runs the same blocked wave-front on a persistent pool of OS processes
sharing :mod:`multiprocessing.shared_memory` segments (JIAJIA's stand-in),
verifies the simulated backend returns the same alignment queue, then runs
both phases again on the same live workers.

On a single-core host the workers serialise -- correctness is unaffected.

Run:  python examples/real_multiprocessing.py
"""

import os

from repro.parallel import AlignmentWorkerPool, MpBlockedConfig
from repro.seq import genome_pair
from repro.strategies import BlockedConfig, ScaledWorkload, run_blocked, run_mp_pipeline

pair = genome_pair(3000, 3000, n_regions=3, region_length=150, mutation_rate=0.03, rng=17)
workers = min(4, os.cpu_count() or 1)
config = MpBlockedConfig(n_workers=workers, n_bands=12, n_blocks=8)
print(f"host has {os.cpu_count()} CPU(s); using {workers} worker process(es)\n")

with AlignmentWorkerPool(n_workers=workers) as pool:
    result = run_mp_pipeline(
        pair.s, pair.t, backend="blocked", pool=pool, phase1_config=config
    )
    print(
        f"real backend: {len(result.regions)} regions in "
        f"{result.phase1_seconds:.2f} wall-clock s"
    )

    sim = run_blocked(
        ScaledWorkload(pair.s, pair.t),
        BlockedConfig(n_procs=workers, n_bands=12, n_blocks=8),
    ).alignments
    agree = [a.region for a in result.regions] == [a.region for a in sim]
    print(f"simulated backend found the same queue: {agree}")

    print("\ntop regions:")
    for a in result.regions[:3]:
        print(f"  score {a.score}: s[{a.s_start}:{a.s_end}] ~ t[{a.t_start}:{a.t_end}]")

    # The sequences are already published: a second request reuses the
    # live workers with no respawn and no re-pickling.
    again = run_mp_pipeline(
        pair.s, pair.t, backend="blocked", pool=pool, phase1_config=config
    )
    print(
        f"\nsecond request on the warm pool: {again.phase1_seconds:.2f} s phase 1, "
        f"{again.phase2_seconds:.2f} s phase 2"
    )

print(f"\nphase 2 on the worker pool: {len(result.records)} global alignments")
for rec in result.best_records(2):
    print()
    print(rec.render())
