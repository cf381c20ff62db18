"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/`` of
that checkout and from nowhere else.  Every metric is printed by name with
its unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics (tracing off); ``--trace 1`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Switches that add checking or logging work to every run; timed runs
#: measure the program without them.
HYGIENE_VARS = ("REPRO_LEDGER", "REPRO_SANITIZE", "REPRO_VERIFY_PLANS")


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _stop_helper_processes() -> None:
    """Stop every process this run started and wait for each to end.

    Pool workers are joined by ``close()``; any still alive are ended here.
    ``multiprocessing`` also starts a resource-tracker process the first time
    a shared-memory segment is made, which would otherwise run on for a
    while after this process exits.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return _run(argv)
    finally:
        _stop_helper_processes()


def _run(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for var in HYGIENE_VARS:
        os.environ.pop(var, None)
    _import_program()

    from perfbench.harness import END_TO_END_UNITS, run_workload
    from perfbench.workloads import LAYER_UNITS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    result = run_workload(workload, ROOT, args.seconds, bool(args.trace))

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {
        name: {"value": float(result["metrics"].get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    notes = result["notes"]
    print(
        f"# {notes['workload']}: closed loop, 1 client, {notes['workers']} worker(s), "
        f"seed {args.seed}, {notes['ops']} ops, tail = p{notes['tail_percentile']}"
    )
    for name, metric in metrics.items():
        print(f"{name:<34} {metric['value']:>16.6g} {metric['unit']}")
    print(f"# host probe p50 {notes['host_probe_ms_p50']:.3f} ms (diagnostic, not gated)")
    print(f"# set-ups {', '.join(f'{s:.3f}' for s in notes['setups_s'])} s")
    if not notes["reference_ok"]:
        print("# reference failed its own check (sequential spot check / planted regions)")
    for error in notes["errors"]:
        print(f"# failed: {error}")
    line = {k: result[k] for k in ("correct", "attempted", "failed")}
    line["metrics"] = metrics
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
