"""Self-tests of the benchmark: seeded inputs, the result line, the layer map.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import repro.seq  # noqa: E402
from repro.strategies import AUTO_MIN_SEQUENCES  # noqa: E402

from perfbench import inputs, workloads  # noqa: E402
from perfbench.harness import END_TO_END_UNITS, run_workload, tail  # noqa: E402
from perfbench.tests import slow_cli  # noqa: E402

SEARCH_GENERATORS = [inputs.scan_inputs, inputs.homolog_inputs, inputs.cli_inputs]


def _search_fingerprint(data) -> list:
    return [q.tobytes() for q in data.queries] + [
        (r.name, r.codes.tobytes()) for r in data.database
    ]


def _align_fingerprint(pairs) -> list:
    return [(p.s.tobytes(), p.t.tobytes(), tuple(p.regions)) for p in pairs]


@pytest.mark.parametrize("make", SEARCH_GENERATORS)
def test_search_inputs_are_deterministic_per_seed(make):
    assert _search_fingerprint(make(7)) == _search_fingerprint(make(7))
    assert _search_fingerprint(make(7)) != _search_fingerprint(make(8))


def test_align_inputs_are_deterministic_per_seed():
    assert _align_fingerprint(inputs.align_inputs(7)) == _align_fingerprint(
        inputs.align_inputs(7)
    )
    assert _align_fingerprint(inputs.align_inputs(7)) != _align_fingerprint(
        inputs.align_inputs(8)
    )


@pytest.mark.parametrize("make", SEARCH_GENERATORS)
def test_search_databases_engage_auto_prefilter(make):
    assert len(make(1).database) >= AUTO_MIN_SEQUENCES


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(40)]
    latency, percentile = tail(values)
    assert sum(v > latency for v in values) == 10
    assert percentile == pytest.approx(75.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_result_line_contract():
    proc = _run_cli(
        ROOT, "--workload", "search-scan", "--seed", "3", "--seconds", "2", "--trace", "0"
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in line["metrics"].values())


def _session_processes(sid: int) -> list[str]:
    """Command lines of the live processes in session ``sid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            if os.getsid(int(entry.name)) == sid:
                found.append((entry / "cmdline").read_bytes().replace(b"\0", b" ").decode())
        except (OSError, ProcessLookupError):
            pass
    return found


@pytest.mark.parametrize("name", ["search-scan", "search-cli"])
def test_run_leaves_no_process_behind(name):
    """Pool workers, CLI children and the shared-memory resource tracker are
    all ended before the benchmark exits."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "4",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=170) == 0
    assert _session_processes(proc.pid) == []


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _run_cli(
        tmp_path, "--workload", "search-scan", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def _metrics(name: str, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name](5, ROOT)
    result = run_workload(workload, ROOT, seconds, trace)
    assert result["correct"], result["notes"]
    return result["metrics"]


def test_slow_parse_moves_cli_latency_and_parse_layer_only(monkeypatch):
    """A delay injected into ``seq.read_fasta`` must show in ``seq.parse_s``
    and ``op_p50_s`` on search-cli, and leave search-scan unmoved."""
    delay = slow_cli.DELAY_S
    base_cli = _metrics("search-cli", 4, False)
    base_scan = _metrics("search-scan", 4, False)

    monkeypatch.setattr(repro.seq, "read_fasta", slow_cli.slow(repro.seq.read_fasta))
    monkeypatch.setattr(workloads, "CLI_COMMAND", [sys.executable, slow_cli.__file__])
    slow_cli_e2e = _metrics("search-cli", 4, False)
    slow_cli_layers = _metrics("search-cli", 3, True)
    slow_scan = _metrics("search-scan", 4, False)

    assert slow_cli_e2e["op_p50_s"] - base_cli["op_p50_s"] > 0.7 * delay
    # The parse phase reads one query file, as one op does.
    assert slow_cli_layers["seq.parse_s"] > 0.9 * delay
    assert abs(slow_scan["op_p50_s"] - base_scan["op_p50_s"]) < 0.3 * delay
