import pytest

from repro.cli import EXIT_BAD_FASTA, EXIT_MISSING_INPUT, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_align_defaults(self):
        args = build_parser().parse_args(["align", "--demo"])
        assert args.strategy == "heuristic_block"
        assert args.procs == 8

    def test_bad_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["align", "--demo", "--strategy", "nope"])


class TestAlign:
    def test_demo_align(self, capsys):
        rc = main(["align", "--demo", "--demo-length", "1000", "--procs", "2", "--top", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase 1" in out and "similar regions" in out
        assert "similarity:" in out

    def test_demo_align_accepts_alias_names(self, capsys):
        rc = main(
            ["align", "--demo", "--demo-length", "600",
             "--strategy", "blocked", "--procs", "2", "--top", "1"]
        )
        assert rc == 0
        assert "heuristic_block" in capsys.readouterr().out

    def test_inline_backend_reports_wall_clock(self, capsys):
        rc = main(
            ["align", "--demo", "--demo-length", "600", "--backend", "inline",
             "--strategy", "wavefront", "--procs", "2", "--top", "1"]
        )
        assert rc == 0
        assert "inline execution" in capsys.readouterr().out

    def test_scaled_run_explains_the_phase2_skip(self, capsys):
        rc = main(
            ["align", "--demo", "--demo-length", "600", "--scale", "4",
             "--procs", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase 2 skipped:" in out and "scale=4" in out

    def test_align_fasta_files(self, tmp_path, capsys):
        main(
            [
                "generate",
                str(tmp_path / "a.fa"),
                str(tmp_path / "b.fa"),
                "--length", "1200", "--regions", "1", "--region-length", "80",
            ]
        )
        rc = main(
            [
                "align",
                str(tmp_path / "a.fa"),
                str(tmp_path / "b.fa"),
                "--procs", "2", "--top", "1",
            ]
        )
        assert rc == 0
        assert "align_s:" in capsys.readouterr().out


class TestBadInput:
    """Missing or headerless FASTA inputs end in one stderr line and a
    distinct exit code, never a traceback."""

    @pytest.fixture
    def files(self, tmp_path):
        good = tmp_path / "good.fa"
        good.write_text(">q\nACGTACGTTTGACCA\n")
        headerless = tmp_path / "headerless.fa"
        headerless.write_text("ACGTACGT\n>late\nACGT\n")
        return good, headerless, tmp_path / "missing.fa"

    @pytest.mark.parametrize(
        "command, slot",
        [("align", 0), ("align", 1), ("search", 0), ("search", 1)],
    )
    def test_missing_file(self, files, capsys, command, slot):
        good, _, missing = files
        argv = [str(good), str(good)]
        argv[slot] = str(missing)
        assert main([command, *argv]) == EXIT_MISSING_INPUT
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert str(missing) in captured.err and "no such file" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "command, slot",
        [("align", 0), ("align", 1), ("search", 0), ("search", 1)],
    )
    def test_headerless_fasta(self, files, capsys, command, slot):
        good, headerless, _ = files
        argv = [str(good), str(good)]
        argv[slot] = str(headerless)
        assert main([command, *argv]) == EXIT_BAD_FASTA
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert str(headerless) in captured.err and "header" in captured.err

    def test_exit_codes_are_distinct_and_not_usage_errors(self):
        assert len({EXIT_MISSING_INPUT, EXIT_BAD_FASTA, 0, 1, 2}) == 5

    def test_module_entry_point_exits_with_the_code(self, files):
        import os
        import subprocess
        import sys

        _, _, missing = files
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "search", str(missing), str(missing)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == EXIT_MISSING_INPUT
        assert proc.stderr.strip().splitlines() == [
            f"repro search: {missing}: no such file"
        ]


class TestGenerate:
    def test_writes_fasta(self, tmp_path, capsys):
        rc = main(
            [
                "generate",
                str(tmp_path / "a.fa"),
                str(tmp_path / "b.fa"),
                "--length", "500", "--regions", "1", "--region-length", "60",
            ]
        )
        assert rc == 0
        assert (tmp_path / "a.fa").exists()
        assert "planted region" in capsys.readouterr().out


class TestDotplot:
    def test_demo_dotplot(self, capsys):
        rc = main(["dotplot", "--demo", "--demo-length", "1500", "--threshold", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "similar regions" in out
        assert "+---" in out


class TestReport:
    def test_exports_markdown_and_csv(self, tmp_path, capsys):
        rc = main(["report", "sec6", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "sec6.md").exists()
        assert (tmp_path / "sec6.csv").exists()
        assert (tmp_path / "SUMMARY.md").exists()

    def test_unknown_name(self, tmp_path):
        with pytest.raises(ValueError):
            main(["report", "bogus", "--out", str(tmp_path)])


class TestTuneAndTrace:
    def test_tune_prints_ranking(self, capsys):
        rc = main(["tune", "--rows", "10000", "--cols", "10000", "--procs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best blocking multiplier" in out
        assert "<-- best" in out

    def test_trace_writes_chrome_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "t.json"
        rc = main(["trace", "--demo", "--demo-length", "500", "--procs", "2",
                   "--out", str(out)])
        assert rc == 0
        events = json.loads(out.read_text())["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)


class TestObs:
    def test_align_trace_and_report(self, tmp_path, capsys):
        """Acceptance: `align --backend mp --trace` yields a Chrome trace with
        spans from >= 2 workers plus the coordinator; `obs report` reads it."""
        import json

        out = tmp_path / "t.json"
        rc = main(
            [
                "align", "--demo", "--demo-length", "500",
                "--backend", "mp", "--mp-workers", "2",
                "--trace", str(out), "--metrics",
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "GCUPS" in printed and "phase1" in printed

        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        procs = {e["args"]["process"] for e in events}
        assert "coordinator" in procs
        assert {"worker-0", "worker-1"} <= procs
        assert "reproMetrics" in payload

        rc = main(["obs", "report", str(out)])
        assert rc == 0
        report = capsys.readouterr().out
        assert "phase1" in report and "phase2" in report and "GCUPS" in report


class TestExperiment:
    def test_unknown_name(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["experiment", "table99"])

    def test_sec6(self, capsys):
        rc = main(["experiment", "sec6"])
        assert rc == 0
        assert "~30%" in capsys.readouterr().out


class TestCheck:
    def test_plans_sweep_alone_is_clean(self, capsys):
        rc = main(["check", "--plans"])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_no_paths_and_no_plans_is_a_usage_error(self, capsys):
        rc = main(["check"])
        assert rc == 2
        assert "need paths" in capsys.readouterr().out

    def test_baseline_ratchet(self, tmp_path, capsys, monkeypatch):
        """Known findings pass against their own report; new ones fail."""
        import json

        # Relative paths: rule scoping (core/...) is path-derived.
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "core"
        bad.mkdir()
        (bad / "multi_engine.py").write_text(
            "import numpy as np\nPAD = np.int8(-300)\n"
        )
        rc = main(["check", "core", "--format", "json"])
        assert rc == 1
        report = capsys.readouterr().out
        assert json.loads(report)["count"] == 1
        baseline = tmp_path / "base.json"
        baseline.write_text(report)

        # Same tree vs its own report: the known finding is tolerated.
        rc = main(["check", "core", "--baseline", str(baseline)])
        assert rc == 0
        assert "1 known, 0 fixed, 0 new" in capsys.readouterr().out

        # A second regression is new and fails the gate.
        (bad / "striped_helper.py").write_text(
            "import numpy as np\nCAP = np.int16(90000)\n"
        )
        rc = main(["check", "core", "--baseline", str(baseline)])
        assert rc == 1
        assert "1 new" in capsys.readouterr().out
