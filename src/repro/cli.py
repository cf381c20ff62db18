"""``genomedsm`` command-line interface.

Subcommands
-----------
``align``      compare two FASTA files (or a synthetic demo pair) with one of
               the paper's strategies on the simulated cluster and print the
               similar regions plus their global alignments.  ``--trace FILE``
               writes a wall-clock Chrome trace (coordinator + worker spans,
               open in https://ui.perfetto.dev); ``--metrics`` prints the
               metric registry (cells, GCUPS, queue waits).
``obs``        observability utilities; ``obs report TRACE.json`` prints the
               per-phase time/cells/GCUPS table from an ``align --trace`` run.
               ``obs critical-path TRACE.json`` joins the per-tile spans
               against the plan's task graph: achieved vs theoretical
               critical path, per-worker utilization, classified stalls.
               ``obs gantt TRACE.json`` renders the same window as an ASCII
               timeline.  ``obs diff A B`` compares two run-ledger entries
               (or BENCH-style json files) and exits 1 on regressions past
               the benchmark guard's threshold.
``search``     scan one query against a FASTA database with the batched
               multi-sequence kernel (length-bucketed SIMD lanes) and print
               the top-scoring hits; ``--workers N`` fans buckets out over
               the persistent worker pool's dynamic work queue.
``check``      run the project's static analyzer (``repro.check``) over one or
               more paths; exits 1 when findings remain.  ``--format json``
               emits the machine-readable report CI archives.
``experiment`` regenerate one of the paper's tables/figures (or ``all``).
``generate``   write a synthetic genome pair with planted homologies.
``generate-db`` write a synthetic FASTA database for ``search`` runs.
``dotplot``    print the Fig. 14-style dot plot for two FASTA files.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__

#: Exit codes of input failures (argparse already exits 2 on bad usage).
EXIT_MISSING_INPUT = 3
EXIT_BAD_FASTA = 4


class InputError(Exception):
    """A command's input file is missing or malformed; ``main`` prints the
    message as one line and exits with ``code``."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _fasta_input(path, read, *args):
    """Call ``read(*args)``, turning a missing or headerless FASTA ``path``
    into an :class:`InputError`."""
    from .seq.fasta import FastaError

    try:
        return read(*args)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file", EXIT_MISSING_INPUT) from None
    except FastaError as exc:
        raise InputError(f"{path}: not FASTA ({exc})", EXIT_BAD_FASTA) from None


def _load_pair(args) -> tuple:
    """Sequences from FASTA paths, or a seeded demo pair."""
    from .seq import genome_pair, read_fasta

    if args.demo or not (args.seq_a and args.seq_b):
        region_length = max(60, args.demo_length // 40)
        gp = genome_pair(
            args.demo_length,
            args.demo_length,
            n_regions=3,
            region_length=region_length,
            mutation_rate=0.05,
            rng=args.seed,
            # keep the demo working at any length: shrink the spacing to fit
            min_separation=min(3 * region_length, args.demo_length // 8),
        )
        return gp.s, gp.t
    a = _fasta_input(args.seq_a, read_fasta, args.seq_a)
    b = _fasta_input(args.seq_b, read_fasta, args.seq_b)
    if not a or not b:
        raise SystemExit("empty FASTA input")
    return a[0].codes, b[0].codes


def _install_ledger(args) -> None:
    """Route this command's runs into a jsonl ledger when ``--ledger`` is set."""
    if getattr(args, "ledger", None):
        from .obs.ledger import set_ledger

        set_ledger(args.ledger)


def cmd_align(args) -> int:
    from contextlib import nullcontext

    from . import obs

    _install_ledger(args)
    s, t = _load_pair(args)
    observing = bool(args.trace or args.metrics)
    scope = obs.observed("coordinator") if observing else nullcontext((None, None))
    with scope as (tracer, metrics):
        if args.backend == "mp":
            from .strategies import canonical_strategy, run_mp_pipeline

            strategy = canonical_strategy(args.strategy)
            if strategy == "pre_process":
                raise SystemExit(
                    f"strategy {args.strategy!r} has no real-parallel backend; "
                    "use --strategy heuristic or heuristic_block with --backend mp"
                )
            mp_config = None
            if args.kernel != "classic":
                from .parallel import MpBlockedConfig, MpWavefrontConfig

                if strategy == "heuristic":
                    mp_config = MpWavefrontConfig(
                        n_workers=args.mp_workers, kernel=args.kernel
                    )
                else:
                    mp_config = MpBlockedConfig(
                        n_workers=args.mp_workers, kernel=args.kernel
                    )
            result = run_mp_pipeline(
                s,
                t,
                backend=args.strategy,
                n_workers=args.mp_workers,
                phase1_config=mp_config,
            )
            print(
                f"phase 1 ({result.backend}, {result.n_workers} worker processes): "
                f"{result.phase1_seconds:.2f} s wall, {len(result.regions)} similar regions"
            )
            print(
                f"phase 2: {result.phase2_seconds:.2f} s wall, "
                f"{len(result.records)} global alignments"
            )
            for rec in result.best_records(args.top):
                print()
                print(rec.render())
        else:
            from .strategies import run_pipeline

            executor = None
            if args.backend == "inline":
                from .plan import InlineExecutor

                executor = InlineExecutor()
            phase1_config = None
            if args.kernel != "classic":
                from .strategies import (
                    BlockedConfig,
                    PreprocessConfig,
                    WavefrontConfig,
                    canonical_strategy,
                )

                phase1_config = {
                    "heuristic": WavefrontConfig(
                        n_procs=args.procs, kernel=args.kernel
                    ),
                    "heuristic_block": BlockedConfig(
                        n_procs=args.procs, kernel=args.kernel
                    ),
                    "pre_process": PreprocessConfig(
                        n_procs=args.procs, kernel=args.kernel
                    ),
                }[canonical_strategy(args.strategy)]
            result = run_pipeline(
                s,
                t,
                strategy=args.strategy,
                n_procs=args.procs,
                scale=args.scale,
                phase1_config=phase1_config,
                executor=executor,
            )
            p1 = result.phase1
            if args.backend == "inline":
                print(
                    f"phase 1 ({p1.name}, inline execution): "
                    f"{p1.total_time:.2f} s wall, {len(p1.alignments)} similar regions"
                )
            else:
                print(
                    f"phase 1 ({p1.name}, {p1.n_procs} simulated processors): "
                    f"{p1.total_time:.2f} virtual s, {len(p1.alignments)} similar regions"
                )
            if result.phase2_skipped_reason:
                print(f"phase 2 skipped: {result.phase2_skipped_reason}")
            else:
                print(
                    f"phase 2: {result.phase2.total_time:.2f} virtual s, "
                    f"{len(result.records)} global alignments "
                    f"({result.wall_seconds:.2f} s wall)"
                )
            for rec in result.best_records(args.top):
                print()
                print(rec.render())
    if args.trace:
        tracer.write_chrome_trace(args.trace, metrics=metrics.snapshot())
        print()
        print(
            f"wrote {args.trace}: {len(tracer.spans)} spans from "
            f"{len(tracer.processes())} process(es) "
            "(open in https://ui.perfetto.dev, or run: obs report)"
        )
    if args.metrics:
        from .obs.report import render_report

        print()
        print(
            render_report(
                {
                    "traceEvents": tracer.to_chrome_trace(),
                    "reproMetrics": metrics.snapshot(),
                }
            )
        )
    return 0


def cmd_search(args) -> int:
    from contextlib import nullcontext

    from . import obs
    from .seq import pack_database, read_fasta, stream_fasta
    from .strategies import SearchConfig, search_db

    _install_ledger(args)
    queries = _fasta_input(args.query, read_fasta, args.query)
    if not queries:
        raise SystemExit("empty query FASTA")
    query = queries[0]
    if args.workers > 1 and args.shards > args.workers:
        raise SystemExit(
            f"--shards {args.shards} exceeds --workers {args.workers}: "
            "each shard needs its own worker group"
        )
    config = SearchConfig(
        top_k=args.top,
        max_lanes=args.batch_lanes,
        max_waste=args.max_waste,
        kernel=args.kernel,
        prefilter=args.prefilter,
        n_shards=args.shards,
        cache=args.cache,
    )
    observing = bool(args.trace or args.metrics)
    scope = obs.observed("coordinator") if observing else nullcontext((None, None))
    with scope as (tracer, metrics):
        packed = _fasta_input(
            args.database,
            lambda: pack_database(
                stream_fasta(args.database),
                max_lanes=config.resolved_max_lanes,
                max_waste=config.resolved_max_waste,
            ),
        )
        repeats = max(1, args.repeat)
        if args.workers > 1:
            from .parallel import AlignmentWorkerPool

            with AlignmentWorkerPool(n_workers=args.workers) as pool:
                runs = [
                    search_db(query.codes, packed, config, pool=pool)
                    for _ in range(repeats)
                ]
        else:
            runs = [search_db(query.codes, packed, config) for _ in range(repeats)]
        result = runs[0]
    print(
        f"query {query.name} ({len(query.codes)} bp) vs {result.n_sequences} "
        f"sequences ({packed.total_residues:,} residues in {len(packed.buckets)} "
        f"buckets, {packed.padded_slots - packed.total_residues:,} padded slots)"
    )
    shard_note = f", {result.n_shards} shard(s)" if result.n_shards > 1 else ""
    print(
        f"{result.total_cells:,} cells in {result.wall_seconds:.3f} s wall = "
        f"{result.gcups:.3f} GCUPS ({result.backend}, {result.n_workers} "
        f"worker(s){shard_note})"
    )
    if result.prefilter != "off":
        print(
            f"prefilter [{result.prefilter}]: {result.sequences_pruned:,} of "
            f"{result.n_sequences:,} sequences pruned "
            f"({result.pruned_fraction:.1%}), {result.cells_skipped:,} DP cells skipped"
        )
    print()
    print(f"{'rank':>4}  {'score':>6}  {'length':>7}  name")
    for rank, hit in enumerate(result.hits, 1):
        print(f"{rank:>4}  {hit.score:>6}  {hit.length:>7}  {hit.name}")
    if args.cache:
        from .strategies.cache import DEFAULT_CACHE

        served = sum(1 for r in runs if r.cached)
        stats = DEFAULT_CACHE.stats()
        print()
        print(
            f"cache: {served} of {len(runs)} run(s) served from cache "
            f"({stats['hits']} hit(s), {stats['misses']} miss(es), "
            f"{stats['evictions']} eviction(s), {stats['entries']} entries)"
        )
    if args.trace:
        tracer.write_chrome_trace(args.trace, metrics=metrics.snapshot())
        print()
        print(
            f"wrote {args.trace}: {len(tracer.spans)} spans from "
            f"{len(tracer.processes())} process(es)"
        )
    if args.metrics:
        from .obs.report import render_report

        print()
        print(
            render_report(
                {
                    "traceEvents": tracer.to_chrome_trace(),
                    "reproMetrics": metrics.snapshot(),
                }
            )
        )
    return 0


def cmd_bench_kernels(args) -> int:
    from .analysis.bench import record_bench, run_kernel_bench, write_bench

    _install_ledger(args)
    results = run_kernel_bench(quick=args.quick, progress=print)
    write_bench(results, args.out)
    print(f"wrote {args.out}: {len(results)} benchmark entries")
    entry = record_bench(results)
    if entry is not None:
        print(f"ledger entry {entry['run_id']} ({len(entry['rates'])} rates)")
    return 0


def cmd_check(args) -> int:
    from .check import check_paths, findings_from_json, render_json, render_text
    from .check.rules import DEFAULT_RULES

    if not args.paths and not args.plans:
        print("repro check: need paths to analyze, --plans, or both")
        return 2
    findings = check_paths(args.paths) if args.paths else []
    if args.plans:
        from dataclasses import replace

        from .plan import sweep_plans

        # The sweep's finding paths name only the plan kind; stamp the full
        # combination (planner[kernel]@backend) so a report line identifies
        # which sweep leg broke.
        findings.extend(
            replace(finding, path=f"<plan:{label}@{backend}>")
            for label, backend, finding in sweep_plans()
        )
        findings.sort()
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            known = set(findings_from_json(fh.read()))
        new = [f for f in findings if f not in known]
        fixed = len(known) - len(set(findings) & known)
        if args.format == "json":
            print(render_json(new, DEFAULT_RULES))
        else:
            print(render_text(new))
            print(f"baseline: {len(known)} known, {fixed} fixed, {len(new)} new")
        return 1 if new else 0
    if args.format == "json":
        print(render_json(findings, DEFAULT_RULES))
    else:
        print(render_text(findings))
    return 1 if findings else 0


def cmd_obs_report(args) -> int:
    from .obs.report import load_trace, render_report

    print(render_report(load_trace(args.trace)))
    return 0


def cmd_obs_critical_path(args) -> int:
    from .obs.attrib import attribute, load_payload

    attrib = attribute(load_payload(args.trace), pick=args.plan)
    print(attrib.render(top_stalls=args.stalls))
    return 0


def cmd_obs_gantt(args) -> int:
    from .obs.attrib import load_payload, render_gantt

    print(render_gantt(load_payload(args.trace), width=args.width, pick=args.plan))
    return 0


def cmd_obs_diff(args) -> int:
    from .obs.ledger import (
        REGRESSION_THRESHOLD,
        RunLedger,
        active_ledger,
        diff_entries,
        render_diff,
        resolve_ref,
    )

    ledger = RunLedger(args.ledger) if args.ledger else active_ledger()
    before = resolve_ref(ledger, args.before)
    after = resolve_ref(ledger, args.after)
    threshold = REGRESSION_THRESHOLD if args.threshold is None else args.threshold
    rows = diff_entries(before, after, threshold=threshold)
    print(render_diff(before, after, rows))
    return 1 if any(r["regressed"] for r in rows) else 0


def cmd_experiment(args) -> int:
    from .analysis import ALL_EXPERIMENTS

    names = list(ALL_EXPERIMENTS) if args.name == "all" else [args.name]
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        raise SystemExit(
            f"unknown experiment(s) {unknown}; available: {', '.join(ALL_EXPERIMENTS)}"
        )
    for name in names:
        report = ALL_EXPERIMENTS[name]()
        print(report.render())
        for key, value in report.series.items():
            if isinstance(value, str):
                print(f"-- {key} --\n{value}")
        print()
    return 0


def cmd_tune(args) -> int:
    from .strategies import tune_blocking

    result = tune_blocking(args.rows, args.cols, n_procs=args.procs)
    print(
        f"best blocking multiplier for {args.rows} x {args.cols} on "
        f"{args.procs} processors: {result.best[0]} x {result.best[1]} "
        f"({result.best_time:,.1f} virtual s)"
    )
    for multiplier, time in result.ranking():
        marker = " <-- best" if multiplier == result.best else ""
        print(f"  {multiplier[0]} x {multiplier[1]}: {time:,.1f} s{marker}")
    return 0


def cmd_trace(args) -> int:
    from .sim import Timeline
    from .strategies import BlockedConfig, ScaledWorkload, run_blocked

    s, t = _load_pair(args)
    timeline = Timeline()
    run_blocked(
        ScaledWorkload(s, t), BlockedConfig(n_procs=args.procs), timeline=timeline
    )
    timeline.write_chrome_trace(args.out)
    print(
        f"wrote {args.out}: {len(timeline)} slices over "
        f"{timeline.span:.2f} virtual s "
        f"(open in chrome://tracing or https://ui.perfetto.dev)"
    )
    return 0


def cmd_report(args) -> int:
    from .analysis import ALL_EXPERIMENTS
    from .analysis.report import run_and_export

    names = list(ALL_EXPERIMENTS) if args.name == "all" else [args.name]
    reports = run_and_export(names, args.out)
    for report in reports:
        print(f"wrote {args.out}/{report.ident}.md and .csv")
    return 0


def cmd_generate(args) -> int:
    from .seq import FastaRecord, genome_pair, write_fasta

    gp = genome_pair(
        args.length,
        args.length,
        n_regions=args.regions,
        region_length=args.region_length,
        mutation_rate=args.mutation_rate,
        rng=args.seed,
    )
    write_fasta(args.out_a, [FastaRecord("synthetic_s", gp.s)])
    write_fasta(args.out_b, [FastaRecord("synthetic_t", gp.t)])
    print(f"wrote {args.out_a} and {args.out_b}")
    for r in gp.regions:
        print(
            f"planted region: s[{r.s_start}:{r.s_end}] ~ t[{r.t_start}:{r.t_end}] "
            f"identity {r.identity:.0%}"
        )
    return 0


def cmd_generate_db(args) -> int:
    from .seq import synthetic_database, write_fasta

    records = synthetic_database(
        n=args.n, min_length=args.min_length, max_length=args.max_length, rng=args.seed
    )
    write_fasta(args.out, records)
    total = sum(len(r.codes) for r in records)
    print(f"wrote {args.out}: {len(records)} sequences, {total:,} residues")
    return 0


def cmd_dotplot(args) -> int:
    from .core import RegionConfig, find_regions
    from .seq import dotplot

    s, t = _load_pair(args)
    regions = find_regions(s, t, RegionConfig(threshold=args.threshold))
    plot = dotplot(
        [(r.s_start, r.s_end, r.t_start, r.t_end) for r in regions],
        len(s),
        len(t),
    )
    print(f"{len(regions)} similar regions (threshold {args.threshold})")
    print(plot.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genomedsm",
        description="Parallel local DNA sequence alignment on a simulated "
        "cluster of workstations (Boukerche et al., JPDC 2007 reproduction).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair_args(p):
        p.add_argument("seq_a", nargs="?", help="FASTA file for sequence s")
        p.add_argument("seq_b", nargs="?", help="FASTA file for sequence t")
        p.add_argument("--demo", action="store_true", help="use a synthetic pair")
        p.add_argument("--demo-length", type=int, default=2000)
        p.add_argument("--seed", type=int, default=42)

    p_align = sub.add_parser("align", help="compare two sequences")
    add_pair_args(p_align)
    p_align.add_argument(
        "--strategy",
        default="heuristic_block",
        choices=(
            "heuristic",
            "heuristic_block",
            "pre_process",
            # mp-backend aliases, accepted everywhere
            "wavefront",
            "blocked",
            "preprocess",
        ),
    )
    p_align.add_argument("--procs", type=int, default=8)
    p_align.add_argument(
        "--backend",
        default="sim",
        choices=("sim", "inline", "mp"),
        help="sim = virtual cluster (paper's cost model); "
        "inline = single-process real execution of the same task graph; "
        "mp = real worker processes via the persistent shared-memory pool",
    )
    p_align.add_argument(
        "--scale",
        type=int,
        default=1,
        help="workload scale factor for --backend sim (phase 2 is skipped "
        "when scale > 1; the result says why)",
    )
    p_align.add_argument(
        "--mp-workers", type=int, default=2, help="process count for --backend mp"
    )
    p_align.add_argument("--top", type=int, default=3, help="alignments to print")
    p_align.add_argument(
        "--trace",
        metavar="FILE",
        help="write a wall-clock Chrome-trace JSON (coordinator + mp worker "
        "spans; open in Perfetto or feed to 'obs report')",
    )
    p_align.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry (cells, GCUPS, queue waits) after the run",
    )
    p_align.add_argument(
        "--kernel",
        default="classic",
        choices=("classic", "striped"),
        help="row kernel: classic dense scans, or the striped query-profile "
        "kernel with narrow lanes and overflow recovery",
    )
    p_align.add_argument(
        "--ledger",
        metavar="FILE",
        help="append this run's headline rates (and attribution summary when "
        "--trace/--metrics is on) to a jsonl run ledger for 'obs diff'",
    )
    p_align.set_defaults(func=cmd_align)

    p_search = sub.add_parser("search", help="scan a query against a FASTA database")
    p_search.add_argument("query", help="FASTA file; the first record is the query")
    p_search.add_argument("database", help="FASTA database of target sequences")
    p_search.add_argument("--top", type=int, default=10, help="hits to report")
    p_search.add_argument(
        "--workers",
        type=int,
        default=1,
        help="1 = in-process batched scan; >1 = dynamic dispatch over the pool",
    )
    p_search.add_argument(
        "--batch-lanes",
        type=int,
        default=None,
        help="max sequences per SIMD batch (default: 512 classic, 4096 striped)",
    )
    p_search.add_argument(
        "--max-waste",
        type=float,
        default=None,
        help="max padded fraction of a batch before a new length bucket is cut "
        "(default: 0.15 classic, 0.5 striped)",
    )
    p_search.add_argument(
        "--kernel",
        default="classic",
        choices=("classic", "striped"),
        help="bucket scan kernel: classic dense batch, or the striped "
        "query-profile kernel with narrow lanes and overflow recovery",
    )
    p_search.add_argument(
        "--prefilter",
        default="auto",
        choices=("off", "composition", "kmer", "auto"),
        help="exact score-bound pruning: skip the DP scan of sequences whose "
        "admissible ceiling cannot reach the top-k (rankings are unchanged; "
        "auto = kmer tiers on databases of 512+ sequences)",
    )
    p_search.add_argument(
        "--shards",
        type=int,
        default=1,
        help="deal the database round-robin into this many disjoint shards, "
        "each scanned independently and tournament-merged (rankings are "
        "unchanged; with --workers, shards may not exceed workers)",
    )
    p_search.add_argument(
        "--cache",
        action="store_true",
        help="consult the content-addressed result cache: a repeat of the "
        "same (query, database, scoring, top-k, prefilter) search is served "
        "without planning or DP work",
    )
    p_search.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run the search this many times (with --cache, runs after the "
        "first are hits; reported below the ranking)",
    )
    p_search.add_argument(
        "--trace", metavar="FILE", help="write a wall-clock Chrome-trace JSON"
    )
    p_search.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry (cells, GCUPS, per-worker rates) after the run",
    )
    p_search.add_argument(
        "--ledger",
        metavar="FILE",
        help="append this run's search rates to a jsonl run ledger for 'obs diff'",
    )
    p_search.set_defaults(func=cmd_search)

    p_bench = sub.add_parser(
        "bench", help="regenerate the committed benchmark baselines"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_bench_kernels = bench_sub.add_parser(
        "kernels", help="deterministic kernel suite -> BENCH_kernels.json"
    )
    p_bench_kernels.add_argument(
        "--out", default="BENCH_kernels.json", help="output JSON path"
    )
    p_bench_kernels.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads and one timing round (CI smoke; numbers are "
        "not comparable to the committed baseline)",
    )
    p_bench_kernels.add_argument(
        "--ledger",
        metavar="FILE",
        help="also append the suite's rates to a jsonl run ledger, so 'obs "
        "diff' can compare runs (or a run against BENCH_kernels.json)",
    )
    p_bench_kernels.set_defaults(func=cmd_bench_kernels)

    p_check = sub.add_parser(
        "check", help="run the project-specific static analyzer"
    )
    p_check.add_argument(
        "paths", nargs="*", help="files or directories to analyze (e.g. src/)"
    )
    p_check.add_argument(
        "--format",
        default="text",
        choices=("text", "json"),
        help="text = one line per finding; json = machine-readable report",
    )
    p_check.add_argument(
        "--plans",
        action="store_true",
        help="also statically verify every planner x backend x kernel x "
        "prefilter combination (PLAN001-PLAN006)",
    )
    p_check.add_argument(
        "--baseline",
        metavar="FILE",
        help="a previous --format json report; only findings NOT in it fail "
        "the run (the CI ratchet: fixed findings shrink the baseline, new "
        "ones fail the build)",
    )
    p_check.set_defaults(func=cmd_check)

    p_obs = sub.add_parser("obs", help="observability utilities")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_report = obs_sub.add_parser(
        "report", help="per-phase time/cells/GCUPS table from a trace file"
    )
    p_obs_report.add_argument("trace", help="JSON file written by align --trace")
    p_obs_report.set_defaults(func=cmd_obs_report)
    p_obs_cp = obs_sub.add_parser(
        "critical-path",
        help="achieved vs theoretical critical path, per-worker utilization "
        "and classified stalls from a traced plan run",
    )
    p_obs_cp.add_argument("trace", help="JSON file written by align/search --trace")
    p_obs_cp.add_argument(
        "--plan",
        type=int,
        default=None,
        help="plan span index in trace order (default: the largest by cells)",
    )
    p_obs_cp.add_argument(
        "--stalls", type=int, default=5, help="stall intervals to list"
    )
    p_obs_cp.set_defaults(func=cmd_obs_critical_path)
    p_obs_gantt = obs_sub.add_parser(
        "gantt", help="ASCII per-process timeline of one traced plan window"
    )
    p_obs_gantt.add_argument("trace", help="JSON file written by align/search --trace")
    p_obs_gantt.add_argument("--width", type=int, default=80, help="columns")
    p_obs_gantt.add_argument(
        "--plan",
        type=int,
        default=None,
        help="plan span index in trace order (default: the largest by cells)",
    )
    p_obs_gantt.set_defaults(func=cmd_obs_gantt)
    p_obs_diff = obs_sub.add_parser(
        "diff",
        help="compare two run-ledger entries (run ids, labels, negative "
        "indices, or BENCH-style json paths); exits 1 on regressions",
    )
    p_obs_diff.add_argument("before", help="baseline entry ref (e.g. -2)")
    p_obs_diff.add_argument("after", help="candidate entry ref (e.g. -1)")
    p_obs_diff.add_argument(
        "--ledger",
        metavar="FILE",
        help="ledger jsonl to resolve refs in (default: $REPRO_LEDGER)",
    )
    p_obs_diff.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="fractional loss that counts as a regression (default: the "
        "benchmark guard's 0.30)",
    )
    p_obs_diff.set_defaults(func=cmd_obs_diff)

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument("name", help="experiment id (e.g. table1, fig9) or 'all'")
    p_exp.set_defaults(func=cmd_experiment)

    p_tune = sub.add_parser("tune", help="auto-tune the blocking multiplier")
    p_tune.add_argument("--rows", type=int, default=50_000)
    p_tune.add_argument("--cols", type=int, default=50_000)
    p_tune.add_argument("--procs", type=int, default=8)
    p_tune.set_defaults(func=cmd_tune)

    p_trace = sub.add_parser("trace", help="export a chrome-trace of one run")
    add_pair_args(p_trace)
    p_trace.add_argument("--procs", type=int, default=8)
    p_trace.add_argument("--out", default="trace.json")
    p_trace.set_defaults(func=cmd_trace)

    p_rep = sub.add_parser("report", help="export a table/figure as Markdown + CSV")
    p_rep.add_argument("name", help="experiment id or 'all'")
    p_rep.add_argument("--out", default="reports", help="output directory")
    p_rep.set_defaults(func=cmd_report)

    p_gen = sub.add_parser("generate", help="write a synthetic genome pair")
    p_gen.add_argument("out_a")
    p_gen.add_argument("out_b")
    p_gen.add_argument("--length", type=int, default=50_000)
    p_gen.add_argument("--regions", type=int, default=3)
    p_gen.add_argument("--region-length", type=int, default=300)
    p_gen.add_argument("--mutation-rate", type=float, default=0.05)
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.set_defaults(func=cmd_generate)

    p_gen_db = sub.add_parser("generate-db", help="write a synthetic FASTA database")
    p_gen_db.add_argument("out")
    p_gen_db.add_argument("--n", type=int, default=100, help="number of sequences")
    p_gen_db.add_argument("--min-length", type=int, default=300)
    p_gen_db.add_argument("--max-length", type=int, default=700)
    p_gen_db.add_argument("--seed", type=int, default=42)
    p_gen_db.set_defaults(func=cmd_generate_db)

    p_dot = sub.add_parser("dotplot", help="plot similar regions")
    add_pair_args(p_dot)
    p_dot.add_argument("--threshold", type=int, default=35)
    p_dot.set_defaults(func=cmd_dotplot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
