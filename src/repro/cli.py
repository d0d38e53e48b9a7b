"""Command-line interface: run the paper's experiments from the shell.

    python -m repro list                 # show the experiment catalogue
    python -m repro run fig3             # regenerate Figure 3
    python -m repro run table2 fig1      # several at once
    python -m repro run all              # the whole evaluation, serially
    python -m repro run-all --jobs 4     # the whole evaluation, in parallel
    python -m repro run-all --only fig3,table1 --no-cache
    python -m repro cache stats          # entry count, bytes, last-run hits
    python -m repro cache prune --max-bytes 50000000    # LRU eviction
    python -m repro explain robustness_pcpu_fail        # why did jobs miss?
    python -m repro explain robustness_pcpu_fail --job vm2.rta1#15
    python -m repro trace record robustness_pcpu_fail -o fail.rtvt
    python -m repro trace replay fail.rtvt --scheduler Credit --diff
    python -m repro trace diff fail.rtvt whatif.rtvt    # first divergence
    python -m repro explain fail.rtvt                   # blame from a trace
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional, Tuple

from .experiments import registry
from .simcore.time import SEC


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RTVirt (EuroSys'18) reproduction — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the reproducible tables and figures")
    run = sub.add_parser("run", help="run one or more experiments by id")
    run.add_argument(
        "ids",
        nargs="+",
        metavar="ID",
        help="experiment ids from `repro list`, or 'all'",
    )
    run.add_argument(
        "--blame",
        action="store_true",
        help="after each experiment, rerun it with causal spans attached "
        "and print the deadline-miss blame table (robustness_* ids only; "
        "any other id exits 2)",
    )
    run_all = sub.add_parser(
        "run-all",
        help="run experiments through the parallel runner with result caching",
    )
    run_all.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1: in-process, same work units)",
    )
    run_all.add_argument(
        "--only",
        metavar="IDS",
        help="comma-separated experiment ids or globs like 'robustness_*' "
        "(default: the whole registry)",
    )
    run_all.add_argument(
        "--seed",
        type=int,
        metavar="N",
        help="override the RNG seed of seed-taking experiments "
        "(robustness family); cache entries are keyed per seed",
    )
    run_all.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the result cache",
    )
    run_all.add_argument(
        "--refresh",
        action="store_true",
        help="ignore cached results but store fresh ones",
    )
    run_all.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="result cache location (default ./.repro_cache)",
    )
    run_all.add_argument(
        "--summaries",
        action="store_true",
        help="print each experiment's summary after the timing table",
    )
    run_all.add_argument(
        "--runs-dir",
        default="runs",
        metavar="PATH",
        help="run-ledger root; every run-all writes "
        "<runs-dir>/<stamp>/manifest.json (default ./runs)",
    )
    run_all.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not write a run-ledger manifest",
    )
    run_all.add_argument(
        "--trace",
        action="store_true",
        help="also record the robustness sweep's flight-recorder traces "
        "and store the merged trace next to the manifest",
    )
    cache = sub.add_parser(
        "cache", help="inspect and manage the run-all result cache"
    )
    cache.add_argument(
        "action",
        choices=("stats", "clear", "prune"),
        help="stats: entry count/bytes and last-run counters; clear: "
        "delete every entry; prune: evict LRU entries over --max-bytes",
    )
    cache.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="result cache location (default ./.repro_cache)",
    )
    cache.add_argument(
        "--max-bytes",
        type=int,
        metavar="N",
        help="prune target: evict least-recently-used entries until the "
        "cache plus the run ledger hold at most N bytes",
    )
    cache.add_argument(
        "--runs-dir",
        default="runs",
        metavar="PATH",
        help="run-ledger root included in stats and the prune sweep "
        "(default ./runs)",
    )
    cluster = sub.add_parser(
        "cluster",
        help="ad-hoc multi-host cluster run (placement, live migration, "
        "cross-host deadline audit)",
    )
    cluster.add_argument(
        "--mode",
        default="rebalance",
        choices=("consolidate", "rebalance", "hostfail", "clockskew"),
        help="management-plane scenario (default rebalance)",
    )
    cluster.add_argument(
        "--scheduler",
        default="RTVirt",
        choices=("RTVirt", "RT-Xen", "Credit"),
        help="host scheduler on every host (default RTVirt)",
    )
    cluster.add_argument(
        "--hosts",
        type=int,
        default=2,
        metavar="N",
        help="host count (default 2; clockskew is fixed to 2)",
    )
    cluster.add_argument(
        "--policy",
        default=None,
        choices=("worst_fit", "first_fit", "best_fit"),
        help="override the mode's default placement policy",
    )
    cluster.add_argument(
        "--duration-s",
        type=float,
        default=registry.CLUSTER_DURATION_NS / SEC,
        metavar="S",
        help="simulated seconds (default: the cluster_* registry length)",
    )
    cluster.add_argument(
        "--seed",
        type=int,
        default=registry.CLUSTER_SEED,
        metavar="N",
        help="RNG seed (default: the cluster_* registry seed)",
    )
    cluster.add_argument(
        "--clock-offset-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-host clock offset step (host i drifts i*MS ahead; "
        "default 0.2 ms, clockskew mode sweeps its own)",
    )
    cluster.add_argument(
        "--log",
        action="store_true",
        help="print the management-plane event log (placements, "
        "migrations, faults)",
    )
    scenario = sub.add_parser(
        "scenario", help="run a declarative JSON scenario file"
    )
    scenario.add_argument("path", help="path to the scenario JSON")
    scenario.add_argument(
        "--telemetry",
        action="store_true",
        help="attach streaming aggregators to the telemetry bus and "
        "print miss-ratio / latency-tail / bandwidth summaries",
    )
    scenario.add_argument(
        "--chrome-trace",
        metavar="PATH",
        help="record the run's execution trace and write it to PATH "
        "(.json) as a chrome://tracing timeline",
    )
    scenario.add_argument(
        "--blame",
        action="store_true",
        help="build causal job spans during the run and print the "
        "deadline-miss blame table",
    )
    scenario.add_argument(
        "--profile",
        metavar="PATH",
        help="self-profile the simulator (per-event-kind handler time, "
        "per-phase engine time) and write the snapshot to PATH (.json)",
    )
    explain = sub.add_parser(
        "explain",
        help="attribute deadline misses to root causes via causal spans",
    )
    explain.add_argument(
        "target",
        help="a robustness_<fault> or feedback_*/tenant_* experiment id, "
        "or a scenario JSON path",
    )
    explain.add_argument(
        "--job",
        metavar="TASK[#N]",
        help="render the causal timeline of one job (e.g. vm2.rta1#15); "
        "a bare task name shows its missed jobs",
    )
    explain.add_argument(
        "--scheduler",
        default="RTVirt",
        help="scheduler for --job timelines (default RTVirt)",
    )
    explain.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the blame sweep (default 1)",
    )
    explain.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="RNG seed (default: the experiment's registry seed)",
    )
    explain.add_argument(
        "--duration-s",
        type=float,
        default=None,
        metavar="S",
        help="simulated seconds per cell (default: the experiment's "
        "registry length)",
    )
    explain.add_argument(
        "--misses",
        type=int,
        default=5,
        metavar="N",
        help="worst misses listed per scheduler (default 5)",
    )
    trace = sub.add_parser(
        "trace",
        help="flight recorder: record, inspect, replay and diff "
        "durable telemetry traces",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    t_record = trace_sub.add_parser(
        "record", help="run once with the flight recorder attached"
    )
    t_record.add_argument(
        "target",
        help="a robustness_<fault> experiment id or a scenario JSON path",
    )
    t_record.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        help="trace file to write (default <target>.rtvt)",
    )
    t_record.add_argument(
        "--scheduler",
        default="RTVirt",
        help="scheduler for robustness targets (default RTVirt)",
    )
    t_record.add_argument(
        "--duration-s",
        type=float,
        default=None,
        metavar="S",
        help="simulated seconds for robustness targets (default: the "
        "registry length)",
    )
    t_record.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="RNG seed for robustness targets (default: the registry seed)",
    )
    t_inspect = trace_sub.add_parser(
        "inspect", help="print a trace's header, counts and canonical hash"
    )
    t_inspect.add_argument("path", help="recorded .rtvt trace file")
    t_replay = trace_sub.add_parser(
        "replay",
        help="re-drive a recorded stimulus, optionally under a "
        "different scheduler (what-if)",
    )
    t_replay.add_argument("path", help="recorded .rtvt trace file")
    t_replay.add_argument(
        "--scheduler",
        default=None,
        help="what-if scheduler override (default: the recorded one)",
    )
    t_replay.add_argument(
        "--record",
        metavar="PATH",
        help="also record the replay itself to PATH",
    )
    t_replay.add_argument(
        "--diff",
        action="store_true",
        help="diff the replay's trace against the original and print "
        "the first divergence",
    )
    t_diff = trace_sub.add_parser(
        "diff", help="structural divergence diff of two recorded traces"
    )
    t_diff.add_argument("path_a", help="first trace (A)")
    t_diff.add_argument("path_b", help="second trace (B)")
    t_diff.add_argument(
        "--context",
        type=int,
        default=3,
        metavar="N",
        help="shared events shown before the divergence (default 3)",
    )
    return parser


def _cmd_list() -> int:
    width = max(len(i) for i in registry.all_ids())
    for experiment_id in registry.all_ids():
        entry = registry.REGISTRY[experiment_id]
        print(f"{experiment_id:<{width}}  {entry.paper_ref:16s} {entry.description}")
    return 0


def _cmd_run(ids: List[str], blame: bool = False) -> int:
    from .runner import run_experiments

    if ids == ["all"]:
        ids = registry.all_ids()
    else:
        try:
            ids = registry.expand_ids(ids)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            print(f"known ids: {', '.join(registry.all_ids())}", file=sys.stderr)
            return 2
    if blame:
        unblamable = [i for i in ids if not i.startswith("robustness_")]
        if unblamable:
            print(
                f"--blame covers robustness_* ids only, not: "
                f"{', '.join(unblamable)}",
                file=sys.stderr,
            )
            return 2
    for experiment_id in ids:
        entry = registry.REGISTRY[experiment_id]
        print(f"=== {entry.paper_ref}: {entry.description}")
        started = time.time()
        (report,) = run_experiments([experiment_id], jobs=1).reports
        print(report.summary)
        if blame:
            duration_ns, seed = _run_parameters(experiment_id, None, None)
            fault = experiment_id[len("robustness_"):]
            print(_blame_family(fault, 1, duration_ns, seed).summary())
        print(f"--- ({time.time() - started:.1f}s wall)\n")
    return 0


def _run_parameters(
    experiment_id: str, duration_s: Optional[float], seed: Optional[int]
) -> Tuple[int, int]:
    """``(duration_ns, seed)`` of a run of *experiment_id*: the flags
    where given, else the registry's full-length parameters."""
    from .runner.workunits import BINDINGS
    from .simcore.time import sec

    full = BINDINGS[experiment_id].full
    return (
        full["duration_ns"] if duration_s is None else sec(duration_s),
        full["seed"] if seed is None else seed,
    )


def _blame_family(fault: str, jobs: int, duration_ns: int, seed: int):
    """Run the blame sweep of one fault family through the plan executor."""
    from .runner.executor import execute_plan
    from .telemetry.blame_plan import blame_plan

    plan = blame_plan(faults=(fault,), duration_ns=duration_ns, seed=seed)
    return execute_plan(plan, jobs=jobs)


def _cmd_run_all(args) -> int:
    from .experiments.common import format_table
    from .runner import ResultCache, run_experiments
    from .runner.cache import disabled_cache

    ids: Optional[List[str]] = None
    if args.only:
        patterns = [i.strip() for i in args.only.split(",") if i.strip()]
        try:
            ids = registry.expand_ids(patterns)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            print(f"known ids: {', '.join(registry.all_ids())}", file=sys.stderr)
            return 2
    if args.no_cache:
        cache = disabled_cache()
    else:
        cache = ResultCache(path=args.cache_dir, refresh=args.refresh)

    report = run_experiments(
        ids,
        jobs=args.jobs,
        cache=cache,
        echo=lambda m: print(f"[run-all] {m}"),
        seed=args.seed,
    )

    timing_rows = [
        {
            "experiment": r.experiment_id,
            "units": r.units,
            "cached": r.cached_units,
            "unit_wall_s": round(r.unit_wall_s, 2),
            "rows": len(r.rows),
        }
        for r in report.reports
    ]
    print(format_table(timing_rows, title="run-all — per-experiment timing"))
    cache_note = (
        "cache disabled"
        if args.no_cache
        else f"cache: {report.cache_hits} hits, {report.cache_misses} misses, "
        f"{report.cache_writes} writes"
    )
    print(
        f"total: {report.wall_s:.1f}s wall with {report.jobs} job(s); {cache_note}"
    )
    if not args.no_ledger:
        _write_run_ledger(args, report)
    if args.summaries:
        for r in report.reports:
            print(f"\n=== {r.experiment_id}")
            print(r.summary)
    return 0


def _write_run_ledger(args, report) -> None:
    """Persist this run-all as a ledger entry under ``<runs-dir>/<stamp>``."""
    from .runner import ledger

    stamp, run_dir = ledger.new_run_dir(args.runs_dir)
    manifest = {
        "stamp": stamp,
        "git_sha": ledger.git_sha(),
        "seed": args.seed,
        "jobs": report.jobs,
        "wall_s": round(report.wall_s, 2),
        "cache": {
            "enabled": not args.no_cache,
            "hits": report.cache_hits,
            "misses": report.cache_misses,
            "writes": report.cache_writes,
        },
        "experiments": {
            r.experiment_id: {
                "rows": len(r.rows),
                "rows_sha256": ledger.rows_hash(r.rows),
                "units": r.units,
                "cached_units": r.cached_units,
                "unit_wall_s": round(r.unit_wall_s, 3),
                "unit_walls": {u: round(w, 3) for u, w in r.unit_walls.items()},
            }
            for r in report.reports
        },
    }
    if args.trace:
        from .runner.executor import execute_plan
        from .telemetry.trace_plan import trace_plan

        bundle = execute_plan(trace_plan(), jobs=report.jobs)
        trace_path = bundle.write(os.path.join(run_dir, "robustness.rtvt"))
        manifest["trace"] = {
            "path": os.path.basename(trace_path),
            "sha256": bundle.merged_hash,
            "events": sum(p["events"] for p in bundle.parts),
            "parts": [
                {
                    "fault": p["fault"],
                    "scheduler": p["scheduler"],
                    "sha256": p["hash"],
                }
                for p in bundle.parts
            ],
        }
        print(
            f"[run-all] recorded {manifest['trace']['events']} trace events "
            f"-> {trace_path} (hash {bundle.merged_hash[:16]})"
        )
    path = ledger.write_manifest(run_dir, manifest)
    print(f"[run-all] ledger: {path}")


def _format_bytes(count: int) -> str:
    size = float(count)
    for suffix in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or suffix == "GiB":
            return f"{size:.1f} {suffix}" if suffix != "B" else f"{count} B"
        size /= 1024
    return f"{count} B"  # pragma: no cover - unreachable


def _cmd_cache(args) -> int:
    from .runner import ledger
    from .runner.cache import ResultCache

    # Maintenance never hashes sources: pin an unused salt.
    cache = ResultCache(path=args.cache_dir, salt="")
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache: {cache.path}")
        print(f"  entries: {stats['entries']}")
        print(f"  size: {_format_bytes(stats['bytes'])}")
        last = cache.last_run()
        if last is not None:
            print(
                f"  last run: {last.get('hits', 0)} hits, "
                f"{last.get('misses', 0)} misses, "
                f"{last.get('writes', 0)} writes "
                f"({last.get('units', '?')} units, "
                f"{last.get('jobs', '?')} job(s), "
                f"{last.get('wall_s', '?')}s wall)"
            )
        else:
            print("  last run: no recorded run")
        runs = ledger.runs_stats(args.runs_dir)
        print(f"runs ledger: {runs['root']}")
        print(f"  runs: {runs['runs']}")
        print(f"  size: {_format_bytes(runs['total_bytes'])}")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache.path}")
        return 0
    # prune: one LRU-by-mtime sweep over cache entries AND ledger runs
    # (a run directory is one unit — it is evicted whole).
    if args.max_bytes is None:
        print("cache prune requires --max-bytes N", file=sys.stderr)
        return 2
    if args.max_bytes < 0:
        print(f"max_bytes must be >= 0, got {args.max_bytes}", file=sys.stderr)
        return 2
    victims = sorted(
        [("cache", p, s, m) for p, s, m in cache.entries()]
        + [("run", p, s, m) for p, s, m in ledger.run_entries(args.runs_dir)],
        key=lambda e: (e[3], e[1]),
    )
    total = sum(size for _kind, _path, size, _mtime in victims)
    cache_victims: List[str] = []
    removed_runs = 0
    for kind, path, size, _mtime in victims:
        if total <= args.max_bytes:
            break
        if kind == "cache":
            cache_victims.append(path)
        else:
            ledger.remove_run(path)
            removed_runs += 1
        total -= size
    removed = cache.evict(cache_victims)
    print(
        f"pruned {removed} cache entries and {removed_runs} ledger runs; "
        f"{_format_bytes(total)} remain"
    )
    return 0


def _cmd_cluster(args) -> int:
    from .experiments.cluster_scale import assemble_cluster, run_cluster_host
    from .simcore.time import MSEC, sec

    host_count = 2 if args.mode == "clockskew" else args.hosts
    if host_count < 2:
        print("a cluster needs at least 2 hosts", file=sys.stderr)
        return 2
    duration_ns = sec(args.duration_s)
    offset_ns = (
        None if args.clock_offset_ms is None else int(args.clock_offset_ms * MSEC)
    )
    holder = {}

    def attach(cluster, host) -> None:
        holder.setdefault("cluster", cluster)

    parts = [
        run_cluster_host(
            args.mode,
            args.scheduler,
            host_count,
            host_index,
            duration_ns,
            args.seed,
            clock_offset_step_ns=offset_ns,
            policy=args.policy,
            attach=attach,
        )
        for host_index in range(host_count)
    ]
    print(assemble_cluster(parts).summary())
    if args.log:
        print("\nmanagement-plane log (host 0's run):")
        for time_ns, kind, detail in holder["cluster"].log:
            joined = ", ".join(str(d) for d in detail)
            print(f"  {time_ns / 1e6:10.3f}ms  {kind:<16s} {joined}")
    return 0


def _cmd_scenario(args) -> int:
    outputs = (("--chrome-trace", args.chrome_trace), ("--profile", args.profile))
    for flag, path in outputs:
        if path is not None and not path.endswith(".json"):
            print(f"{flag} writes a .json file, got {path!r}", file=sys.stderr)
            return 2
    return _reject_bad_input(_run_scenario, args)


def _run_scenario(args) -> int:
    from .scenario import run_scenario_file

    holder = {}

    def attach(system) -> None:
        bus = system.machine.bus
        if args.telemetry:
            from .telemetry import StandardTelemetry

            holder["telemetry"] = StandardTelemetry(bus)
        if args.chrome_trace:
            from .simcore.trace import Trace

            holder["trace"] = Trace().attach(bus)
        if args.blame:
            from .telemetry.spans import SpanBuilder

            holder["spans"] = SpanBuilder().attach(system.machine)
        if args.profile:
            from .telemetry.profile import SimProfiler

            holder["profiler"] = SimProfiler().install(
                engine=system.engine, bus=bus
            )

    wants_bus = args.telemetry or args.chrome_trace or args.blame or args.profile
    result = run_scenario_file(args.path, attach=attach if wants_bus else None)
    print(result.summary())
    telemetry = holder.get("telemetry")
    if telemetry is not None:
        misses = telemetry.misses
        print("telemetry (streamed):")
        print(
            f"  deadline miss ratio: {misses.miss_ratio() * 100:.3f}% "
            f"({misses.decided()} decided)"
        )
        if telemetry.latency.stats.count:
            tails = telemetry.latency.tail_usec()
            tail_text = "  ".join(
                f"p{p:g}={v:.1f}us" for p, v in sorted(tails.items())
            )
            print(
                f"  job latency: mean={telemetry.latency.mean_usec():.1f}us  "
                f"{tail_text}"
            )
        consumed_ns = telemetry.bandwidth.consumed_ns
        print(
            f"  cpu consumed: {sum(consumed_ns.values()) / 1e6:.1f}ms "
            f"across {len(consumed_ns)} vcpus"
        )
    trace = holder.get("trace")
    if trace is not None:
        from .report.export import export_chrome_trace

        count = export_chrome_trace(trace, args.chrome_trace)
        print(f"chrome trace: {count} events -> {args.chrome_trace}")
    spans = holder.get("spans")
    if spans is not None:
        from .report.ascii import render_blame_table
        from .telemetry.blame import analyze_spans

        spans.finalize(result.duration_ns)
        report, _misses = analyze_spans(spans)
        print(render_blame_table(report.snapshot()))
    profiler = holder.get("profiler")
    if profiler is not None:
        profiler.uninstall()
        from .report.export import export_profile

        export_profile(profiler, args.profile)
        print(profiler.summary())
        print(f"profile: -> {args.profile}")
    return 0


def _parse_job(spec: str):
    """``vm2.rta1#15`` -> (task, 15); ``vm2.rta1`` -> (task, None)."""
    task, _, index = spec.partition("#")
    return task, int(index) if index else None


def _print_timelines(builder, job_spec: str, limit: int) -> int:
    from .report.ascii import render_span_timeline
    from .telemetry.blame import attribute_miss

    task, index = _parse_job(job_spec)
    spans = builder.spans_for(task)
    if index is not None:
        spans = [s for s in spans if s.job == index]
    elif any(s.missed for s in spans):
        spans = [s for s in spans if s.missed][:limit]
    else:
        spans = spans[:limit]
    if not spans:
        print(f"no spans for {job_spec!r}", file=sys.stderr)
        return 2
    for span in spans:
        lost = attribute_miss(span, builder) if span.missed else None
        print(render_span_timeline(span, lost))
        print()
    return 0


def _explain_scenario(args) -> int:
    from .report.ascii import render_blame_table
    from .scenario import run_scenario_file
    from .telemetry.blame import analyze_spans
    from .telemetry.spans import SpanBuilder

    holder = {}

    def attach(system) -> None:
        holder["spans"] = SpanBuilder().attach(system.machine)

    result = run_scenario_file(args.target, attach=attach)
    builder = holder["spans"].finalize(result.duration_ns)
    report, misses = analyze_spans(builder)
    print(result.summary())
    print(render_blame_table(report.snapshot()))
    if args.job:
        print()
        return _print_timelines(builder, args.job, args.misses)
    worst = sorted(misses, key=lambda m: -m["lateness_ns"])[: args.misses]
    if worst:
        print("worst misses:")
        for m in worst:
            print(
                f"  {m['task']}#{m['job']} +{m['lateness_ns'] / 1e6:.3f}ms "
                f"primary={m['primary']}"
            )
    return 0


def _explain_feedback(args) -> int:
    from .experiments.feedback_adaptive import explain_feedback
    from .experiments.common import format_table
    from .report.ascii import render_blame_table

    duration_ns, seed = _run_parameters(args.target, args.duration_s, args.seed)
    cells = explain_feedback(args.target, duration_ns, seed)
    for cell in cells:
        print(
            f"=== {args.target} — policy {cell['policy']!r} "
            f"({duration_ns / SEC:g}s, seed {seed})"
        )
        print(format_table(cell["rows"], title="result rows"))
        print(render_blame_table(cell["blame"]))
        print(format_table(cell["tenants"], title="per-tenant blame/credit"))
        print()
    return 0


def _is_trace(path: str) -> bool:
    """True when *path* is a flight-recorder trace (RTVT magic)."""
    if not os.path.isfile(path):
        return False
    try:
        with open(path, "rb") as handle:
            return handle.read(4) == b"RTVT"
    except OSError:
        return False


def _explain_trace(args) -> int:
    """Offline blame: rebuild causal spans from a recorded trace."""
    from .report.ascii import render_blame_table
    from .telemetry.blame import analyze_spans
    from .telemetry.record import TraceReader
    from .telemetry.replay import spans_from_trace

    reader = TraceReader(args.target)
    header = reader.header
    label = header.get("fault") or header.get("name") or args.target
    print(
        f"trace {args.target}: {header.get('format', '?')} {label} under "
        f"{header.get('scheduler', '?')}, {reader.event_count} events, "
        f"hash {reader.trace_hash[:16]}\n"
    )
    builder = spans_from_trace(reader)
    report, misses = analyze_spans(builder)
    print(render_blame_table(report.snapshot()))
    if args.job:
        print()
        return _print_timelines(builder, args.job, args.misses)
    worst = sorted(misses, key=lambda m: -m["lateness_ns"])[: args.misses]
    if worst:
        print("worst misses:")
        for m in worst:
            print(
                f"  {m['task']}#{m['job']} +{m['lateness_ns'] / 1e6:.3f}ms "
                f"primary={m['primary']}"
            )
    return 0


def _cmd_explain(args) -> int:
    if _is_trace(args.target):
        return _reject_bad_input(_explain_trace, args)
    if args.target.endswith(".json"):
        return _reject_bad_input(_explain_scenario, args)
    from .experiments.feedback_adaptive import FEEDBACK_CELLS

    if args.target in FEEDBACK_CELLS:
        return _explain_feedback(args)
    from .experiments.robustness import ROBUSTNESS_FAULTS

    fault = args.target
    if fault.startswith("robustness_"):
        fault = fault[len("robustness_"):]
    if fault not in ROBUSTNESS_FAULTS:
        known = ", ".join(
            [f"robustness_{f}" for f in ROBUSTNESS_FAULTS]
            + list(FEEDBACK_CELLS)
        )
        print(
            f"unknown target {args.target!r}; pick a scenario .json or one "
            f"of: {known}",
            file=sys.stderr,
        )
        return 2
    duration_ns, seed = _run_parameters(
        f"robustness_{fault}", args.duration_s, args.seed
    )
    if args.job:
        from .experiments.robustness import run_robustness_case
        from .telemetry.spans import SpanBuilder

        holder = {}

        def attach(system) -> None:
            holder["spans"] = SpanBuilder().attach(system.machine)

        run_robustness_case(
            fault,
            args.scheduler,
            duration_ns,
            seed,
            check_invariants=False,
            attach=attach,
        )
        builder = holder["spans"].finalize()
        print(
            f"robustness_{fault} under {args.scheduler} "
            f"({duration_ns / SEC:g}s, seed {seed}):\n"
        )
        return _print_timelines(builder, args.job, args.misses)
    sweep = _blame_family(fault, args.jobs, duration_ns, seed)
    print(sweep.summary())
    for part in sweep.parts:
        worst = sorted(part["misses"], key=lambda m: -m["lateness_ns"])
        worst = worst[: args.misses]
        if not worst:
            continue
        print(f"\nworst misses — {part['scheduler']}:")
        for m in worst:
            state = " (unfinished)" if m["incomplete"] else ""
            print(
                f"  {m['task']}#{m['job']} +{m['lateness_ns'] / 1e6:.3f}ms "
                f"primary={m['primary']}{state}"
            )
    return 0


def _trace_record(args) -> int:
    from .experiments.common import format_table

    if args.target.endswith(".json"):
        from .telemetry.replay import record_scenario_file

        output = args.output or args.target[: -len(".json")] + ".rtvt"
        recorded = record_scenario_file(args.target, output)
    else:
        from .experiments.robustness import ROBUSTNESS_FAULTS
        from .telemetry.replay import canonical_scheduler, record_robustness_case

        fault = args.target
        if fault.startswith("robustness_"):
            fault = fault[len("robustness_"):]
        if fault not in ROBUSTNESS_FAULTS:
            known = ", ".join(f"robustness_{f}" for f in ROBUSTNESS_FAULTS)
            print(
                f"unknown target {args.target!r}; pick a scenario .json or "
                f"one of: {known}",
                file=sys.stderr,
            )
            return 2
        try:
            scheduler = canonical_scheduler(args.scheduler)
        except ValueError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        output = args.output or f"robustness_{fault}.rtvt"
        duration_ns, seed = _run_parameters(
            f"robustness_{fault}", args.duration_s, args.seed
        )
        recorded = record_robustness_case(
            fault, scheduler, duration_ns, seed, path=output
        )
    reader = recorded.reader()
    print(format_table(recorded.rows, title="recorded run"))
    print(
        f"trace: {reader.event_count} events, "
        f"hash {reader.trace_hash[:16]} -> {output}"
    )
    return 0


def _trace_inspect(args) -> int:
    from .experiments.common import format_table
    from .telemetry.record import TraceReader

    reader = TraceReader(args.path)
    print(f"trace: {args.path}")
    for key in sorted(reader.header):
        if key == "spec":
            continue  # a full scenario spec is too bulky for a one-liner
        print(f"  {key}: {reader.header[key]}")
    print(f"  events: {reader.event_count}")
    if reader.strings is not None:
        print(f"  strings: {len(reader.strings)} interned")
    print(f"  hash: {reader.trace_hash}")
    for section in reader.sections:
        print(
            f"  section {section['label']}: {section['events']} events, "
            f"hash {section['hash'][:16]}"
        )
    for key in sorted(reader.meta):
        print(f"  meta.{key}: {reader.meta[key]}")
    rows = [
        {"kind": kind, "count": reader.counts[kind]}
        for kind in sorted(reader.counts)
    ]
    print(format_table(rows, title="event counts"))
    return 0


def _trace_replay(args) -> int:
    from .experiments.common import format_table
    from .telemetry.replay import replay_trace

    try:
        result = replay_trace(
            args.path,
            scheduler=args.scheduler,
            record_path=args.record,
            record=args.diff,
        )
    except ValueError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(format_table(result.rows, title=f"replay under {result.scheduler}"))
    if result.scheduler == result.header.get("scheduler"):
        verdict = "MATCH" if result.rows_match() else "DIVERGED"
        print(f"round trip vs recorded rows: {verdict}")
    else:
        print(
            f"what-if: recorded under {result.header.get('scheduler')}, "
            f"replayed under {result.scheduler}"
        )
    if args.record:
        print(f"replay trace -> {args.record}")
    if args.diff:
        from .telemetry.diff import diff_traces
        from .telemetry.record import TraceReader

        print()
        print(diff_traces(TraceReader(args.path), result.reader()).summary())
    return 0


def _trace_diff(args) -> int:
    from .telemetry.diff import diff_traces

    diff = diff_traces(args.path_a, args.path_b, context=args.context)
    print(diff.summary())
    return 0 if diff.identical else 1


def _reject_bad_input(command, args) -> int:
    """Run *command*; bad input — a malformed scenario spec, a corrupt
    trace, an unreadable file — is one stderr line, exit 2."""
    from .simcore.errors import ConfigurationError

    try:
        return command(args)
    except (ConfigurationError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2


def _cmd_trace(args) -> int:
    if args.trace_command == "record" and not args.target.endswith(".json"):
        return _trace_record(args)
    commands = {
        "record": _trace_record,
        "inspect": _trace_inspect,
        "replay": _trace_replay,
        "diff": _trace_diff,
    }
    return _reject_bad_input(commands[args.trace_command], args)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run-all":
        return _cmd_run_all(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "trace":
        return _cmd_trace(args)
    return _cmd_run(args.ids, blame=args.blame)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
