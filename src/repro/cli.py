"""Command-line interface: run the paper's experiments from the shell.

    python -m repro list                 # show the experiment catalogue
    python -m repro run fig3             # regenerate Figure 3
    python -m repro run table2 fig1      # several at once
    python -m repro run all --jobs 4     # the whole evaluation, in parallel
    python -m repro run fig3 'table*' --no-cache --no-ledger
    python -m repro cache stats          # entry count, bytes, last-run hits
    python -m repro cache prune --max-bytes 50000000    # LRU eviction
    python -m repro run robustness_pcpu_fail --blame    # why did jobs miss?
    python -m repro run robustness_pcpu_fail --job vm2.rta1#15
    python -m repro run table1 --blame                  # any simulating id
    python -m repro run my_setup.json --telemetry --chrome-trace t.json
    python -m repro run robustness_pcpu_fail --record fail.rtvt  # per cell
    python -m repro trace replay fail.robustness_pcpu_fail-RTVirt.rtvt --diff \
        --scheduler Credit                              # what-if replay
    python -m repro trace diff a.rtvt b.rtvt            # first divergence
    python -m repro trace inspect a.rtvt --blame        # blame from a trace

Every ``run`` reads and writes the result cache (``./.repro_cache``) and
writes one run-ledger manifest (``./runs/<stamp>/manifest.json``);
``--no-cache`` and ``--no-ledger`` turn either off.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from typing import List, Optional, Tuple

from .experiments import registry
from .simcore.errors import ConfigurationError
from .simcore.time import SEC


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RTVirt (EuroSys'18) reproduction — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the reproducible tables and figures")
    run = sub.add_parser(
        "run",
        help="run experiments or scenario files, cached, optionally observed",
        description="Run the work units of every TARGET in one cached, pooled "
        "pass; print each target's summary, a per-experiment timing table "
        "and the run-ledger manifest it wrote.  The observer flags attach "
        "the same named observers to every system each unit of every target "
        "builds (an observed unit always runs and bypasses the cache); `all` "
        "and globs run the ids that simulate nothing unobserved.  A file "
        "flag writes one file per system: PATH itself for a one-unit run of "
        "one system, else PATH's stem, the unit id when the run has several "
        "units (each run of characters outside [A-Za-z0-9_.-] becomes "
        "'-'), the system's index when its unit builds several, and PATH's "
        "suffix, e.g. r.robustness_pcpu_fail-RT-Xen.rtvt, r.0.rtvt.",
    )
    run.add_argument(
        "targets",
        nargs="+",
        metavar="TARGET",
        help="experiment ids or globs from `repro list`, 'all', or a "
        "scenario .json file",
    )
    run.add_argument(
        "--blame",
        action="store_true",
        help="build causal job spans of every simulated system and print the "
        "deadline-miss blame table and worst misses",
    )
    run.add_argument(
        "--job",
        metavar="TASK[#N]",
        help="render the causal timeline of one job in every system (e.g. "
        "vm2.rta1#15); a bare task name shows its worst missed jobs; "
        "implies --blame",
    )
    run.add_argument(
        "--telemetry",
        action="store_true",
        help="stream miss-ratio / latency-tail / bandwidth aggregates and "
        "print them per system",
    )
    run.add_argument(
        "--chrome-trace",
        metavar="PATH",
        help="write each system's execution trace as a chrome://tracing "
        "timeline (.json)",
    )
    run.add_argument(
        "--record",
        metavar="PATH",
        help="write each system's flight-recorder trace (.rtvt; robustness "
        "and scenario traces replay with `repro trace replay`)",
    )
    run.add_argument(
        "--profile",
        metavar="PATH",
        help="self-profile the simulator (per-event-kind handler time, "
        "per-phase engine time) and write each system's snapshot (.json)",
    )
    run.add_argument(
        "--seed",
        type=int,
        metavar="N",
        help="RNG seed of the ids whose simulation draws from it "
        "(robustness_jitter, cluster_*); ids reached through `all` or a glob "
        "that take no seed run at their registry seed, a named one exits 2",
    )
    run.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1: in-process, same work units)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the result cache",
    )
    run.add_argument(
        "--refresh",
        action="store_true",
        help="ignore cached results but store fresh ones",
    )
    run.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="result cache location (default ./.repro_cache)",
    )
    run.add_argument(
        "--runs-dir",
        default="runs",
        metavar="PATH",
        help="run-ledger root; every run writes "
        "<runs-dir>/<stamp>/manifest.json (default ./runs)",
    )
    run.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not write a run-ledger manifest",
    )
    cache = sub.add_parser(
        "cache", help="inspect and manage the result cache and run ledger"
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
        help="print the run's management-plane event log (placements, "
        "migrations, faults)",
    )
    trace = sub.add_parser(
        "trace",
        help="flight recorder: inspect, replay and diff durable telemetry "
        "traces (record one with `repro run TARGET --record PATH`)",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    t_inspect = trace_sub.add_parser(
        "inspect", help="print a trace's header, counts and canonical hash"
    )
    t_inspect.add_argument("path", help="recorded .rtvt trace file")
    t_inspect.add_argument(
        "--blame",
        action="store_true",
        help="rebuild causal spans from the trace (no simulation) and "
        "print the deadline-miss blame table and worst misses",
    )
    t_inspect.add_argument(
        "--job",
        metavar="TASK[#N]",
        help="render the causal timeline of one job (e.g. vm2.rta1#15); "
        "a bare task name shows its worst missed jobs; implies --blame",
    )
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


def _cmd_list(args) -> int:
    width = max(len(i) for i in registry.all_ids())
    for experiment_id in registry.all_ids():
        entry = registry.REGISTRY[experiment_id]
        print(f"{experiment_id:<{width}}  {entry.paper_ref:16s} {entry.description}")
    return 0


def _observer_flags(args) -> List[Tuple[str, str]]:
    """``(flag, observer name)`` of every observer flag given, in
    install order: telemetry, chrome trace, recorder, spans, profiler."""
    blame = ("--job", f"blame:{args.job}") if args.job else ("--blame", "blame")
    flags = (
        ("--telemetry", "telemetry", args.telemetry),
        ("--chrome-trace", "chrome_trace", args.chrome_trace),
        ("--record", "record", args.record),
        blame + (args.blame or args.job,),
        ("--profile", "profile", args.profile),
    )
    return [(flag, name) for flag, name, given in flags if given]


def _check_job(job: Optional[str]) -> None:
    if job is not None and not re.fullmatch(r"[^#]+(#\d+)?", job):
        raise ConfigurationError(f"--job takes TASK or TASK#N, got {job!r}")


def _run_targets(args, flags: List[Tuple[str, str]]) -> List[Tuple[str, object]]:
    """``(header, plan)`` per target, each unit carrying the observers.

    Raises :class:`ConfigurationError` for an unknown id, an unreadable
    scenario, or a flag that cannot apply to a target.  A flag rejects
    an id only when it is named: ``all`` and globs run the ids that
    simulate nothing unobserved, and the ids that take no seed at their
    registry seed.
    """
    from .runner.workunits import (
        ANALYTIC_FNS,
        BINDINGS,
        observed_plan,
        plan_for,
        scenario_plan,
    )
    from .scenario import load_scenario_file

    targets = {}  # in command-line order, each id once
    for name in args.targets:
        if name.endswith(".json"):
            if args.seed is not None:
                raise ConfigurationError(
                    f"--seed does not apply to {name}: a scenario sets its own seed"
                )
            plan = scenario_plan(load_scenario_file(name), name)
            targets[name] = (f"scenario {name}", plan)
            continue
        try:
            ids = registry.expand_ids(["*" if name == "all" else name])
        except KeyError as exc:
            raise ConfigurationError(
                f"{exc.args[0]}; known ids: {', '.join(registry.all_ids())}"
            ) from None
        for experiment_id in ids:
            named = experiment_id == name  # not reached through `all` or a glob
            seeded = BINDINGS[experiment_id].seeded
            if named and args.seed is not None and not seeded:
                raise ConfigurationError(
                    f"--seed does not apply to {experiment_id}: its simulation "
                    "draws nothing from a seed"
                )
            entry = registry.REGISTRY[experiment_id]
            header = f"{entry.paper_ref}: {entry.description}"
            plan = plan_for(experiment_id, args.seed)
            if flags and named and all(u.fn in ANALYTIC_FNS for u in plan.units):
                raise ConfigurationError(
                    f"{', '.join(flag for flag, _ in flags)} cannot observe "
                    f"{name}: it simulates no system"
                )
            targets.setdefault(experiment_id, (header, plan))
    names = [name for _, name in flags]
    return [(header, observed_plan(plan, names)) for header, plan in targets.values()]


def _output_path(path: str, unit, system: Optional[int], many: bool) -> str:
    """PATH itself for one system of a one-unit run; otherwise PATH's
    stem, the unit id when the run has several units (runs outside
    ``[A-Za-z0-9_.-]`` become ``-``), the *system* index when the unit
    built several, and PATH's suffix."""
    labels = [re.sub(r"[^A-Za-z0-9_.-]+", "-", unit.unit_id)] if many else []
    if system is not None:
        labels.append(str(system))
    if not labels:
        return path
    stem, ext = os.path.splitext(path)
    return ".".join([stem, *labels]) + ext


def _cmd_run(args) -> int:
    from .experiments.common import format_table
    from .runner import ledger
    from .runner.cache import ResultCache
    from .runner.executor import run_plans

    if args.jobs < 1:
        raise ConfigurationError(f"--jobs takes at least 1 worker, got {args.jobs}")
    _check_job(args.job)
    json_flags = ("--chrome-trace", args.chrome_trace), ("--profile", args.profile)
    for flag, path in json_flags:
        if path is not None and not path.endswith(".json"):
            raise ConfigurationError(f"{flag} writes a .json file, got {path!r}")
    flags = _observer_flags(args)
    targets = _run_targets(args, flags)
    cache = None if args.no_cache else ResultCache(args.cache_dir, refresh=args.refresh)
    report = run_plans(
        [plan for _, plan in targets],
        jobs=args.jobs,
        cache=cache,
        echo=lambda m: print(f"[run] {m}"),
    )
    many = sum(r.units for r in report.reports) > 1  # name files by unit
    status = 0
    files: List[dict] = []
    for (header, _), experiment in zip(targets, report.reports):
        print(f"=== {header}")
        print(experiment.summary)
        status = max(status, _print_observed(experiment, args, many, files))
        print()
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
    print(format_table(timing_rows, title="per-experiment timing"))
    cache_note = (
        f"cache: {report.cache_hits} hits, {report.cache_misses} misses, "
        f"{report.cache_writes} writes"
        if report.cache_enabled
        else "cache disabled"
    )
    print(f"total: {report.wall_s:.1f}s wall with {report.jobs} job(s); {cache_note}")
    if not args.no_ledger:
        stamp, run_dir = ledger.new_run_dir(args.runs_dir)
        manifest = ledger.run_manifest(
            report,
            stamp=stamp,
            seed=args.seed,
            observers=[name for _, name in flags],
            files=files,
        )
        print(f"ledger: {ledger.write_manifest(run_dir, manifest)}")
    return status


def _unit_label(unit, system: Optional[int]) -> str:
    """The unit id, and the *system* index when the unit built several."""
    return unit.unit_id if system is None else f"{unit.unit_id} system {system}"


def _unit_title(unit, system: Optional[int] = None) -> str:
    """A robustness or feedback cell as its run parameters, else its
    :func:`_unit_label`."""
    kwargs = dict(unit.kwargs)
    if "fault" in kwargs:
        label = f"{unit.experiment_id} under {kwargs['scheduler']}"
    elif "policy" in kwargs:
        label = f"{unit.experiment_id} — policy {kwargs['policy']!r}"
    else:
        return _unit_label(unit, system)
    return f"{label} ({kwargs['duration_ns'] / SEC:g}s, seed {kwargs['seed']})"


def _watched(experiment, name: str) -> List[tuple]:
    """``(unit, part, output, system)`` for every system observer *name*
    watched, in unit order; *system* is the system's index in a unit
    that built several, else ``None``."""
    watched = []
    for unit, part, observed in experiment.results:
        outputs = observed.get(name, [])
        for index, output in enumerate(outputs):
            watched.append((unit, part, output, index if len(outputs) > 1 else None))
    return watched


def _print_observed(experiment, args, many: bool, files: List[dict]) -> int:
    """Print (and write) every observer output of one target's units,
    one per system each unit built; each file written joins *files*."""
    from .experiments.common import format_table
    from .report.export import export_chrome_trace, export_profile
    from .telemetry.record import TraceReader

    several = experiment.units > 1
    for unit, _, snapshot, system in _watched(experiment, "telemetry"):
        titled = several or system is not None
        heading = f" — {_unit_label(unit, system)}" if titled else ""
        print(f"telemetry (streamed){heading}:")
        _print_telemetry(snapshot)
    for unit, _, trace, system in _watched(experiment, "chrome_trace"):
        path = _output_path(args.chrome_trace, unit, system, many)
        count = export_chrome_trace(trace, path)
        files.append({"path": path, "unit": unit.unit_id, "observer": "chrome_trace"})
        print(f"chrome trace: {count} events -> {path}")
    for unit, _, recorded, system in _watched(experiment, "record"):
        path = _output_path(args.record, unit, system, many)
        with open(path, "wb") as handle:
            handle.write(recorded["data"])
        if recorded["rows"] is not None:
            print(format_table(recorded["rows"], title="recorded run"))
        reader = TraceReader(recorded["data"])
        files.append(
            {
                "path": path,
                "unit": unit.unit_id,
                "observer": "record",
                "trace_sha256": reader.trace_hash,
            }
        )
        print(
            f"trace: {reader.event_count} events, "
            f"hash {reader.trace_hash[:16]} -> {path}"
        )
    status = 0
    cells = _watched(experiment, "blame")
    if cells:
        status = _print_blame(experiment, cells, args.job)
    for unit, _, profiler, system in _watched(experiment, "profile"):
        path = _output_path(args.profile, unit, system, many)
        export_profile(profiler, path)
        files.append({"path": path, "unit": unit.unit_id, "observer": "profile"})
        print(profiler.summary())
        print(f"profile: -> {path}")
    return status


def _print_telemetry(snapshot: dict) -> None:
    from .metrics.latency import LatencyRecorder

    counts = snapshot["misses"]["per_task"].values()
    missed = sum(c["missed"] for c in counts)
    decided = sum(c["met"] for c in counts) + missed
    ratio = missed / decided if decided else 0.0
    latency = LatencyRecorder(samples_ns=snapshot["latency"])
    consumed_ns = snapshot["bandwidth"]["consumed_ns"]
    print(f"  deadline miss ratio: {ratio * 100:.3f}% ({decided} decided)")
    if len(latency):
        tails = latency.tail_usec()
        tail_text = "  ".join(f"p{p:g}={v:.1f}us" for p, v in sorted(tails.items()))
        print(f"  job latency: mean={latency.mean_usec():.1f}us  {tail_text}")
    print(
        f"  cpu consumed: {sum(consumed_ns.values()) / 1e6:.1f}ms "
        f"across {len(consumed_ns)} vcpus"
    )


def _print_blame(experiment, cells, job: Optional[str]) -> int:
    """A robustness family prints the blame sweep and each cell's worst
    misses; a feedback cell its rows, blame and per-tenant table; any
    other unit its blame table and worst misses."""
    from .experiments.common import format_table
    from .report.ascii import render_blame_table
    from .telemetry.blame_plan import blame_sweep

    several = experiment.units > 1
    titled = several or any(system is not None for *_, system in cells)
    if experiment.experiment_id.startswith("robustness_"):
        sweep = blame_sweep(experiment.results)
        print(sweep.summary())
        for part in sweep.parts:
            _print_worst_misses(
                part["misses"], f"\nworst misses — {part['scheduler']}:", True
            )
    else:
        for unit, part, blame, system in cells:
            if "tenants" in blame:
                print(f"=== {_unit_title(unit)}")
                print(format_table(part, title="result rows"))
                print(render_blame_table(blame["blame"]))
                print(format_table(blame["tenants"], title="per-tenant blame/credit"))
                print()
                continue
            if titled:
                print(f"blame — {_unit_label(unit, system)}:")
            print(render_blame_table(blame["blame"]))
            _print_worst_misses(blame["misses"], "worst misses:")
    if job is None:
        return 0
    timelines = [
        (_unit_title(unit, system) if titled else None, blame["timelines"])
        for unit, _, blame, system in cells
    ]
    return _print_timelines(timelines, job)


def _print_worst_misses(misses, title: str, unfinished: bool = False) -> None:
    """The worst misses by lateness; *unfinished* marks jobs the run
    ended before completing."""
    from .telemetry.observers import WORST_MISSES

    worst = sorted(misses, key=lambda m: -m["lateness_ns"])[:WORST_MISSES]
    if not worst:
        return
    print(title)
    for m in worst:
        state = " (unfinished)" if unfinished and m["incomplete"] else ""
        print(
            f"  {m['task']}#{m['job']} +{m['lateness_ns'] / 1e6:.3f}ms "
            f"primary={m['primary']}{state}"
        )


def _print_timelines(titled, job: str) -> int:
    """Rendered job timelines per system (titled when several); exit 2
    when no unit has a span of *job*."""
    if not any(rendered for _, rendered in titled):
        print(f"no spans for {job!r}", file=sys.stderr)
        return 2
    for title, rendered in titled:
        if not rendered:
            continue
        if title is not None:
            print(f"{title}:")
        print()
        for text in rendered:
            print(text)
            print()
    return 0


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
    from .experiments.cluster_scale import assemble_cluster, run_cluster_config
    from .simcore.time import MSEC, sec
    from .telemetry.observe import observing

    host_count = 2 if args.mode == "clockskew" else args.hosts
    if host_count < 2:
        print("a cluster needs at least 2 hosts", file=sys.stderr)
        return 2
    duration_ns = sec(args.duration_s) if math.isfinite(args.duration_s) else 0
    if duration_ns <= 0:
        raise ConfigurationError(
            f"--duration-s takes a finite time of at least 1 ns, got {args.duration_s}"
        )
    offset = args.clock_offset_ms
    if offset is not None and not math.isfinite(offset):
        raise ConfigurationError(
            f"--clock-offset-ms takes a finite number of milliseconds, got {offset}"
        )
    offset_ns = None if offset is None else int(offset * MSEC)
    seen = {}  # the hook hands over every host with the one cluster
    with observing([lambda system, context: seen.update(cluster=context["cluster"])]):
        parts = run_cluster_config(
            args.mode,
            args.scheduler,
            host_count,
            duration_ns,
            args.seed,
            clock_offset_step_ns=offset_ns,
            policy=args.policy,
        )
    print(assemble_cluster([parts]).summary())
    if args.log:
        print("\nmanagement-plane log:")
        for time_ns, kind, detail in seen["cluster"].log:
            joined = ", ".join(str(d) for d in detail)
            print(f"  {time_ns / 1e6:10.3f}ms  {kind:<20s} {joined}")
    return 0


def _trace_inspect(args) -> int:
    from .experiments.common import format_table
    from .telemetry.record import TraceReader

    _check_job(args.job)
    reader = TraceReader(args.path)
    print(f"trace: {args.path}")
    for key in sorted(reader.header):
        if key == "spec":
            continue  # a full scenario spec is too bulky for a one-liner
        print(f"  {key}: {reader.header[key]}")
    print(f"  events: {reader.event_count}")
    print(f"  strings: {len(reader.strings)} interned")
    print(f"  hash: {reader.trace_hash}")
    for key in sorted(reader.meta):
        print(f"  meta.{key}: {reader.meta[key]}")
    rows = [
        {"kind": kind, "count": reader.counts[kind]}
        for kind in sorted(reader.counts)
    ]
    print(format_table(rows, title="event counts"))
    if not (args.blame or args.job):
        return 0
    from .telemetry.observers import blame_output
    from .telemetry.replay import spans_from_trace
    from .report.ascii import render_blame_table

    blame = blame_output(spans_from_trace(reader), args.job)
    print()
    print(render_blame_table(blame["blame"]))
    _print_worst_misses(blame["misses"], "worst misses:")
    if args.job is None:
        return 0
    return _print_timelines([(None, blame["timelines"])], args.job)


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


def _cmd_trace(args) -> int:
    commands = {"inspect": _trace_inspect, "replay": _trace_replay, "diff": _trace_diff}
    return commands[args.trace_command](args)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Bad input — an unknown id, a malformed scenario spec, a corrupt
    trace, an unreadable file, a flag that cannot apply — is one stderr
    line and exit 2.
    """
    args = _build_parser().parse_args(argv)
    commands = {
        "list": _cmd_list,
        "run": _cmd_run,
        "cache": _cmd_cache,
        "cluster": _cmd_cluster,
        "trace": _cmd_trace,
    }
    try:
        return commands[args.command](args)
    except (ConfigurationError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
