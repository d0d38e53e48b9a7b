#!/usr/bin/env python
"""Performance-regression gate for the engine/scheduler hot path.

Runs the tier-1 test suite, the engine-throughput microbenchmark
(fails when events/sec regresses more than ``--tolerance``, default
10%, against the committed ``BENCH_engine.json``), the parallel-runner
overhead gate (fails when a two-job run of a fast experiment subset is
slower than the serial run beyond ``--parallel-tolerance`` — the
"jobs 2 is never slower than serial" contract), and the full-registry
gate (fails when a parallel full-registry run through ``repro.runner``
takes more than ``--registry-tolerance``, default 15%, longer than the
committed ``BENCH_registry.json``, or when any single work unit costs
more than ``--max-unit-s``, default 18 s — the shard-granularity
contract that keeps the parallel critical path bounded by one shard):

    python tools/check_perf.py
    python tools/check_perf.py --skip-tests          # benchmarks only
    python tools/check_perf.py --skip-registry       # engine + parallel gates
    python tools/check_perf.py --tolerance 0.2       # looser engine gate
    python tools/check_perf.py --repeat 3            # damp wall noise

The engine record doubles as the telemetry-overhead gate: the benchmark
subscribes nothing to the telemetry bus, so its throughput must also
stay within ``--telemetry-tolerance`` (default 5%) of the baseline,
bounding the cost of the instrumentation's zero-subscriber fast path.
``--spans-tolerance`` (default 5%) gates the span/blame/profiler layer
the same way: with no SpanBuilder attached and no profiler installed,
the producers and hooks added for causal tracing must cost nothing.

``--recorder-tolerance`` (default 5%) gates the flight recorder's
detached path the same way: the engine benchmark runs with a
``TraceRecorder`` attached to the bus and detached again before the
timed section, so throughput measures the post-detach fast path.

Every run that reaches a verdict (unless ``--no-history``) appends one
JSON line to ``BENCH_history.jsonl`` — stamp, git sha, ``status``
(``pass``/``fail``), the first failing gate, and whatever the gates
measured before it (engine events/sec, registry wall, slowest unit) —
the durable benchmark trajectory that complements the latest-state
``BENCH_*.json`` baselines.  A missing baseline (exit 3) is no verdict
and appends nothing.

The engine benchmark compares best-of-``--repeat`` fresh runs so a
loaded machine does not trip the gate spuriously; raise ``--repeat``
(or the tolerances) on noisy hardware.  Exit status: 0 on pass, 1 on
test failure, 2 on a throughput or registry wall-time regression, 3
when a committed baseline is missing (run the matching benchmark once
to create it).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
BASELINE = os.path.join(REPO_ROOT, "BENCH_engine.json")
REGISTRY_BASELINE = os.path.join(REPO_ROOT, "BENCH_registry.json")

sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, REPO_ROOT)


def run_tier1_tests() -> bool:
    """Run the repository's tier-1 suite (pytest -x -q)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q"],
        cwd=REPO_ROOT,
        env=env,
    )
    return proc.returncode == 0


def check_throughput(
    tolerance: float,
    repeat: int,
    telemetry_tolerance: float = 0.0,
    spans_tolerance: float = 0.0,
    history: dict = None,
) -> int:
    """Engine gate, plus the telemetry- and spans-overhead gates.

    The benchmark never subscribes anything to the telemetry bus, so a
    fresh run measures exactly the zero-subscriber fast path: every
    hot-path emission site reduces to one cached boolean test.  With
    *telemetry_tolerance* > 0 the same best-of-*repeat* record must also
    stay within that (tighter) fraction of the committed baseline,
    bounding what the instrumentation costs when nobody is listening.
    *spans_tolerance* gates the span/blame/profiler additions the same
    way: no SpanBuilder is attached and no profiler installed, so the
    job-release producers and the profiler hook must stay free on the
    disabled path.
    """
    if not os.path.exists(BASELINE):
        print(f"check_perf: no committed baseline at {BASELINE}")
        print("check_perf: run benchmarks/bench_engine_throughput.py to create one")
        return 3
    with open(BASELINE) as fh:
        baseline = json.load(fh)

    from benchmarks.bench_engine_throughput import run_benchmark

    best = None
    for _ in range(max(1, repeat)):
        record = run_benchmark()
        if best is None or record["events_per_sec"] > best["events_per_sec"]:
            best = record

    reference = baseline["events_per_sec"]
    fresh = best["events_per_sec"]
    if history is not None:
        history["events_per_sec"] = fresh
    floor = reference * (1.0 - tolerance)
    verdict = "ok" if fresh >= floor else "REGRESSION"
    print(
        f"check_perf: {fresh:.1f} events/sec vs baseline {reference:.1f} "
        f"(floor {floor:.1f}, tolerance {tolerance:.0%}): {verdict}"
    )
    failed = fresh < floor
    if telemetry_tolerance > 0:
        telemetry_floor = reference * (1.0 - telemetry_tolerance)
        telemetry_verdict = "ok" if fresh >= telemetry_floor else "REGRESSION"
        print(
            f"check_perf: zero-subscriber telemetry gate: {fresh:.1f} vs "
            f"floor {telemetry_floor:.1f} "
            f"(tolerance {telemetry_tolerance:.0%}): {telemetry_verdict}"
        )
        failed = failed or fresh < telemetry_floor
    if spans_tolerance > 0:
        spans_floor = reference * (1.0 - spans_tolerance)
        spans_verdict = "ok" if fresh >= spans_floor else "REGRESSION"
        print(
            f"check_perf: spans-disabled overhead gate: {fresh:.1f} vs "
            f"floor {spans_floor:.1f} "
            f"(tolerance {spans_tolerance:.0%}): {spans_verdict}"
        )
        failed = failed or fresh < spans_floor
    if best.get("events") != baseline.get("events"):
        # Not fatal by itself, but a changed event count means behaviour
        # moved, so the events/sec comparison is no longer like-for-like.
        print(
            f"check_perf: note: event count changed "
            f"({baseline.get('events')} -> {best.get('events')}); "
            "re-record BENCH_engine.json if the change is intended"
        )
    return 2 if failed else 0


def check_recorder_overhead(tolerance: float, repeat: int) -> int:
    """Recorder-detached gate: a detached flight recorder costs nothing.

    The flight recorder subscribes to every telemetry kind while
    attached; once detached the bus must fall back to its cached
    zero-subscriber fast path.  This gate runs the engine benchmark
    with a :class:`~repro.telemetry.record.TraceRecorder` attached and
    immediately detached before the timed run — so the hot path starts
    from the post-detach bus state — and the best-of-*repeat*
    throughput must stay within *tolerance* of the committed baseline,
    the same floor discipline as the telemetry/spans gates.
    """
    if not os.path.exists(BASELINE):
        print(f"check_perf: no committed baseline at {BASELINE}")
        return 3
    with open(BASELINE) as fh:
        baseline = json.load(fh)

    from benchmarks.bench_engine_throughput import run_benchmark
    from repro.telemetry.record import TraceRecorder

    def attach_detach(system) -> None:
        recorder = TraceRecorder()
        recorder.attach(system.machine.bus)
        recorder.detach()
        recorder.close()

    best = None
    for _ in range(max(1, repeat)):
        record = run_benchmark(setup=attach_detach)
        if best is None or record["events_per_sec"] > best["events_per_sec"]:
            best = record
    reference = baseline["events_per_sec"]
    fresh = best["events_per_sec"]
    floor = reference * (1.0 - tolerance)
    verdict = "ok" if fresh >= floor else "REGRESSION"
    print(
        f"check_perf: recorder-detached gate: {fresh:.1f} events/sec vs "
        f"floor {floor:.1f} (tolerance {tolerance:.0%}): {verdict}"
    )
    return 0 if fresh >= floor else 2


#: Fast, fully sharded experiments for the parallel-overhead gate
#: (~5 s serial): enough units to exercise the pool without the cost of
#: the full registry.
PARALLEL_GATE_IDS = ("table1", "sporadic", "robustness_pcpu_fail")


def check_parallel_overhead(tolerance: float) -> int:
    """Two-job run of a fast subset must not lose to the serial run.

    The executor collapses the pool to the in-process path when the
    host cannot actually run two workers (one CPU), and submits units
    longest-first otherwise, so ``--jobs 2`` must never cost more than
    serial beyond measurement noise.  *tolerance* absorbs that noise —
    both runs execute identical deterministic work, but wall clocks on
    shared machines wobble.
    """
    import time as _time

    from repro.runner import run_experiments

    ids = list(PARALLEL_GATE_IDS)
    print(f"check_perf: parallel-overhead gate over {', '.join(ids)} ...")
    started = _time.perf_counter()
    run_experiments(ids, jobs=1)
    serial = _time.perf_counter() - started
    started = _time.perf_counter()
    run_experiments(ids, jobs=2)
    parallel = _time.perf_counter() - started
    ceiling = serial * (1.0 + tolerance)
    verdict = "ok" if parallel <= ceiling else "REGRESSION"
    print(
        f"check_perf: jobs=2 {parallel:.2f}s vs serial {serial:.2f}s "
        f"(ceiling {ceiling:.2f}s, tolerance {tolerance:.0%}): {verdict}"
    )
    return 0 if parallel <= ceiling else 2


def check_registry_wall(
    tolerance: float,
    jobs: int = 0,
    max_unit_s: float = 18.0,
    history: dict = None,
) -> int:
    """Full-registry gate: parallel wall time vs ``BENCH_registry.json``.

    The fresh run uses the baseline's job count (override with *jobs*)
    and a disabled cache, so the comparison is like-for-like.  The same
    run also feeds the slowest-unit gate: no single work unit may take
    longer than *max_unit_s* (0 disables), the shard-granularity
    contract that keeps the parallel critical path — and hence the
    warm-edit turnaround — bounded by one shard, not one experiment.

    A second wall comparison at the same *tolerance* sums the per-unit
    times over the units present in both the baseline and the fresh
    run, which keeps the verdict meaningful when the registry grows new
    experiments after the baseline was recorded (the absolute parallel
    wall would then compare different workloads).
    """
    if not os.path.exists(REGISTRY_BASELINE):
        print(f"check_perf: no committed baseline at {REGISTRY_BASELINE}")
        print("check_perf: run benchmarks/bench_registry.py to create one")
        return 3
    with open(REGISTRY_BASELINE) as fh:
        baseline = json.load(fh)

    from benchmarks.bench_registry import time_run

    jobs = jobs or int(baseline.get("jobs", 1))
    print(f"check_perf: full-registry parallel run ({jobs} jobs) ...")
    fresh = time_run(jobs)
    reference = baseline["parallel_wall_s"]
    ceiling = reference * (1.0 + tolerance)
    verdict = "ok" if fresh["wall_s"] <= ceiling else "REGRESSION"
    print(
        f"check_perf: registry wall {fresh['wall_s']:.1f}s vs baseline "
        f"{reference:.1f}s "
        f"(ceiling {ceiling:.1f}s, tolerance {tolerance:.0%}): {verdict}"
    )
    failed = fresh["wall_s"] > ceiling
    if history is not None:
        history["registry_wall_s"] = round(fresh["wall_s"], 2)
        if fresh.get("per_unit_s"):
            unit_id, unit_s = max(
                fresh["per_unit_s"].items(), key=lambda item: item[1]
            )
            history["slowest_unit"] = {"id": unit_id, "wall_s": round(unit_s, 2)}
    base_units = baseline.get("per_unit_serial_s") or {}
    fresh_units = fresh.get("per_unit_s") or {}
    shared = set(base_units) & set(fresh_units)
    if shared:
        base_sum = sum(base_units[unit] for unit in shared)
        fresh_sum = sum(fresh_units[unit] for unit in shared)
        comparable_ceiling = base_sum * (1.0 + tolerance)
        shared_verdict = "ok" if fresh_sum <= comparable_ceiling else "REGRESSION"
        print(
            f"check_perf: comparable wall {fresh_sum:.1f}s vs baseline "
            f"{base_sum:.1f}s over {len(shared)} shared units "
            f"(ceiling {comparable_ceiling:.1f}s, "
            f"tolerance {tolerance:.0%}): {shared_verdict}"
        )
        failed = failed or fresh_sum > comparable_ceiling
    if max_unit_s > 0 and fresh.get("per_unit_s"):
        slowest_id, slowest = max(
            fresh["per_unit_s"].items(), key=lambda item: item[1]
        )
        unit_verdict = "ok" if slowest <= max_unit_s else "REGRESSION"
        print(
            f"check_perf: slowest unit {slowest_id} {slowest:.1f}s vs "
            f"ceiling {max_unit_s:.1f}s: {unit_verdict}"
        )
        failed = failed or slowest > max_unit_s
    return 2 if failed else 0


HISTORY = os.path.join(REPO_ROOT, "BENCH_history.jsonl")


def append_history(history: dict, path: str) -> None:
    """Append one run's verdict to the history ledger at *path*.

    ``BENCH_engine.json``/``BENCH_registry.json`` only hold the latest
    accepted state; the history file keeps the full trajectory — one
    JSON line per ``check_perf`` verdict with the stamp, git sha,
    pass/fail status and the measurements taken — so regressions can be
    dated after the fact.
    """
    import time as _time

    from repro.runner.ledger import git_sha

    entry = dict(
        {
            "stamp": _time.strftime("%Y%m%d-%H%M%S", _time.gmtime()),
            "git_sha": git_sha(REPO_ROOT),
        },
        **history,
    )
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"check_perf: history line appended to {path}")


def run_gates(args, history: dict):
    """Run the selected gates in order, stopping at the first failure.

    Returns ``(exit status, name of the failing gate or None)``; the
    gates record what they measured into *history* as they go.
    """
    if not args.skip_tests:
        print("check_perf: running tier-1 test suite ...")
        if not run_tier1_tests():
            print("check_perf: tier-1 tests failed")
            return 1, "tests"
    gates = [
        ("throughput", True, lambda: check_throughput(
            args.tolerance,
            args.repeat,
            telemetry_tolerance=args.telemetry_tolerance,
            spans_tolerance=args.spans_tolerance,
            history=history,
        )),
        ("recorder", args.recorder_tolerance > 0, lambda: check_recorder_overhead(
            args.recorder_tolerance, args.repeat
        )),
        ("parallel", not args.skip_parallel, lambda: check_parallel_overhead(
            args.parallel_tolerance
        )),
        ("registry", not args.skip_registry, lambda: check_registry_wall(
            args.registry_tolerance,
            args.registry_jobs,
            args.max_unit_s,
            history=history,
        )),
    ]
    for name, enabled, gate in gates:
        if enabled:
            status = gate()
            if status:
                return status, name
    return 0, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tolerance", type=float, default=0.10,
        help="allowed fractional events/sec regression (default 0.10)",
    )
    parser.add_argument(
        "--parallel-tolerance", type=float, default=0.25,
        help="allowed jobs=2 overhead vs serial on the fast subset "
        "(default 0.25 — a noise margin; the contract is 'never "
        "meaningfully slower', not 'faster')",
    )
    parser.add_argument(
        "--skip-parallel", action="store_true",
        help="skip the parallel-runner overhead gate",
    )
    parser.add_argument(
        "--registry-tolerance", type=float, default=0.15,
        help="allowed fractional registry wall-time regression (default 0.15)",
    )
    parser.add_argument(
        "--telemetry-tolerance", type=float, default=0.05,
        help="allowed zero-subscriber telemetry overhead on engine "
        "throughput (default 0.05; 0 disables the gate)",
    )
    parser.add_argument(
        "--spans-tolerance", type=float, default=0.05,
        help="allowed spans-disabled overhead on engine throughput — "
        "no SpanBuilder attached, no profiler installed "
        "(default 0.05; 0 disables the gate)",
    )
    parser.add_argument(
        "--recorder-tolerance", type=float, default=0.05,
        help="allowed recorder-detached overhead on engine throughput — "
        "a flight recorder attached to the bus and detached again "
        "before the timed run (default 0.05; 0 disables the gate)",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="do not append this run to BENCH_history.jsonl",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="benchmark runs; the best one is compared (default 3)",
    )
    parser.add_argument(
        "--skip-tests", action="store_true",
        help="skip the tier-1 suite and only run the benchmark gates",
    )
    parser.add_argument(
        "--skip-registry", action="store_true",
        help="skip the full-registry wall-time gate",
    )
    parser.add_argument(
        "--registry-jobs", type=int, default=0,
        help="worker count for the registry gate (default: the baseline's)",
    )
    parser.add_argument(
        "--max-unit-s", type=float, default=18.0,
        help="slowest-unit ceiling for the registry gate in seconds "
        "(default 18.0; 0 disables) — no single work unit may cost "
        "more, keeping the parallel critical path shard-bounded",
    )
    args = parser.parse_args(argv)

    history: dict = {}
    status, failed_gate = run_gates(args, history)
    if status != 3 and not args.no_history:
        history["status"] = "fail" if status else "pass"
        history["failed_gate"] = failed_gate
        append_history(history, HISTORY)
    return status


if __name__ == "__main__":
    sys.exit(main())
