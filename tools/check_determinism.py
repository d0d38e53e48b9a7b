#!/usr/bin/env python
"""Determinism harness over the experiment registry.

Runs every experiment in :mod:`repro.experiments.registry`, serialises
each result's ``rows()`` to canonical JSON and hashes it.  Recording a
baseline before an optimisation and checking against it afterwards
proves the change preserved byte-identical metrics:

    python tools/check_determinism.py --record baseline_metrics.json
    ... hack on the scheduler hot path ...
    python tools/check_determinism.py --check baseline_metrics.json

With ``--parallel N`` the same experiments are additionally executed
through the parallel work-unit runner (``repro.runner``, N worker
processes, cache disabled) and each experiment's merged ``rows()`` hash
must equal the serial hash — the serial-vs-parallel equivalence gate:

    python tools/check_determinism.py --parallel 4
    python tools/check_determinism.py --check baseline.json --parallel 4

With ``--streams N`` the telemetry probe (``repro.telemetry.probe``)
runs its sharded plan twice — serially and across N workers — and each
system's *merged streaming-aggregate snapshot* must hash identically:
the gate that sharded telemetry streams merge byte-identically to a
single stream.  ``--streams`` stands alone; it does not rerun the
experiment registry:

    python tools/check_determinism.py --streams 4

With ``--blame N`` the span/blame sweep (``repro.telemetry.blame_plan``)
runs a fixed two-family robustness sharding twice — serially and across
N workers — and the merged blame report plus every per-cell snapshot
must hash identically: the gate that miss attribution is independent of
how the work units were scheduled.  Like ``--streams`` it stands alone:

    python tools/check_determinism.py --blame 4

With ``--trace N`` the flight-recorder sweep (``repro.telemetry
.trace_plan``) records a fixed two-family robustness sharding twice —
serially and across N workers — and the merged trace's *canonical hash*
(a digest of every telemetry event the runs emitted, not just the end
metrics) must be identical in both: the gate that the simulated event
stream itself is byte-stable under work-unit re-scheduling.  Like
``--streams`` it stands alone:

    python tools/check_determinism.py --trace 4

``--only`` narrows any registry mode to one family.  The multi-host
``cluster_*`` experiments shard per observed host, and the
adaptive-control ``feedback_*``/``tenant_*`` experiments shard per
policy cell, so the serial-vs-parallel gate over each family proves
its shards reassemble byte-identically however they were spread over
workers:

    python tools/check_determinism.py --only 'cluster_*' --parallel 4
    python tools/check_determinism.py --only 'feedback_*,tenant_*' --parallel 4

With ``--cache`` the selected experiments run twice through the runner
against a fresh temporary cache directory — a cold run that writes
every work unit, then a warm rerun that must execute *nothing* (every
unit a cache hit, zero misses) while its merged ``rows()`` still hash
identically to the cold run's: the gate that the dependency-aware
incremental cache returns the same bytes it stored.  It composes with
``--parallel`` (the warm pair then runs with that worker count, and
the cold hashes are also checked against the serial digests):

    python tools/check_determinism.py --cache
    python tools/check_determinism.py --parallel 4 --cache

Exit status is 1 when any experiment's hash differs from the recorded
baseline (or, with ``--check``, when an experiment appeared or
disappeared), or when the parallel runner's merged output diverges from
the serial path; 2 on bad arguments, including a ``--check`` baseline
that is missing or not in the format ``--record`` writes — the baseline
is validated before anything runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import registry  # noqa: E402
from repro.runner.ledger import rows_hash  # noqa: E402


def experiment_digest(experiment_id: str, seed=None) -> dict:
    """Run one experiment and return its row count and metrics hash.

    With *seed* set, seed-taking experiments (the robustness family) run
    through the work-unit plans in-process (``jobs=1``) so the override
    reaches them; the plans are the same ones the parallel rerun uses.
    """
    started = time.perf_counter()
    if seed is not None:
        from repro.runner import run_experiments

        report = run_experiments([experiment_id], jobs=1, seed=seed)
        rows = report.reports[0].rows
    else:
        rows = registry.run(experiment_id).rows()
    elapsed = time.perf_counter() - started
    return {
        "rows": len(rows),
        "sha256": rows_hash(rows),
        "wall_s": round(elapsed, 2),
    }


def check_parallel(ids, serial_digests, jobs: int, seed=None) -> list:
    """Serial-vs-parallel gate: rerun through the work-unit runner.

    The runner executes each experiment's work units across *jobs*
    processes with the cache disabled and merges in canonical order; the
    merged rows must hash identically to the serial ``registry.run``
    path, otherwise the shard decomposition (or the engine's determinism)
    has broken.
    """
    from repro.runner import run_experiments

    print(f"[determinism] parallel rerun with {jobs} job(s) ...", flush=True)
    report = run_experiments(ids, jobs=jobs, seed=seed)
    failures = []
    for experiment_report in report.reports:
        experiment_id = experiment_report.experiment_id
        got = rows_hash(experiment_report.rows)
        want = serial_digests[experiment_id]["sha256"]
        verdict = "ok" if got == want else "DIVERGED"
        print(
            f"[determinism]   {experiment_id}: parallel {got[:16]} "
            f"vs serial {want[:16]}: {verdict}",
            flush=True,
        )
        if got != want:
            failures.append(
                f"{experiment_id}: parallel hash {got[:16]} != serial {want[:16]}"
            )
    print(f"[determinism] parallel rerun took {report.wall_s:.1f}s", flush=True)
    return failures


def check_streams(jobs: int) -> list:
    """Streamed-aggregates gate: sharded snapshots merge byte-identically.

    Runs the telemetry probe plan in-process and again across *jobs*
    worker processes; for every probed system the merged
    :class:`~repro.telemetry.aggregate.StandardTelemetry` snapshot must
    hash identically (exact tail mode makes the merge lossless, so any
    divergence means the aggregate merge — or the engine — lost
    determinism).
    """
    from repro.runner.executor import execute_plan
    from repro.telemetry.probe import probe_plan

    print(f"[determinism] telemetry-stream rerun with {jobs} job(s) ...", flush=True)
    plan = probe_plan()
    serial = execute_plan(plan, jobs=1)
    parallel = execute_plan(plan, jobs=max(1, jobs))
    failures = []
    for system in sorted(serial.merged):
        want = rows_hash(serial.merged[system])
        got = rows_hash(parallel.merged.get(system))
        verdict = "ok" if got == want else "DIVERGED"
        print(
            f"[determinism]   streams/{system}: parallel {got[:16]} "
            f"vs serial {want[:16]}: {verdict}",
            flush=True,
        )
        if got != want:
            failures.append(
                f"streams/{system}: parallel snapshot {got[:16]} "
                f"!= serial {want[:16]}"
            )
    return failures


def check_blame(jobs: int, seed=None) -> list:
    """Blame-report gate: sharded miss attribution merges byte-identically.

    Runs a fixed blame sweep (two fault families, every scheduler, 1
    simulated second, fixed seed) in-process and again across *jobs*
    worker processes; the merged :class:`~repro.telemetry.blame.BlameReport`
    snapshot and each cell's own snapshot must hash identically.
    """
    from repro.runner.executor import execute_plan
    from repro.simcore.time import sec
    from repro.telemetry.blame_plan import blame_plan

    print(f"[determinism] blame-sweep rerun with {jobs} job(s) ...", flush=True)
    plan = blame_plan(
        faults=("pcpu_fail", "hypercall"),
        duration_ns=sec(1),
        seed=seed if seed is not None else 11,
    )
    serial = execute_plan(plan, jobs=1)
    parallel = execute_plan(plan, jobs=max(1, jobs))
    failures = []
    want = rows_hash(serial.merged.snapshot())
    got = rows_hash(parallel.merged.snapshot())
    verdict = "ok" if got == want else "DIVERGED"
    print(
        f"[determinism]   blame/merged: parallel {got[:16]} "
        f"vs serial {want[:16]}: {verdict}",
        flush=True,
    )
    if got != want:
        failures.append(
            f"blame/merged: parallel report {got[:16]} != serial {want[:16]}"
        )
    for serial_part, parallel_part in zip(serial.parts, parallel.parts):
        cell = f"{serial_part['fault']}/{serial_part['scheduler']}"
        want = rows_hash(serial_part)
        got = rows_hash(parallel_part)
        if got != want:
            print(
                f"[determinism]   blame/{cell}: parallel {got[:16]} "
                f"vs serial {want[:16]}: DIVERGED",
                flush=True,
            )
            failures.append(
                f"blame/{cell}: parallel shard {got[:16]} != serial {want[:16]}"
            )
    return failures


def check_trace(jobs: int, seed=None) -> list:
    """Flight-recorder gate: canonical trace hashes survive resharding.

    Records a fixed robustness trace sweep (two fault families, every
    scheduler, 1 simulated second) in-process and again across *jobs*
    worker processes.  The merged trace — every telemetry event of
    every cell, framed in canonical unit order — must hash identically
    in both executions: the event *stream*, not just the derived
    metrics, is byte-stable.
    """
    from repro.runner.executor import execute_plan
    from repro.simcore.time import sec
    from repro.telemetry.trace_plan import trace_plan

    print(f"[determinism] trace-sweep rerun with {jobs} job(s) ...", flush=True)
    plan = trace_plan(
        faults=("pcpu_fail", "vm_churn"),
        duration_ns=sec(1),
        seed=seed if seed is not None else 11,
    )
    serial = execute_plan(plan, jobs=1)
    parallel = execute_plan(plan, jobs=max(1, jobs))
    failures = []
    verdict = "ok" if parallel.merged_hash == serial.merged_hash else "DIVERGED"
    print(
        f"[determinism]   trace/merged: parallel {parallel.merged_hash[:16]} "
        f"vs serial {serial.merged_hash[:16]}: {verdict}",
        flush=True,
    )
    if parallel.merged_hash != serial.merged_hash:
        failures.append(
            f"trace/merged: parallel hash {parallel.merged_hash[:16]} "
            f"!= serial {serial.merged_hash[:16]}"
        )
        for serial_part, parallel_part in zip(serial.parts, parallel.parts):
            if serial_part["hash"] != parallel_part["hash"]:
                cell = f"{serial_part['fault']}/{serial_part['scheduler']}"
                failures.append(
                    f"trace/{cell}: parallel shard {parallel_part['hash'][:16]} "
                    f"!= serial {serial_part['hash'][:16]}"
                )
    return failures


def check_cache(ids, serial_digests, jobs: int = 1, seed=None) -> list:
    """Warm-cache gate: a cached rerun is byte-identical and actually hits.

    The cold run populates a fresh temporary cache; the warm rerun must
    resolve every unit from it (zero misses, at least one hit) and merge
    rows hashing identically to the cold run's.  When this invocation
    also computed serial digests (``--record``/``--check``/``--parallel``),
    the cold hashes must match those too — proving the cached path feeds
    the exact serial bytes back.
    """
    import tempfile

    from repro.runner import ResultCache, run_experiments

    print(f"[determinism] cache gate: cold+warm run ({jobs} job(s)) ...", flush=True)
    with tempfile.TemporaryDirectory(prefix="repro-cache-gate-") as tmp:
        cache_dir = os.path.join(tmp, "cache")
        cold = run_experiments(
            ids, jobs=jobs, cache=ResultCache(cache_dir), seed=seed
        )
        warm = run_experiments(
            ids, jobs=jobs, cache=ResultCache(cache_dir), seed=seed
        )
    failures = []
    total_units = warm.cache_hits + warm.cache_misses
    if warm.cache_hits <= 0 or warm.cache_misses != 0:
        failures.append(
            f"cache: warm rerun hit only {warm.cache_hits}/{total_units} "
            f"units ({warm.cache_misses} misses; expected all hits)"
        )
    print(
        f"[determinism]   warm rerun: {warm.cache_hits}/{total_units} hits, "
        f"{warm.cache_misses} misses "
        f"(cold {cold.wall_s:.1f}s -> warm {warm.wall_s:.1f}s)",
        flush=True,
    )
    for cold_report, warm_report in zip(cold.reports, warm.reports):
        experiment_id = cold_report.experiment_id
        want = rows_hash(cold_report.rows)
        got = rows_hash(warm_report.rows)
        serial = serial_digests.get(experiment_id, {}).get("sha256")
        diverged = got != want or (serial is not None and want != serial)
        verdict = "DIVERGED" if diverged else "ok"
        print(
            f"[determinism]   {experiment_id}: warm {got[:16]} "
            f"vs cold {want[:16]}: {verdict}",
            flush=True,
        )
        if got != want:
            failures.append(
                f"{experiment_id}: warm-cache hash {got[:16]} != cold {want[:16]}"
            )
        elif serial is not None and want != serial:
            failures.append(
                f"{experiment_id}: cached hash {want[:16]} != serial {serial[:16]}"
            )
    return failures


def load_baseline(path: str) -> dict:
    """Read a ``--record`` baseline: experiment id -> ``{"sha256": ...}``.

    Raises :class:`ValueError` with a one-line reason when the file is
    missing, is not JSON, or is not in the recorded format.
    """
    try:
        with open(path) as fh:
            baseline = json.load(fh)
    except OSError as exc:
        raise ValueError(exc.strerror or str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"not JSON ({exc})") from None
    if not isinstance(baseline, dict):
        raise ValueError("expected a JSON object of experiment ids")
    for experiment_id, digest in baseline.items():
        if not (isinstance(digest, dict) and isinstance(digest.get("sha256"), str)):
            raise ValueError(f"entry {experiment_id!r} has no sha256 string")
    return baseline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=False)
    mode.add_argument("--record", metavar="PATH", help="write baseline hashes to PATH")
    mode.add_argument("--check", metavar="PATH", help="compare against baseline at PATH")
    parser.add_argument(
        "--only",
        metavar="IDS",
        help="comma-separated experiment ids or globs like 'robustness_*' "
        "(default: all)",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        metavar="JOBS",
        help="also run the parallel work-unit runner with JOBS processes "
        "and fail unless its merged output hashes equal the serial run's",
    )
    parser.add_argument(
        "--seed",
        type=int,
        metavar="N",
        help="RNG-seed override for seed-taking experiments (robustness "
        "family); applied to both the serial and the parallel pass",
    )
    parser.add_argument(
        "--streams",
        type=int,
        metavar="JOBS",
        help="run the telemetry probe serially and with JOBS processes "
        "and fail unless the merged streaming-aggregate snapshots hash "
        "identically (does not rerun the experiment registry)",
    )
    parser.add_argument(
        "--blame",
        type=int,
        metavar="JOBS",
        help="run the span/blame sweep serially and with JOBS processes "
        "and fail unless the merged blame reports hash identically "
        "(does not rerun the experiment registry)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        metavar="JOBS",
        help="record the flight-recorder trace sweep serially and with "
        "JOBS processes and fail unless the merged canonical trace hashes "
        "are identical (does not rerun the experiment registry)",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="run the selected experiments cold then warm against a "
        "fresh temporary cache and fail unless the warm rerun hits "
        "every unit and hashes identically to the cold run",
    )
    args = parser.parse_args(argv)
    if not (
        args.record
        or args.check
        or args.parallel
        or args.streams
        or args.blame
        or args.trace
        or args.cache
    ):
        parser.error(
            "one of --record, --check, --parallel, --streams, --blame, "
            "--trace or --cache is required"
        )
    baseline = None
    if args.check:
        try:
            baseline = load_baseline(args.check)
        except ValueError as exc:
            print(
                f"check_determinism: bad baseline {args.check}: {exc}",
                file=sys.stderr,
            )
            return 2
    if args.only:
        try:
            ids = registry.expand_ids(
                [i.strip() for i in args.only.split(",") if i.strip()]
            )
        except KeyError as exc:
            parser.error(f"--only: {exc.args[0]}")
    else:
        ids = registry.all_ids()

    if args.parallel or args.streams or args.blame or args.trace:
        # The cross-process gates must actually cross processes, even on
        # hosts where the executor would collapse the pool to one CPU.
        os.environ["REPRO_RUNNER_FORCE_POOL"] = "1"

    run_registry = bool(args.record or args.check or args.parallel)
    digests = {}
    if run_registry:
        for experiment_id in ids:
            print(f"[determinism] running {experiment_id} ...", flush=True)
            digests[experiment_id] = experiment_digest(experiment_id, seed=args.seed)
            print(
                f"[determinism]   {experiment_id}: "
                f"{digests[experiment_id]['sha256'][:16]} "
                f"({digests[experiment_id]['wall_s']}s)",
                flush=True,
            )

    failures = []
    if args.parallel:
        failures.extend(check_parallel(ids, digests, args.parallel, seed=args.seed))
    if args.cache:
        failures.extend(
            check_cache(ids, digests, jobs=args.parallel or 1, seed=args.seed)
        )
    if args.streams:
        failures.extend(check_streams(args.streams))
    if args.blame:
        failures.extend(check_blame(args.blame, seed=args.seed))
    if args.trace:
        failures.extend(check_trace(args.trace, seed=args.seed))

    if args.record:
        with open(args.record, "w") as fh:
            json.dump(digests, fh, indent=2, sort_keys=True)
        print(f"[determinism] baseline written to {args.record}")
    elif baseline is not None:
        for experiment_id in ids:
            if experiment_id not in baseline:
                failures.append(f"{experiment_id}: not in baseline")
                continue
            want = baseline[experiment_id]["sha256"]
            got = digests[experiment_id]["sha256"]
            if want != got:
                failures.append(
                    f"{experiment_id}: hash {got[:16]} != baseline {want[:16]}"
                )

    if failures:
        print("[determinism] FAIL")
        for line in failures:
            print(f"  {line}")
        return 1
    checks = []
    if args.check:
        checks.append("baseline")
    if args.parallel:
        checks.append("serial-vs-parallel")
    if args.cache:
        checks.append("warm-cache")
    if args.streams:
        checks.append("streamed-aggregates")
    if args.blame:
        checks.append("blame-reports")
    if args.trace:
        checks.append("trace-hashes")
    suffix = f" ({' + '.join(checks)})" if checks else ""
    standalone = []
    if args.streams:
        standalone.append("telemetry streams")
    if args.blame:
        standalone.append("blame sweep")
    if args.trace:
        standalone.append("trace sweep")
    if run_registry or args.cache:
        subject = f"{len(ids)} experiments"
    else:
        subject = " + ".join(standalone)
    print(f"[determinism] OK — {subject} byte-identical{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
