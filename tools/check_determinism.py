#!/usr/bin/env python
"""Determinism harness over the experiment registry.

Runs the selected experiments once, serially and uncached (their
work-unit plans at ``jobs=1``), and hashes each one's ``rows()`` with
:func:`repro.runner.ledger.rows_hash`.  The record of that run is a
run-ledger manifest (:func:`repro.runner.ledger.run_manifest`), the
same record every ``repro run`` writes: ``--record`` writes it, and
``--check`` compares this run with the ``experiments[id].rows_sha256``
of any manifest — a ``--record`` file, or the
``runs/<stamp>/manifest.json`` of ``repro run … --no-cache``.
Recording before an optimisation and checking afterwards proves the
change preserved byte-identical metrics:

    python tools/check_determinism.py --record baseline.json
    ... hack on the scheduler hot path ...
    python tools/check_determinism.py --check baseline.json
    python tools/check_determinism.py --check runs/<stamp>/manifest.json

With ``--parallel N`` the same plans are additionally executed across
N worker processes (cache disabled) and each experiment's merged
``rows()`` hash must equal the serial hash — the serial-vs-parallel
equivalence gate:

    python tools/check_determinism.py --parallel 4
    python tools/check_determinism.py --check baseline.json --parallel 4

With ``--streams N`` the telemetry probe's scenario cells
(``repro.telemetry.probe``) run twice with the ``telemetry`` observer —
serially and across N workers — and each system's *merged
streaming-aggregate snapshot* must hash identically: the gate that
sharded telemetry streams merge byte-identically to a single stream.
``--streams`` stands alone; it does not rerun the experiment registry:

    python tools/check_determinism.py --streams 4

With ``--blame N`` the robustness smoke cells of two fault families run
twice with the ``blame`` observer — serially and across N workers — and
the merged blame report (``repro.telemetry.blame_plan``) plus every
per-cell snapshot must hash identically: the gate that miss attribution
is independent of how the work units were scheduled.  Like
``--streams`` it stands alone:

    python tools/check_determinism.py --blame 4

With ``--trace N`` the robustness smoke cells of two fault families run
twice with the ``record`` observer — serially and across N workers —
and the merged trace's *canonical hash* (``repro.telemetry.trace_plan``;
a digest of every telemetry event the runs emitted, not just the end
metrics) must be identical in both: the gate that the simulated event
stream itself is byte-stable under work-unit re-scheduling.  Like
``--streams`` it stands alone:

    python tools/check_determinism.py --trace 4

``--parallel``, ``--streams``, ``--blame`` and ``--trace`` are rows of
one table (:data:`RERUNS`): what to run, and a digest mapping labels to
hashes.  Each row runs at ``jobs=1`` and at ``jobs=N``.  Every check —
these rows, ``--cache`` and the baseline — compares labels to hashes
the same way and prints ``<label>: <side> X vs <side> Y: ok|DIVERGED``.

Serial against parallel cannot see a change that moves the same bytes
on both sides — an encoder writing different bytes, say.  So ``--record``
also stores the serial digest of every ``--streams``, ``--blame`` and
``--trace`` label it ran, as ``{"digest": label, "sha256": hash}``
entries of the manifest's ``files``, and ``--check`` with the same flags
compares this run's serial digests with them (a label the baseline
lacks is a failure):

    python tools/check_determinism.py --record base.json --trace 2
    python tools/check_determinism.py --check base.json --trace 2

``--only`` narrows any registry mode to one family.  The multi-host
``cluster_*`` experiments shard per cluster configuration, and the
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
``--parallel`` (the cold and warm runs then use that worker count, and
the cold hashes are also checked against the serial ones):

    python tools/check_determinism.py --cache
    python tools/check_determinism.py --parallel 4 --cache

``--seed N`` reaches only the ids whose simulation draws from a seed
(``robustness_jitter`` and ``cluster_*``); every other id, and the
``--blame``/``--trace`` cells (pcpu_fail, hypercall, vm_churn), run at
their registry seed.  It needs a registry pass (``--record``,
``--check``, ``--parallel`` or ``--cache``): beside ``--streams``,
``--blame`` or ``--trace`` alone it would reach nothing, so it exits 2.

Exit status is 1 when any experiment's hash differs from the baseline
(or is missing from it), or when a rerun diverges from the serial path;
2 on bad arguments, including a ``--check`` manifest that is missing or
malformed — the manifest is read before anything runs — and a
``--seed`` that no pass reaches.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import registry  # noqa: E402
from repro.runner import run_experiments  # noqa: E402
from repro.runner.executor import run_plans  # noqa: E402
from repro.runner.ledger import rows_hash, run_manifest  # noqa: E402
from repro.runner.workunits import observed_smoke_plans  # noqa: E402


def report_hashes(report) -> dict:
    """Experiment id -> merged ``rows()`` hash of one run's report."""
    return {r.experiment_id: rows_hash(r.rows) for r in report.reports}


def registry_hashes(ids, jobs: int, seed=None) -> dict:
    """Experiment id -> merged ``rows()`` hash of one run over *ids*."""
    return report_hashes(run_experiments(ids, jobs=jobs, seed=seed))


def stream_hashes(ids, jobs: int, seed=None) -> dict:
    """Telemetry probe: its scenario cells run with the ``telemetry``
    observer; each system's merged streaming-aggregate snapshot."""
    from repro.runner.workunits import observed_plan, scenario_plan
    from repro.telemetry.probe import (
        PROBE_SEEDS,
        PROBE_SYSTEMS,
        ProbeResult,
        probe_spec,
    )

    cells = [(system, n) for system in PROBE_SYSTEMS for n in PROBE_SEEDS]
    plans = [
        observed_plan(
            scenario_plan(probe_spec(system, n), f"probe:{system}:{n}"), ("telemetry",)
        )
        for system, n in cells
    ]
    parts = [
        {"system": system, "snapshot": report.results[0][2]["telemetry"][0]}
        for (system, _), report in zip(cells, run_plans(plans, jobs).reports)
    ]
    merged = ProbeResult(parts).merged
    return {f"streams/{system}": rows_hash(merged[system]) for system in sorted(merged)}


def _observed_cells(faults, observer: str, jobs: int, seed) -> list:
    """Robustness smoke cells (1 simulated second) of *faults*, every
    scheduler, run with *observer*: ``(unit, part, outputs)`` each."""
    ids = [f"robustness_{fault}" for fault in faults]
    reports = run_plans(observed_smoke_plans(ids, (observer,), seed=seed), jobs).reports
    return [cell for report in reports for cell in report.results]


def blame_hashes(ids, jobs: int, seed=None) -> dict:
    """Blame sweep (two fault families, every scheduler, 1 simulated
    second): the merged report and every cell's own snapshot."""
    from repro.telemetry.blame_plan import blame_sweep

    sweep = blame_sweep(_observed_cells(("pcpu_fail", "hypercall"), "blame", jobs, seed))
    hashes = {"blame/merged": rows_hash(sweep.merged.snapshot())}
    for part in sweep.parts:
        hashes[f"blame/{part['fault']}/{part['scheduler']}"] = rows_hash(part)
    return hashes


def trace_hashes(ids, jobs: int, seed=None) -> dict:
    """Flight-recorder sweep (two fault families, every scheduler, 1
    simulated second): the merged trace's canonical hash — a digest of
    every telemetry event, not just the end metrics — and each cell's."""
    from repro.telemetry.trace_plan import trace_bundle

    bundle = trace_bundle(_observed_cells(("pcpu_fail", "vm_churn"), "record", jobs, seed))
    hashes = {"trace/merged": bundle.merged_hash}
    for part in bundle.parts:
        hashes[f"trace/{part['fault']}/{part['scheduler']}"] = part["hash"]
    return hashes


#: (flag, what reruns, digest(ids, jobs, seed) -> {label: hash}).  Each
#: row runs at jobs=1 and at jobs=N; every label must hash identically.
#: ``--parallel``'s jobs=1 side is the serial pass whose manifest --record
#: writes; every other row's labels start with ``<flag>/``, and --record
#: stores its jobs=1 digest in that manifest.
RERUNS = (
    ("parallel", "parallel", registry_hashes),
    ("streams", "telemetry-stream", stream_hashes),
    ("blame", "blame-sweep", blame_hashes),
    ("trace", "trace-sweep", trace_hashes),
)


def compare(got: dict, want: dict, got_side: str, want_side: str) -> list:
    """Print every label's *got* hash against its *want* hash; the
    failures (a differing or missing hash)."""
    failures = []
    for label in list(want) + [k for k in got if k not in want]:
        w = want.get(label, "missing")
        g = got.get(label, "missing")
        verdict = "ok" if g == w else "DIVERGED"
        print(
            f"[determinism]   {label}: {got_side} {g[:16]} "
            f"vs {want_side} {w[:16]}: {verdict}",
            flush=True,
        )
        if g != w:
            failures.append(f"{label}: {got_side} {g[:16]} != {want_side} {w[:16]}")
    return failures


def compare_rerun(name: str, run, jobs: int, serial: dict) -> list:
    """Run *run* at *jobs* workers and compare every label with *serial*."""
    print(f"[determinism] {name} rerun with {jobs} job(s) ...", flush=True)
    started = time.perf_counter()
    failures = compare(run(jobs), serial, "parallel", "serial")
    print(
        f"[determinism] {name} rerun took {time.perf_counter() - started:.1f}s",
        flush=True,
    )
    return failures


def check_cache(ids, serial: dict, jobs: int = 1, seed=None) -> list:
    """Warm-cache gate: a cached rerun is byte-identical and actually hits.

    The cold run populates a fresh temporary cache; the warm rerun must
    resolve every unit from it (zero misses, at least one hit) and merge
    rows hashing identically to the cold run's.  When this invocation
    also ran the serial pass (``--record``/``--check``/``--parallel``),
    the cold hashes must match *serial* too — proving the cached path
    feeds the exact serial bytes back.
    """
    import tempfile

    from repro.runner import ResultCache

    print(f"[determinism] cache gate: cold+warm run ({jobs} job(s)) ...", flush=True)
    with tempfile.TemporaryDirectory(prefix="repro-cache-gate-") as tmp:
        cold, warm = (
            run_experiments(
                ids, jobs=jobs, cache=ResultCache(os.path.join(tmp, "cache")), seed=seed
            )
            for _ in range(2)
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
    cold_hashes = report_hashes(cold)
    if serial:
        failures.extend(compare(cold_hashes, serial, "cold", "serial"))
    failures.extend(compare(report_hashes(warm), cold_hashes, "warm", "cold"))
    return failures


def load_manifest(path: str) -> tuple:
    """The run-ledger manifest at *path* as two maps: experiment id ->
    ``rows_sha256``, and rerun label -> the serial digest ``--record``
    stored in ``files``.

    Raises :class:`ValueError` with a one-line reason when the file is
    missing, is not JSON, or is not a manifest.
    """
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ValueError(exc.strerror or str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"not JSON ({exc})") from None
    experiments = manifest.get("experiments") if isinstance(manifest, dict) else None
    if not isinstance(experiments, dict):
        raise ValueError("not a run manifest: no experiments object")
    for experiment_id, entry in experiments.items():
        if not (isinstance(entry, dict) and isinstance(entry.get("rows_sha256"), str)):
            raise ValueError(f"experiment {experiment_id!r} has no rows_sha256 string")
    files = manifest.get("files", [])
    if not isinstance(files, list):
        raise ValueError("files is not a list")
    digests = {}
    for entry in files:
        if isinstance(entry, dict) and "digest" in entry:
            if not isinstance(entry.get("sha256"), str):
                raise ValueError(f"digest {entry['digest']!r} has no sha256 string")
            digests[entry["digest"]] = entry["sha256"]
    rows = {i: entry["rows_sha256"] for i, entry in experiments.items()}
    return rows, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=False)
    mode.add_argument(
        "--record", metavar="PATH", help="write the serial run's manifest to PATH"
    )
    mode.add_argument(
        "--check", metavar="PATH", help="compare against the run manifest at PATH"
    )
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
        help="RNG-seed override for the ids whose simulation draws from it "
        "(robustness_jitter, cluster_*); applied to every pass",
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
    if args.seed is not None and not (
        args.record or args.check or args.parallel or args.cache
    ):
        print(
            "check_determinism: --seed reaches nothing here: the --streams, "
            "--blame and --trace passes take no seed",
            file=sys.stderr,
        )
        return 2
    baseline = baseline_digests = None
    if args.check:
        try:
            baseline, baseline_digests = load_manifest(args.check)
        except ValueError as exc:
            print(
                f"check_determinism: bad manifest {args.check}: {exc}",
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
    serial = {}
    if run_registry:
        report = run_experiments(
            ids, jobs=1, seed=args.seed, echo=lambda m: print(f"[determinism] {m}")
        )
        serial = report_hashes(report)
        for r in report.reports:
            print(
                f"[determinism]   {r.experiment_id}: {serial[r.experiment_id][:16]} "
                f"({round(r.unit_wall_s, 3)}s)",
                flush=True,
            )

    failures = []
    digests = {}  # label -> serial hash, for every row but --parallel
    for flag, name, digest in RERUNS:
        jobs = getattr(args, flag)
        if not jobs:
            continue

        def run(n, digest=digest):
            return digest(ids, n, seed=args.seed)

        reference = serial if flag == "parallel" else run(1)
        if flag != "parallel":
            digests.update(reference)
        failures.extend(compare_rerun(name, run, max(1, jobs), reference))
    if args.cache:
        failures.extend(check_cache(ids, serial, jobs=args.parallel or 1, seed=args.seed))

    if args.record:
        files = [{"digest": label, "sha256": h} for label, h in digests.items()]
        manifest = run_manifest(report, seed=args.seed, files=files)
        with open(args.record, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[determinism] manifest written to {args.record}")
    elif baseline is not None:
        print(f"[determinism] baseline {args.check}:", flush=True)
        want = {i: baseline.get(i, "missing") for i in ids}
        failures.extend(compare(serial, want, "run", "baseline"))
        ran = {label.split("/")[0] for label in digests}
        want = {k: h for k, h in baseline_digests.items() if k.split("/")[0] in ran}
        failures.extend(compare(digests, want, "run", "baseline"))

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
