#!/usr/bin/env python
"""Determinism gate: one table of passes over maps from label to digest.

Every pass compares two maps from a label to a digest and prints
``<label>: <side> X vs <side> Y: ok|DIVERGED`` for each label; a label
present on one side only is a failure.  The serial run makes the maps
the passes compare against:

* the **registry** run executes the selected experiments once,
  serially and uncached (their work-unit plans at ``jobs=1``), and maps
  each experiment id to :func:`repro.runner.ledger.rows_hash` of its
  ``rows()``.  ``--record``, ``--check`` and ``--parallel`` make it;
* the **observed** run executes fifteen fixed cells with the
  ``telemetry``, ``blame`` and ``record`` observers on every unit — the
  probe scenario (``examples/scenarios/probe.json``) under RTVirt,
  RT-Xen and Credit at seeds 1 and 2, and the robustness smoke cells of
  ``pcpu_fail``, ``hypercall`` and ``vm_churn`` — and maps
  ``<observer>/<unit id>/<system>`` to the digest of that output
  (:data:`DIGESTS`): ``rows_hash`` of a telemetry snapshot or a blame
  output, the ``trace_hash`` of a recording.  Only observer outputs are
  hashed, so no label is an experiment id.  ``--observed`` makes it.

The rows of :data:`PASSES` compare those maps:

    --parallel N   the registry at jobs=N against the serial run
    --observed N   the observed cells at jobs=N against jobs=1
    --cache        the registry run cold into a fresh temporary cache
                   against the serial run (when one ran), and the warm
                   rerun, which must hit every unit, against the cold one
                   (at --parallel's jobs when given)
    --check PATH   the serial run against a run-ledger manifest

The record of a serial run is a run-ledger manifest
(:func:`repro.runner.ledger.run_manifest`), the same record every
``repro run`` writes.  ``--record`` writes it, with each observed digest
as a ``{"digest": label, "sha256": hash}`` entry of its ``files``.
``--check`` reads any manifest — a ``--record`` file, or the
``runs/<stamp>/manifest.json`` of ``repro run … --no-cache`` — as
experiment id -> ``rows_sha256`` plus digest label -> ``sha256``.
Recording before a change and checking afterwards proves the change
moved no byte:

    python tools/check_determinism.py --record base.json --parallel 4 --observed 4
    ... hack on the scheduler hot path ...
    python tools/check_determinism.py --check base.json --parallel 4 --observed 4 \
        --cache

Serial against parallel cannot see a change that moves the same bytes
in every process (an encoder writing different bytes, say); the
baseline does.  With ``--observed``, ``--check`` compares every digest
the baseline holds, so a baseline recorded without it fails.

``--only`` narrows the registry to ids or globs.  The multi-host
``cluster_*`` experiments shard per cluster configuration and the
adaptive-control ``feedback_*``/``tenant_*`` experiments per policy
cell, so ``--parallel`` over each family proves its shards reassemble
byte-identically however they were spread over workers:

    python tools/check_determinism.py --only 'cluster_*' --parallel 4

``--seed N`` reaches only the ids whose simulation draws from a seed
(``robustness_jitter`` and ``cluster_*``); every other id runs at its
registry seed.  ``--only`` and ``--seed`` act on the registry alone:
beside ``--observed`` alone they would reach nothing, so they exit 2.

Exit status is 1 when any pass finds a differing or missing digest; 2
on bad arguments, including a ``--check`` manifest that is missing or
malformed (the manifest is read before anything runs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import registry  # noqa: E402
from repro.runner import ResultCache, run_experiments  # noqa: E402
from repro.runner.executor import run_plans  # noqa: E402
from repro.runner.ledger import rows_hash, run_manifest  # noqa: E402
from repro.runner.workunits import (  # noqa: E402
    observed_plan,
    observed_smoke_plans,
    scenario_plan,
)
from repro.telemetry.record import TraceReader  # noqa: E402

#: The probe scenario of the observed run, under each system at each seed.
PROBE_SPEC = os.path.join(
    os.path.dirname(__file__), "..", "examples", "scenarios", "probe.json"
)
PROBE_SYSTEMS = ("rtvirt", "rtxen", "credit")
PROBE_SEEDS = (1, 2)
#: Robustness families whose smoke cells the observed run executes.
OBSERVED_FAULTS = ("pcpu_fail", "hypercall", "vm_churn")

#: Observer -> digest of one of its outputs.  Every unit of the observed
#: run carries each of these observers.
DIGESTS = {
    "telemetry": rows_hash,
    "blame": rows_hash,
    "record": lambda output: TraceReader(output["data"]).trace_hash,
}
#: The other observers of ``repro.telemetry.observers``, and why no
#: digest covers them.
NOT_DIGESTED = {
    "chrome_trace": "a timeline of bus events that `record` digests byte for byte",
    "profile": "wall-clock timings, which differ from run to run",
}

#: Makes the runner keep its worker pool on a one-CPU host.
FORCE_POOL = "REPRO_RUNNER_FORCE_POOL"


def registry_digests(ids, jobs: int, seed=None, cache=None, echo=None) -> tuple:
    """Experiment id -> ``rows_hash`` of its merged rows, and the run's report."""
    report = run_experiments(ids, jobs=jobs, cache=cache, seed=seed, echo=echo)
    return {r.experiment_id: rows_hash(r.rows) for r in report.reports}, report


def observed_plans() -> list:
    """The probe cells, then the robustness smoke cells, every unit
    carrying every observer of :data:`DIGESTS`."""
    with open(PROBE_SPEC) as fh:
        spec = json.load(fh)
    observers = tuple(DIGESTS)
    probes = [
        observed_plan(
            scenario_plan(
                dict(spec, system=dict(spec["system"], type=system), seed=seed),
                f"probe:{system}:{seed}",
            ),
            observers,
        )
        for system in PROBE_SYSTEMS
        for seed in PROBE_SEEDS
    ]
    faults = [f"robustness_{fault}" for fault in OBSERVED_FAULTS]
    return probes + observed_smoke_plans(faults, observers)


def observed_digests(jobs: int) -> dict:
    """``<observer>/<unit id>/<system>`` -> digest, for every output of
    the observed run at *jobs* workers."""
    digests = {}
    for report in run_plans(observed_plans(), jobs).reports:
        for unit, _part, outputs in report.results:
            for name, per_system in outputs.items():
                for system, output in enumerate(per_system):
                    digests[f"{name}/{unit.unit_id}/{system}"] = DIGESTS[name](output)
    return digests


def compare(got: dict, want: dict, got_side: str, want_side: str) -> list:
    """Print every label's *got* digest against its *want* digest; the
    failures (a differing or missing digest)."""
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


def parallel_pass(args, ids, serial: dict) -> list:
    got, _ = registry_digests(ids, args.parallel, args.seed)
    return compare(got, serial["registry"], "parallel", "serial")


def observed_pass(args, ids, serial: dict) -> list:
    got = observed_digests(args.observed)
    return compare(got, serial["observed"], "parallel", "serial")


def cache_pass(args, ids, serial: dict) -> list:
    """The cold run fills a fresh temporary cache; the warm rerun must
    resolve every unit from it (no miss, at least one hit)."""
    with tempfile.TemporaryDirectory(prefix="repro-cache-gate-") as tmp:
        cold, warm = (
            registry_digests(
                ids, args.parallel or 1, args.seed, ResultCache(os.path.join(tmp, "c"))
            )
            for _ in range(2)
        )
    hits, misses = warm[1].cache_hits, warm[1].cache_misses
    print(f"[determinism]   warm rerun: {hits}/{hits + misses} hits", flush=True)
    failures = []
    if hits <= 0 or misses:
        failures.append(f"cache: warm rerun missed {misses} of {hits + misses} units")
    if serial["registry"]:
        failures += compare(cold[0], serial["registry"], "cold", "serial")
    return failures + compare(warm[0], cold[0], "warm", "cold")


def check_pass(args, ids, serial: dict) -> list:
    """Every digest this run made against the baseline's; with
    ``--observed``, also every observed digest the baseline holds."""
    rows, digests = args.baseline
    want = {label: rows.get(label, "missing") for label in serial["registry"]}
    if args.observed:
        want.update(digests)
    got = dict(serial["registry"], **serial["observed"])
    return compare(got, want, "run", "baseline")


#: (flag, name, pass(args, ids, serial) -> failures), run in this order
#: after the serial run when their flag is set.
PASSES = (
    ("parallel", "serial-vs-parallel", parallel_pass),
    ("observed", "observed-outputs", observed_pass),
    ("cache", "warm-cache", cache_pass),
    ("check", "baseline", check_pass),
)


def load_manifest(path: str) -> tuple:
    """The run-ledger manifest at *path* as two maps: experiment id ->
    ``rows_sha256``, and digest label -> the ``sha256`` ``--record``
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


def jobs(text: str) -> int:
    """A worker count: an integer of at least 1."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"takes at least 1 job, got {count}")
    return count


@contextmanager
def forced_pool():
    """Keep the worker pool for this run only: the cross-process passes
    must cross processes even where the executor would collapse the
    pool to one CPU."""
    previous = os.environ.get(FORCE_POOL)
    os.environ[FORCE_POOL] = "1"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[FORCE_POOL]
        else:
            os.environ[FORCE_POOL] = previous


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
        type=jobs,
        metavar="JOBS",
        help="also run the registry with JOBS processes and fail unless "
        "every experiment's rows hash as in the serial run",
    )
    parser.add_argument(
        "--seed",
        type=int,
        metavar="N",
        help="RNG-seed override for the ids whose simulation draws from it "
        "(robustness_jitter, cluster_*); applied to every registry run",
    )
    parser.add_argument(
        "--observed",
        type=jobs,
        metavar="JOBS",
        help="run the probe and robustness smoke cells with the telemetry, "
        "blame and record observers serially and with JOBS processes, and "
        "fail unless every output's digest is equal",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="run the selected experiments cold then warm against a "
        "fresh temporary cache and fail unless the warm rerun hits "
        "every unit and hashes identically to the cold run",
    )
    args = parser.parse_args(argv)
    serial_registry = bool(args.record or args.check or args.parallel)
    if not (serial_registry or args.cache or args.observed):
        parser.error(
            "one of --record, --check, --parallel, --observed or --cache is required"
        )
    for flag in ("only", "seed"):
        if getattr(args, flag) is not None and not (serial_registry or args.cache):
            print(
                f"check_determinism: --{flag} reaches nothing here: it acts on "
                "the registry, and --observed runs fixed cells",
                file=sys.stderr,
            )
            return 2
    if args.check:
        try:
            args.baseline = load_manifest(args.check)
        except ValueError as exc:
            print(
                f"check_determinism: bad manifest {args.check}: {exc}", file=sys.stderr
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
    with forced_pool():
        return run_gate(args, ids, serial_registry)


def run_gate(args, ids, serial_registry: bool) -> int:
    """The serial run, then every pass whose flag is set."""
    serial = {"registry": {}, "observed": {}}
    if serial_registry:
        echo = lambda m: print(f"[determinism] {m}")  # noqa: E731
        serial["registry"], report = registry_digests(ids, 1, args.seed, echo=echo)
        for r in report.reports:
            digest = serial["registry"][r.experiment_id]
            print(
                f"[determinism]   {r.experiment_id}: {digest[:16]} "
                f"({round(r.unit_wall_s, 3)}s)",
                flush=True,
            )
    if args.observed:
        serial["observed"] = observed_digests(1)

    failures, ran = [], []
    for flag, name, run in PASSES:
        if not getattr(args, flag):
            continue
        print(f"[determinism] {name} ...", flush=True)
        started = time.perf_counter()
        failures += run(args, ids, serial)
        took = time.perf_counter() - started
        print(f"[determinism] {name} took {took:.1f}s", flush=True)
        ran.append(name)

    if args.record:
        files = [{"digest": k, "sha256": h} for k, h in serial["observed"].items()]
        manifest = run_manifest(report, seed=args.seed, files=files)
        with open(args.record, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[determinism] manifest written to {args.record}")
    if failures:
        print("[determinism] FAIL")
        for line in failures:
            print(f"  {line}")
        return 1
    subject = []
    if serial_registry or args.cache:
        subject.append(f"{len(ids)} experiments")
    if args.observed:
        subject.append(f"{len(serial['observed'])} observed outputs")
    suffix = f" ({' + '.join(ran)})" if ran else ""
    print(f"[determinism] OK — {' + '.join(subject)} byte-identical{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
