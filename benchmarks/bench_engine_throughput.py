#!/usr/bin/env python
"""Engine/host-scheduler throughput microbenchmark.

Drives the event-rate-limiting configuration the simulator has: a
16-PCPU host under the gEDF deferrable-server scheduler with 64 VCPU
servers, each hosting one periodic RTA, plus background VMs soaking up
slack.  Every wake/idle/replenish/exhaust event exercises the host
scheduler hot path, so events-per-second here is a direct measure of
how expensive one scheduling decision is.

Run standalone to (re)generate ``BENCH_engine.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --out /tmp/b.json

``tools/check_perf.py`` compares a fresh run against the committed
``BENCH_engine.json`` and fails on a >5% events/sec regression
(``--tolerance``), with and without every bus observer attached and
detached first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.baselines.rtxen import RTXenSystem  # noqa: E402
from repro.simcore.time import MSEC, sec  # noqa: E402
from repro.workloads.periodic import PeriodicDriver  # noqa: E402

#: Scenario shape (the acceptance scenario: 16 PCPUs, 64 VCPU servers).
PCPU_COUNT = 16
VCPU_COUNT = 64
DEFAULT_DURATION_NS = sec(4)

# Non-harmonic periods so releases rarely align and the event stream
# stays dense; (slice_ms, period_ms) per VCPU cycles through these.
_SPECS = [
    (2, 7),
    (3, 11),
    (2, 13),
    (5, 17),
    (4, 19),
    (6, 23),
    (3, 10),
    (5, 29),
]


def build_system() -> RTXenSystem:
    """16 PCPUs, 64 single-VCPU server VMs, 4 background VMs."""
    system = RTXenSystem(pcpu_count=PCPU_COUNT)
    from repro.guest.task import Task

    for i in range(VCPU_COUNT):
        slice_ms, period_ms = _SPECS[i % len(_SPECS)]
        budget_ns = slice_ms * MSEC
        period_ns = period_ms * MSEC
        vm = system.create_vm(f"vm{i:02d}", interfaces=[(budget_ns, period_ns)])
        task = Task(f"rta{i:02d}", slice_ms * MSEC, period_ns)
        system.register_rta(vm, task)
        # Staggered phases spread releases across the timeline.
        PeriodicDriver(
            system.engine, vm, task, phase_ns=(i * period_ns) // VCPU_COUNT
        ).start()
    for b in range(4):
        system.create_background_vm(f"bg{b}", processes=2)
    return system


def run_benchmark(duration_ns: int = DEFAULT_DURATION_NS, setup=None) -> dict:
    """Run the scenario and return the throughput record.

    *setup* is called with the built system before the timed run — the
    hook ``tools/check_perf.py`` uses to measure overhead shapes (e.g.
    a flight recorder attached and detached again) on the same workload.
    """
    system = build_system()
    if setup is not None:
        setup(system)
    started = time.perf_counter()
    system.run(duration_ns)
    wall_s = time.perf_counter() - started
    system.finalize()
    events = system.engine.events_processed
    return {
        "scenario": f"{PCPU_COUNT}-pcpu/{VCPU_COUNT}-vcpu gEDF-DS periodic",
        "pcpus": PCPU_COUNT,
        "vcpus": VCPU_COUNT,
        "sim_duration_s": duration_ns / 1e9,
        "events": events,
        "wall_s": round(wall_s, 3),
        "events_per_sec": round(events / wall_s, 1),
        "miss_ratio": system.miss_report().overall_miss_ratio,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    default_out = os.path.join(os.path.dirname(__file__), "..", "BENCH_engine.json")
    parser.add_argument("--out", default=default_out, help="output JSON path")
    parser.add_argument(
        "--duration-s", type=float, default=DEFAULT_DURATION_NS / 1e9,
        help="simulated seconds to run",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="take the best of N runs (reduces wall-clock noise)",
    )
    args = parser.parse_args(argv)

    best = None
    for _ in range(max(1, args.repeat)):
        record = run_benchmark(int(args.duration_s * 1e9))
        if best is None or record["events_per_sec"] > best["events_per_sec"]:
            best = record
    with open(args.out, "w") as fh:
        json.dump(best, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(best, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
