#!/usr/bin/env python3
"""Scalability: 100 concurrent RTAs on one host (Tables 5-6).

Runs the paper's two §4.5 configurations — 10 VMs x 10 RTAs (guest pEDF
packs them onto 20 VCPUs) and 100 single-RTA VMs (100 VCPUs) — and
reports the host scheduler's overhead: time in schedule(), time in
context switches/migrations, and the total as a percentage of CPU time.
Also reproduces RT-Xen's analytical capacity limits on the same host.

Run:  python examples/scalability.py [duration_seconds]
"""

import sys

from repro import sec
from repro.runner.executor import execute_plan
from repro.runner.workunits import table6_plan


def main() -> None:
    duration_s = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    print(f"100 RTAs on 15 PCPUs, {duration_s}s simulated per scenario ...\n")
    result = execute_plan(table6_plan(duration_ns=sec(duration_s), pcpu_count=15))
    print(result.summary())
    print(
        "\nRTVirt schedules all 100 RTAs in both shapes with <1% overhead; "
        "CSA's pessimism stops RT-Xen from even admitting the full set."
    )


if __name__ == "__main__":
    main()
