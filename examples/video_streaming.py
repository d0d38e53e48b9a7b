#!/usr/bin/env python3
"""Dynamic video-streaming servers with online admission (Figure 4).

Four VMs, four VCPUs each, host VLC-like transcoding threads whose
frame rates (and therefore CPU reservations, Table 3) change as
streaming sessions come and go.  RTVirt admits every session online
through the sched_rtvirt() hypercall and re-partitions the processors,
so the allocation tracks the demand instead of peak-provisioning.

Run:  python examples/video_streaming.py [duration_seconds]
"""

import sys

from repro import sec
from repro.runner.executor import execute_plan
from repro.runner.workunits import fig4_plan
from repro.simcore.time import SEC


def render_allocation(series, width=60):
    """ASCII sparkline of a VM's CPU allocation over time."""
    blocks = " ▁▂▃▄▅▆▇█"
    values = [v for _, v in series]
    if not values:
        return ""
    peak = max(max(values), 1e-9)
    step = max(1, len(values) // width)
    cells = []
    for i in range(0, len(values), step):
        chunk = values[i : i + step]
        level = sum(chunk) / len(chunk) / peak
        cells.append(blocks[min(len(blocks) - 1, int(level * (len(blocks) - 1)))])
    return "".join(cells)


def main() -> None:
    duration_s = int(sys.argv[1]) if len(sys.argv) > 1 else 120
    print(f"dynamic streaming churn on 15 PCPUs, {duration_s}s simulated ...")
    result = execute_plan(fig4_plan(duration_ns=sec(duration_s), seed=11))

    print()
    print(result.summary())
    print("\nPer-VM CPU allocation over time (Figure 4a):")
    for vm, series in sorted(result.allocation_series.items()):
        print(f"  {vm:12s} |{render_allocation(series)}|")
    print("\nSessions (Figure 4b-e):")
    for row in result.rows()[:12]:
        print(
            f"  {row['session']:34s} {row['fps']:2d}fps "
            f"[{row['start_s']:6.1f}s..{row['end_s']:6.1f}s] "
            f"misses {row['missed']}/{row['released']}"
        )
    if len(result.rows()) > 12:
        print(f"  ... and {len(result.rows()) - 12} more")


if __name__ == "__main__":
    main()
