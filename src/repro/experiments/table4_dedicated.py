"""Table 4 — memcached tail latency on a dedicated CPU (paper §4.4).

The paper first runs the memcached VM alone on a dedicated CPU under
each scheduler and measures the request-latency tail; those numbers
size the VM reservations used in Figure 5 (58 µs for RTVirt, 66 µs for
RT-Xen, 130 µs for Credit).

In the simulation the per-request service demand distribution is shared
across schedulers (calibrated to the RTVirt row); the differences
between rows come from each scheduler's wake path and tick machinery:
Credit's longer wake-up code path is modelled with its calibrated
``wake_overhead_ns`` and its 10 ms tick; RT-Xen adds deferrable-server
replenishment jitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..baselines.configs import (
    CREDIT_GLOBAL_TIMESLICE_NS,
    CREDIT_RATELIMIT_NS,
    MEMCACHED_RTVIRT_PARAMS,
)
from ..baselines.credit import CreditSystem
from ..baselines.rtxen import RTXenSystem
from ..core.system import RTVirtSystem
from ..metrics.latency import LatencyRecorder
from ..simcore.rng import RandomStreams
from ..simcore.time import USEC, sec, usec
from ..telemetry.observe import observe
from ..workloads.memcached import MemcachedService
from .common import format_table

#: Credit's wake-path cost, calibrated to Table 4's ~60 µs offset between
#: the Credit and RTVirt rows.
CREDIT_WAKE_OVERHEAD_NS = 62 * USEC

#: The paper's Table 4, µs, for comparison in reports.
PAPER_TABLE4 = {
    "Credit": {90.0: 113.3, 95.0: 114.4, 99.0: 120.6, 99.9: 129.1},
    "RT-Xen": {90.0: 49.6, 95.0: 50.7, 99.0: 54.6, 99.9: 65.7},
    "RTVirt": {90.0: 51.3, 95.0: 52.2, 99.0: 54.5, 99.9: 57.5},
}


@dataclass
class Table4Result:
    tails: Dict[str, Dict[float, float]]

    def rows(self) -> List[Dict[str, object]]:
        out = []
        for scheduler in ("Credit", "RT-Xen", "RTVirt"):
            if scheduler not in self.tails:
                continue
            tail = self.tails[scheduler]
            out.append(
                {
                    "scheduler": scheduler,
                    "p90_us": tail[90.0],
                    "p95_us": tail[95.0],
                    "p99_us": tail[99.0],
                    "p99.9_us": tail[99.9],
                    "paper_p99.9_us": PAPER_TABLE4[scheduler][99.9],
                }
            )
        return out

    def summary(self) -> str:
        return format_table(
            self.rows(), title="Table 4 — memcached tails on a dedicated CPU (µs)"
        )


def _measure(system, vm, rng, register=None) -> LatencyRecorder:
    svc = MemcachedService(system.engine, vm, rng, register=register is None)
    if register is not None:
        register(vm, svc.task)
    svc.start()
    return svc


#: Canonical Table 4 row order; also the experiment's shard ids (each
#: scheduler's run is fully independent: a fresh RandomStreams(seed) per
#: scheduler).
TABLE4_SCHEDULERS = ("Credit", "RT-Xen", "RTVirt")


def run_table4_scheduler(
    scheduler: str, duration_ns: int = sec(60), seed: int = 3
) -> Dict[float, float]:
    """One Table 4 row: the dedicated-CPU latency tail under *scheduler*."""
    streams = RandomStreams(seed)
    if scheduler == "Credit":
        system = CreditSystem(
            pcpu_count=1,
            timeslice_ns=CREDIT_GLOBAL_TIMESLICE_NS,
            ratelimit_ns=CREDIT_RATELIMIT_NS,
            wake_overhead_ns=CREDIT_WAKE_OVERHEAD_NS,
        )
        vm = system.create_vm("mc")
        svc = _measure(system, vm, streams.stream("mc"))
    elif scheduler == "RT-Xen":
        system = RTXenSystem(pcpu_count=1)
        # Dedicated CPU: a full-bandwidth server (Θ = Π).
        vm = system.create_vm("mc", interfaces=[(usec(500), usec(500))])
        svc = _measure(system, vm, streams.stream("mc"), register=system.register_rta)
    elif scheduler == "RTVirt":
        system = RTVirtSystem(pcpu_count=1, slack_ns=0)
        vm = system.create_vm("mc", slack_ns=0)
        budget, period = MEMCACHED_RTVIRT_PARAMS
        svc = MemcachedService(
            system.engine, vm, streams.stream("mc"), period_ns=period, slice_ns=budget
        ).start()
    else:
        raise KeyError(f"unknown Table 4 scheduler {scheduler!r}")
    observe(system)
    system.run(duration_ns)
    system.finalize()
    return svc.latency.tail_usec()
