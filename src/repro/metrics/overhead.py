"""Scheduler-overhead accounting (Table 6).

The paper instruments Xen's ``schedule()`` function and context-switch
path and reports, per framework and scenario, the total time spent in
each plus the combined overhead as a percentage of total runtime.  The
simulator charges those costs through the host cost model and records
them here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class OverheadStats:
    """Time and invocation counts of the host scheduler's hot paths."""

    schedule_calls: int = 0
    schedule_time: int = 0
    context_switches: int = 0
    context_switch_time: int = 0
    migrations: int = 0
    migration_time: int = 0
    hypercalls: int = 0
    hypercall_time: int = 0

    def record_schedule(self, cost: int) -> None:
        self.schedule_calls += 1
        self.schedule_time += cost

    def record_context_switch(self, cost: int) -> None:
        self.context_switches += 1
        self.context_switch_time += cost

    def record_migration(self, cost: int) -> None:
        self.migrations += 1
        self.migration_time += cost

    def record_hypercall(self, cost: int) -> None:
        self.hypercalls += 1
        self.hypercall_time += cost

    @property
    def switch_and_migration_time(self) -> int:
        """Context-switch column of Table 6 (includes migration cost)."""
        return self.context_switch_time + self.migration_time

    def total_overhead_time(self) -> int:
        """All accounted overhead, ns."""
        return (
            self.schedule_time
            + self.context_switch_time
            + self.migration_time
            + self.hypercall_time
        )

    def overhead_percent(self, total_cpu_time: int) -> float:
        """Overhead as percent of *total_cpu_time* (runtime × PCPUs)."""
        if total_cpu_time <= 0:
            raise ValueError("total_cpu_time must be positive")
        return 100.0 * self.total_overhead_time() / total_cpu_time


@dataclass
class PcpuUsage:
    """Busy/idle accounting for one PCPU."""

    busy: int = 0
    overhead: int = 0

    def utilization(self, wall: int) -> float:
        if wall <= 0:
            raise ValueError("wall time must be positive")
        return (self.busy + self.overhead) / wall


@dataclass
class HostMetrics:
    """Top-level container the machine model writes into."""

    overhead: OverheadStats = field(default_factory=OverheadStats)
    per_pcpu: Dict[int, PcpuUsage] = field(default_factory=dict)

    def pcpu(self, index: int) -> PcpuUsage:
        if index not in self.per_pcpu:
            self.per_pcpu[index] = PcpuUsage()
        return self.per_pcpu[index]
