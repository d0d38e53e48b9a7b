"""§4.2 periodic RTAs — Table 1 groups under RTVirt and RT-Xen.

Each group's four RTAs run concurrently, one per VM, for the configured
duration.  The paper's result: *both* frameworks meet all deadlines of
all periodic RTAs; the difference (Figure 3) is how much bandwidth each
needs — measured by :mod:`repro.experiments.fig3_bandwidth`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..analysis.utilization import minimum_cpus_dpwrap
from ..analysis.dbf import AnalysisTask
from ..baselines.configs import rtxen_interfaces_for_group
from ..baselines.rtxen import RTXenSystem
from ..core.system import RTVirtSystem
from ..guest.task import Task
from ..simcore.time import MSEC, sec
from ..telemetry.observe import observe
from ..workloads.periodic import TABLE1_GROUPS, PeriodicDriver, RTASpec
from .common import format_table


@dataclass
class GroupRun:
    """Deadline outcomes of one RTA group under one framework."""

    framework: str
    group: str
    released: int
    met: int
    missed: int

    @property
    def miss_ratio(self) -> float:
        decided = self.met + self.missed
        return self.missed / decided if decided else 0.0

    def row(self) -> Dict[str, object]:
        return {
            "framework": self.framework,
            "group": self.group,
            "released": self.released,
            "met": self.met,
            "missed": self.missed,
            "miss_ratio": self.miss_ratio,
        }


@dataclass
class Table1Result:
    runs: List[GroupRun]

    def rows(self) -> List[Dict[str, object]]:
        return [r.row() for r in self.runs]

    def summary(self) -> str:
        return format_table(self.rows(), title="Table 1 groups — deadline outcomes")

    def all_deadlines_met(self) -> bool:
        return all(r.missed == 0 for r in self.runs)


def _pcpus_for(specs: Sequence[RTASpec], slack_ns: int) -> int:
    tasks = [
        AnalysisTask(s.slice_ns + slack_ns, s.period_ns) for s in specs
    ]
    return minimum_cpus_dpwrap(tasks)


def run_group_rtvirt(
    group: str,
    duration_ns: int = sec(100),
    slack_ns: int = 500_000,
    pcpu_count: Optional[int] = None,
) -> GroupRun:
    """One Table 1 group under RTVirt (one RTA per VM)."""
    specs = TABLE1_GROUPS[group]
    if pcpu_count is None:
        pcpu_count = _pcpus_for(specs, slack_ns)
    system = RTVirtSystem(pcpu_count=pcpu_count, slack_ns=slack_ns)
    tasks: List[Task] = []
    for i, spec in enumerate(specs):
        vm = system.create_vm(f"{group}-vm{i + 1}")
        task = Task(f"{group}.rta{i + 1}", spec.slice_ns, spec.period_ns)
        vm.register_task(task)
        tasks.append(task)
        PeriodicDriver(system.engine, vm, task).start()
    observe(system)
    system.run(duration_ns)
    system.finalize()
    return GroupRun(
        framework="RTVirt",
        group=group,
        released=sum(t.stats.released for t in tasks),
        met=sum(t.stats.met for t in tasks),
        missed=sum(t.stats.missed for t in tasks),
    )


def run_group_rtxen(
    group: str,
    duration_ns: int = sec(100),
    pcpu_count: Optional[int] = None,
) -> GroupRun:
    """One Table 1 group under RT-Xen with CSA interfaces."""
    specs = TABLE1_GROUPS[group]
    interfaces = rtxen_interfaces_for_group(specs, min_period=MSEC)
    if pcpu_count is None:
        # RT-Xen needs at least its claimed CPUs; give it the DMPR claim.
        from ..analysis.dmpr import claim_for_group

        pcpu_count, _ = claim_for_group(interfaces)
    system = RTXenSystem(pcpu_count=pcpu_count)
    tasks: List[Task] = []
    for i, (spec, iface) in enumerate(zip(specs, interfaces)):
        vm = system.create_vm(
            f"{group}-vm{i + 1}", interfaces=[(iface.budget, iface.period)]
        )
        task = Task(f"{group}.rta{i + 1}", spec.slice_ns, spec.period_ns)
        system.register_rta(vm, task)
        tasks.append(task)
        PeriodicDriver(system.engine, vm, task).start()
    observe(system)
    system.run(duration_ns)
    system.finalize()
    return GroupRun(
        framework="RT-Xen",
        group=group,
        released=sum(t.stats.released for t in tasks),
        met=sum(t.stats.met for t in tasks),
        missed=sum(t.stats.missed for t in tasks),
    )
