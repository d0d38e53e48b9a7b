"""Figure 1 — the motivating example (paper §2).

Three VMs share one CPU under a host-level EDF scheduler with no
cross-layer information: VM1 (5,15), VM2 (5,10), VM3 (5,30) — exactly
100% utilization, so the VMs themselves are schedulable.  Inside VM1, a
guest EDF scheduler runs RTA1 (1,15) and RTA2 (4,15); VM1's allocation
(5/15) equals their combined demand.  Yet RTA2, whose releases are
phase-shifted relative to VM1's CPU slots, misses every other deadline —
the paper's demonstration that real-time schedulers at both levels are
not sufficient without coordination.

The companion function runs the same task set under RTVirt, where the
cross-layer deadline information removes all misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.system import RTVirtSystem
from ..guest.port import StaticPort
from ..guest.task import Task
from ..guest.vm import VM
from ..host.base_system import BaseSystem
from ..host.costs import ZERO_COSTS
from ..host.edf import EDFHostScheduler
from ..simcore.engine import Engine
from ..simcore.time import msec, sec
from ..telemetry.observe import observe
from ..workloads.periodic import PeriodicDriver
from .common import format_table

#: (slice_ms, period_ms) of the three VMs in Figure 1a.
FIG1_VMS = {"vm1": (5, 15), "vm2": (5, 10), "vm3": (5, 30)}
#: (slice_ms, period_ms) of the two RTAs inside VM1 (Figure 1b).
FIG1_RTAS = {"rta1": (1, 15), "rta2": (4, 15)}
#: Phase of RTA2's releases relative to RTA1 (the figure's offset
#: arrivals: RTA2 arrives after VM1's slot has already passed).  With
#: this phase RTA2 misses exactly every other deadline, as in Figure 1b.
RTA2_PHASE_MS = 5


@dataclass
class Fig1Result:
    """Outcomes of the motivation experiment."""

    system_name: str
    rta_stats: Dict[str, Dict[str, float]]

    def rows(self) -> List[Dict[str, object]]:
        return [
            {
                "system": self.system_name,
                "rta": name,
                "released": s["released"],
                "met": s["met"],
                "missed": s["missed"],
                "miss_ratio": s["miss_ratio"],
            }
            for name, s in sorted(self.rta_stats.items())
        ]

    def summary(self) -> str:
        return format_table(self.rows(), title=f"Figure 1 — {self.system_name}")

    def miss_ratio(self, rta: str) -> float:
        return self.rta_stats[rta]["miss_ratio"]


def _stats_dict(task: Task) -> Dict[str, float]:
    return {
        "released": task.stats.released,
        "met": task.stats.met,
        "missed": task.stats.missed,
        "miss_ratio": task.stats.miss_ratio,
    }


def run_uncoordinated(duration_ns: int = sec(30)) -> Fig1Result:
    """The Figure 1 scenario: two-level EDF without coordination."""
    engine = Engine()
    machine_system = BaseSystem(pcpu_count=1, engine=engine, cost_model=ZERO_COSTS)
    scheduler = EDFHostScheduler()
    machine_system.machine.set_host_scheduler(scheduler)

    vms: Dict[str, VM] = {}
    for name, (s_ms, p_ms) in FIG1_VMS.items():
        vm = VM(name, vcpu_count=1, slack_ns=0)
        vm.set_port(StaticPort())
        machine_system._attach(vm)
        vm.configure_vcpu(0, msec(s_ms), msec(p_ms))
        scheduler.add_vcpu(vm.vcpus[0])
        vms[name] = vm

    tasks: Dict[str, Task] = {}
    drivers = []
    for name, (s_ms, p_ms) in FIG1_RTAS.items():
        task = Task(name, msec(s_ms), msec(p_ms))
        vms["vm1"].register_task(task)
        tasks[name] = task
        phase = msec(RTA2_PHASE_MS) if name == "rta2" else 0
        drivers.append(
            PeriodicDriver(engine, vms["vm1"], task, phase_ns=phase).start()
        )
    # VM2 and VM3 run their own periodic RTAs consuming their full slices,
    # so the host EDF schedule matches Figure 1a.
    for name in ("vm2", "vm3"):
        s_ms, p_ms = FIG1_VMS[name]
        task = Task(f"{name}.rta", msec(s_ms), msec(p_ms))
        vms[name].register_task(task)
        tasks[f"{name}.rta"] = task
        drivers.append(PeriodicDriver(engine, vms[name], task).start())
    # Each guest OS always has something to run (idle housekeeping), so the
    # host sees the VMs as permanently runnable — Figure 1a's fixed EDF
    # slots.  Without this, the deferrable servers would retain budget
    # while idle and partially hide the coordination problem.
    for vm in vms.values():
        vm.add_background_process()

    observe(machine_system)
    machine_system.run(duration_ns)
    machine_system.finalize()
    return Fig1Result(
        system_name="two-level EDF (no coordination)",
        rta_stats={name: _stats_dict(t) for name, t in tasks.items()},
    )


def run_rtvirt(duration_ns: int = sec(30)) -> Fig1Result:
    """The same task set under RTVirt's cross-layer scheduling."""
    system = RTVirtSystem(pcpu_count=1, cost_model=ZERO_COSTS, slack_ns=0)
    vm1 = system.create_vm("vm1")
    tasks: Dict[str, Task] = {}
    for name, (s_ms, p_ms) in FIG1_RTAS.items():
        task = Task(name, msec(s_ms), msec(p_ms))
        vm1.register_task(task)
        tasks[name] = task
        phase = msec(RTA2_PHASE_MS) if name == "rta2" else 0
        PeriodicDriver(system.engine, vm1, task, phase_ns=phase).start()
    for name in ("vm2", "vm3"):
        s_ms, p_ms = FIG1_VMS[name]
        vm = system.create_vm(name)
        task = Task(f"{name}.rta", msec(s_ms), msec(p_ms))
        vm.register_task(task)
        tasks[f"{name}.rta"] = task
        PeriodicDriver(system.engine, vm, task).start()
    observe(system)
    system.run(duration_ns)
    system.finalize()
    return Fig1Result(
        system_name="RTVirt (cross-layer)",
        rta_stats={name: _stats_dict(t) for name, t in tasks.items()},
    )


def run_fig1(duration_ns: int = sec(30)) -> Dict[str, Fig1Result]:
    """Both halves of the motivation comparison."""
    return {
        "uncoordinated": run_uncoordinated(duration_ns),
        "rtvirt": run_rtvirt(duration_ns),
    }


class Fig1Combined:
    """Both halves of Figure 1 as one printable result."""

    def __init__(self, results: Dict[str, Fig1Result]) -> None:
        self.results = results

    def rows(self) -> List[dict]:
        return [row for r in self.results.values() for row in r.rows()]

    def summary(self) -> str:
        return "\n\n".join(r.summary() for r in self.results.values())


def run_fig1_combined(duration_ns: int = sec(30)) -> Fig1Combined:
    """The registry-facing runner: both halves, one result object."""
    return Fig1Combined(run_fig1(duration_ns=duration_ns))
