"""Robustness suite — schedulers under injected faults.

The paper evaluates RTVirt on well-behaved hosts; this suite asks what
the cross-layer design buys when the host itself misbehaves.  Each
experiment subjects the same baseline workload to one fault family from
:mod:`repro.faults` — PCPU fail/recover, VM boot/shutdown churn,
workload surges, hypercall loss/delay, or replenishment clock jitter —
under RTVirt, RT-Xen (gEDF) and Xen Credit, and reports the
deadline-miss ratio plus the recovery latency (time from the first
fault to the last deadline miss it can explain).

Runs are deterministic for a given seed: every random draw goes through
a named :class:`~repro.simcore.rng.RandomStreams` stream, so the
per-scheduler shards reproduce their rows byte-for-byte whatever the
worker count.  The baseline workload has fixed phases, so the seed
reaches a run only through a fault that draws (:func:`fault_draws`;
today only clock jitter).  The online
:class:`~repro.faults.InvariantChecker` is attached for every case, so
each robustness run doubles as a soak test of the scheduling invariants
under faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..baselines.credit import CreditSystem
from ..baselines.rtxen import RTXenSystem
from ..core.system import RTVirtSystem
from ..faults import (
    At,
    ClockJitter,
    Every,
    HypercallDelay,
    HypercallDrop,
    InvariantChecker,
    PcpuFail,
    PcpuRecover,
    Scenario,
    VmChurn,
    WorkloadSurge,
)
from ..guest.task import Task
from ..simcore.rng import RandomStreams
from ..simcore.time import MSEC
from ..telemetry.observe import observe
from ..workloads.periodic import PeriodicDriver
from .common import format_table

#: Schedulers compared, in row order.
ROBUSTNESS_SCHEDULERS: Tuple[str, ...] = ("RTVirt", "RT-Xen", "Credit")
#: Fault families; ``robustness_<family>`` are the registry ids.
ROBUSTNESS_FAULTS: Tuple[str, ...] = (
    "pcpu_fail",
    "vm_churn",
    "surge",
    "hypercall",
    "jitter",
)

PCPU_COUNT = 4
#: Baseline workload: per-VM RTA (slice, period) pairs, ns.  Three VMs
#: of two periodic RTAs each, total utilization 1.85 with two heavy
#: (0.8 / 0.7) tasks: a fault-free run meets every deadline on all
#: three schedulers, but losing two of the four PCPUs leaves only
#: optimal scheduling (DP-WRAP) able to fit the load — gEDF suffers
#: the Dhall-style penalty of the heavy tasks and Credit's fair shares
#: ignore their deadlines entirely.
WORKLOAD: Tuple[Tuple[Tuple[int, int], ...], ...] = (
    ((8 * MSEC, 10 * MSEC), (2 * MSEC, 40 * MSEC)),
    ((7 * MSEC, 10 * MSEC), (2 * MSEC, 40 * MSEC)),
    ((4 * MSEC, 20 * MSEC), (2 * MSEC, 40 * MSEC)),
)


def build_system(
    scheduler: str, pcpu_count: int = PCPU_COUNT, start_drivers: bool = True
):
    """The baseline three-VM workload under *scheduler*; drivers started.

    ``start_drivers=False`` builds the same VMs and tasks but leaves the
    release sources to the caller — trace replay substitutes recorded
    release timelines for the periodic drivers.
    """
    if scheduler == "RTVirt":
        system = RTVirtSystem(pcpu_count=pcpu_count)
    elif scheduler == "RT-Xen":
        system = RTXenSystem(pcpu_count=pcpu_count, host="gedf")
    elif scheduler == "Credit":
        system = CreditSystem(pcpu_count=pcpu_count)
    else:
        raise ValueError(f"unknown scheduler {scheduler!r}")
    for i, specs in enumerate(WORKLOAD):
        name = f"vm{i}"
        if scheduler == "RT-Xen":
            # Static interface sized like RT-Xen's CSA: summed slices
            # with headroom, at the shortest period.
            period = min(p for _, p in specs)
            budget = min(period, sum(s * period // p for s, p in specs) * 3 // 2)
            vm = system.create_vm(name, interfaces=[(budget, period)])
        else:
            vm = system.create_vm(name)
        for j, (slice_ns, period_ns) in enumerate(specs):
            task = Task(f"{name}.rta{j}", slice_ns, period_ns)
            if scheduler == "RT-Xen":
                system.register_rta(vm, task)
            else:
                vm.register_task(task)
            if start_drivers:
                PeriodicDriver(system.engine, vm, task).start()
    return system


def case_row(
    fault: str,
    scheduler: str,
    system,
    ctx,
    checker: Optional[InvariantChecker],
) -> Dict[str, object]:
    """The metric row of one finished (fault, scheduler) run.

    Shared by :func:`run_robustness_case` and trace replay so a replayed
    run computes its row through the exact same code path — the
    round-trip exactness tests compare these rows byte for byte.
    """
    report = system.miss_report()
    fault_time = ctx.first_fault_time()
    recovery_ns = (
        report.recovery_latency_ns(fault_time) if fault_time is not None else 0
    )
    decided = report.total_met + report.total_missed
    return {
        "fault": fault,
        "scheduler": scheduler,
        "released": report.total_released,
        "missed": report.total_missed,
        "miss_pct": round(100.0 * report.total_missed / decided, 3) if decided else 0.0,
        "recovery_ms": round(recovery_ns / MSEC, 3),
        "faults": len(ctx.log),
        "checks": checker.checks if checker else 0,
    }


def build_scenario(fault: str, duration_ns: int) -> Scenario:
    """The fault timeline of one family, scaled to the run length."""
    d = duration_ns
    if fault == "pcpu_fail":
        return Scenario(
            [
                At(d * 2 // 10, PcpuFail(PCPU_COUNT - 1)),
                At(d * 3 // 10, PcpuFail(PCPU_COUNT - 2)),
                At(d * 6 // 10, PcpuRecover(PCPU_COUNT - 2)),
                At(d * 7 // 10, PcpuRecover(PCPU_COUNT - 1)),
            ]
        )
    if fault == "vm_churn":
        return Scenario(
            [
                Every(
                    d // 8,
                    VmChurn(
                        slice_ns=4 * MSEC,
                        period_ns=20 * MSEC,
                        lifetime_ns=d // 10,
                    ),
                    count=6,
                )
            ]
        )
    if fault == "surge":
        return Scenario(
            [
                Every(
                    d // 5,
                    WorkloadSurge("vm0", num=2, den=1, duration_ns=d // 10),
                    count=3,
                )
            ]
        )
    if fault == "hypercall":
        return Scenario(
            [
                Every(d // 6, HypercallDrop(duration_ns=d // 12), count=2),
                At(d // 2, HypercallDelay(delay_ns=2 * MSEC, duration_ns=d // 6)),
            ]
        )
    if fault == "jitter":
        return Scenario([At(d // 10, ClockJitter(max_ns=3 * MSEC))])
    raise ValueError(f"unknown fault family {fault!r}")


def fault_draws(fault: str) -> bool:
    """Whether *fault*'s timeline draws from the seeded streams; a family
    that does not replays identically at every seed."""
    return any(d.fault.draws for d in build_scenario(fault, MSEC).directives)


def run_robustness_case(
    fault: str,
    scheduler: str,
    duration_ns: int,
    seed: int,
) -> Dict[str, object]:
    """One (fault family, scheduler) cell — the parallel-runner shard.

    The built system reaches the observation hook after the invariant
    checker attaches and before the fault timeline is installed; its
    ``header`` is the robustness trace header that replay reads (replay
    attaches the checker too when ``check_invariants`` is set).
    """
    system = build_system(scheduler)
    checker = InvariantChecker(system).attach()
    observe(
        system,
        header={
            "format": "robustness",
            "fault": fault,
            "scheduler": scheduler,
            "duration_ns": duration_ns,
            "seed": seed,
            "check_invariants": True,
            "base_tasks": [task.name for vm in system.vms for task in vm.rt_tasks],
        },
    )
    ctx = build_scenario(fault, duration_ns).install(
        system, RandomStreams(seed)
    )
    system.run(duration_ns)
    return case_row(fault, scheduler, system, ctx, checker)


@dataclass
class RobustnessResult:
    """Per-scheduler outcomes of one fault family."""

    cases: List[Dict[str, object]]

    def rows(self) -> List[Dict[str, object]]:
        return list(self.cases)

    def summary(self) -> str:
        fault = self.cases[0]["fault"] if self.cases else "?"
        return format_table(
            self.rows(), title=f"Robustness — fault family {fault!r}"
        )
