"""§4.2 sporadic RTAs.

Same parameters as the periodic groups (Table 1), but each RTA is
activated by an external request with uniformly distributed inter-
arrival times between 100 ms and 1 s; every activation runs one job of
one slice with a deadline one period later.  The paper generates 100
requests per RTA and observes **no deadline misses on either
framework**, with RTVirt claiming ~39.4% less bandwidth (the same
Figure 3 accounting as the periodic case, since the reservations are
identical).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..baselines.configs import rtxen_interfaces_for_group
from ..core.system import RTVirtSystem
from ..baselines.rtxen import RTXenSystem
from ..guest.task import Task, TaskKind
from ..simcore.rng import RandomStreams
from ..simcore.time import MSEC, SEC
from ..telemetry.observe import observe
from ..workloads.arrivals import ArrivalMux
from ..workloads.periodic import TABLE1_GROUPS
from ..workloads.sporadic import SporadicDriver
from .table1_periodic import GroupRun, _pcpus_for


def _run_requests(system, drivers: Sequence[SporadicDriver], max_requests: int) -> None:
    """Run until every driver has issued and drained its requests."""
    # Mean inter-arrival is 550 ms; allow generous time plus drain slack.
    horizon = system.engine.now + (max_requests + 5) * SEC
    while (
        any(d.requests_sent < max_requests for d in drivers)
        and system.engine.now < horizon
    ):
        system.run(10 * SEC)
    system.run(2 * SEC)  # drain in-flight jobs
    system.finalize()


def run_group_sporadic_rtvirt(
    group: str,
    requests_per_rta: int = 100,
    seed: int = 7,
    slack_ns: int = 500_000,
    pcpu_count: Optional[int] = None,
) -> GroupRun:
    """One Table 1 group as sporadic RTAs under RTVirt."""
    specs = TABLE1_GROUPS[group]
    if pcpu_count is None:
        pcpu_count = _pcpus_for(specs, slack_ns)
    streams = RandomStreams(seed)
    system = RTVirtSystem(pcpu_count=pcpu_count, slack_ns=slack_ns)
    mux = ArrivalMux(system.engine, name=f"{group}-sporadic")
    tasks: List[Task] = []
    drivers: List[SporadicDriver] = []
    for i, spec in enumerate(specs):
        vm = system.create_vm(f"{group}-svm{i + 1}")
        task = Task(
            f"{group}.sp{i + 1}", spec.slice_ns, spec.period_ns, TaskKind.SPORADIC
        )
        vm.register_task(task)
        tasks.append(task)
        drivers.append(
            SporadicDriver(
                system.engine,
                vm,
                task,
                streams.stream(f"{group}.sp{i}"),
                max_requests=requests_per_rta,
                mux=mux,
            ).start()
        )
    observe(system)
    _run_requests(system, drivers, requests_per_rta)
    return GroupRun(
        framework="RTVirt",
        group=group,
        released=sum(t.stats.released for t in tasks),
        met=sum(t.stats.met for t in tasks),
        missed=sum(t.stats.missed for t in tasks),
    )


def run_group_sporadic_rtxen(
    group: str,
    requests_per_rta: int = 100,
    seed: int = 7,
    pcpu_count: Optional[int] = None,
) -> GroupRun:
    """One Table 1 group as sporadic RTAs under RT-Xen (CSA interfaces)."""
    specs = TABLE1_GROUPS[group]
    interfaces = rtxen_interfaces_for_group(specs, min_period=MSEC)
    if pcpu_count is None:
        from ..analysis.dmpr import claim_for_group

        pcpu_count, _ = claim_for_group(interfaces)
    streams = RandomStreams(seed)
    system = RTXenSystem(pcpu_count=pcpu_count)
    mux = ArrivalMux(system.engine, name=f"{group}-sporadic")
    tasks: List[Task] = []
    drivers: List[SporadicDriver] = []
    for i, (spec, iface) in enumerate(zip(specs, interfaces)):
        vm = system.create_vm(
            f"{group}-svm{i + 1}", interfaces=[(iface.budget, iface.period)]
        )
        task = Task(
            f"{group}.sp{i + 1}", spec.slice_ns, spec.period_ns, TaskKind.SPORADIC
        )
        system.register_rta(vm, task)
        tasks.append(task)
        drivers.append(
            SporadicDriver(
                system.engine,
                vm,
                task,
                streams.stream(f"{group}.sp{i}"),
                max_requests=requests_per_rta,
                mux=mux,
            ).start()
        )
    observe(system)
    _run_requests(system, drivers, requests_per_rta)
    return GroupRun(
        framework="RT-Xen",
        group=group,
        released=sum(t.stats.released for t in tasks),
        met=sum(t.stats.met for t in tasks),
        missed=sum(t.stats.missed for t in tasks),
    )
