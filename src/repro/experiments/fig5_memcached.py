"""Figure 5 — memcached tail latency under contention (paper §4.4).

Two scenarios, four schedulers each:

**(a) Non-RTA contention** — one memcached VM plus 19 CPU-bound non-RTA
VMs share two PCPUs.  VM configurations follow the paper: Credit gets a
26% weight share (timeslice 1 ms, ratelimit 500 µs); RTVirt reserves
(s=58 µs, p=500 µs); RT-Xen uses the two cheapest runnable CSA
interfaces, A = (66, 283) µs and B = (33, 177) µs.

**(b) Periodic contention** — five memcached VMs (independent Mutilate
clients) plus ten emulated video-streaming VMs (3×24, 3×30, 2×48,
2×60 fps) on 15 PCPUs.

The SLO is a 500 µs 99.9th-percentile NIC-to-NIC latency.  The paper's
verdicts: RTVirt meets the SLO in both scenarios with the least
bandwidth (50.2% less than RT-Xen A in (a)); Credit fails both with a
long tail; each RT-Xen configuration fails at least one scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..baselines.configs import (
    CREDIT_GLOBAL_TIMESLICE_NS,
    CREDIT_RATELIMIT_NS,
    MEMCACHED_CREDIT_SHARE,
    MEMCACHED_RTVIRT_PARAMS,
    MEMCACHED_RTXEN_A,
    MEMCACHED_RTXEN_B,
    MEMCACHED_SLO_NS,
    credit_weight_for_share,
)
from ..baselines.credit import CreditSystem
from ..baselines.rtxen import RTXenSystem
from ..core.system import RTVirtSystem
from ..guest.task import Task
from ..metrics.latency import LatencyRecorder, merge_recorders
from ..simcore.rng import RandomStreams
from ..simcore.time import MSEC, sec
from ..telemetry.observe import observe
from ..workloads.background import add_background_vms
from ..workloads.arrivals import ArrivalMux
from ..workloads.memcached import MemcachedService
from ..workloads.periodic import PeriodicDriver
from ..workloads.video import TABLE3_PROFILES
from .common import format_table
from .table4_dedicated import CREDIT_WAKE_OVERHEAD_NS

SLO_USEC = MEMCACHED_SLO_NS / 1000.0

#: Figure 5b streaming mix: (fps, count).
FIG5B_STREAM_MIX: List[Tuple[int, int]] = [(24, 3), (30, 3), (48, 2), (60, 2)]


@dataclass
class SchedulerOutcome:
    scheduler: str
    latency: LatencyRecorder
    reserved_cpus: float
    video_misses: Dict[str, float] = field(default_factory=dict)

    @property
    def p999_usec(self) -> Optional[float]:
        """None when a starved server completed no request."""
        return self.latency.p999_usec() if len(self.latency) else None

    @property
    def meets_slo(self) -> bool:
        p999 = self.p999_usec
        return p999 is not None and p999 <= SLO_USEC

    def row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "scheduler": self.scheduler,
            "p99.9_us": self.p999_usec,
            "mean_us": self.latency.mean_usec() if len(self.latency) else None,
            "meets_SLO": self.meets_slo,
            "reserved_cpus": self.reserved_cpus,
        }
        if self.video_misses:
            row["worst_video_miss"] = max(self.video_misses.values())
        return row


@dataclass
class Fig5Result:
    scenario: str
    outcomes: List[SchedulerOutcome]

    def rows(self) -> List[Dict[str, object]]:
        return [o.row() for o in self.outcomes]

    def summary(self) -> str:
        return format_table(
            self.rows(),
            title=f"Figure 5{self.scenario} — memcached 99.9th-percentile latency "
            f"(SLO {SLO_USEC:.0f} µs)",
        )

    def outcome(self, scheduler: str) -> SchedulerOutcome:
        for o in self.outcomes:
            if o.scheduler == scheduler:
                return o
        raise KeyError(scheduler)


# -- scenario (a): 19 non-RTA VMs, 2 PCPUs -----------------------------------------


def _run_5a_rtvirt(duration_ns: int, seed: int) -> SchedulerOutcome:
    streams = RandomStreams(seed)
    system = RTVirtSystem(pcpu_count=2, slack_ns=0)
    vm = system.create_vm("mc", slack_ns=0)
    budget, period = MEMCACHED_RTVIRT_PARAMS
    svc = MemcachedService(
        system.engine, vm, streams.stream("mc"), period_ns=period, slice_ns=budget
    ).start()
    add_background_vms(system, 19)
    observe(system)
    system.run(duration_ns)
    system.finalize()
    return SchedulerOutcome("RTVirt", svc.latency, budget / period)


def _run_5a_rtxen(duration_ns: int, seed: int, variant: str) -> SchedulerOutcome:
    iface = MEMCACHED_RTXEN_A if variant == "A" else MEMCACHED_RTXEN_B
    streams = RandomStreams(seed)
    system = RTXenSystem(pcpu_count=2)
    vm = system.create_vm("mc", interfaces=[(iface.budget, iface.period)])
    svc = MemcachedService(system.engine, vm, streams.stream("mc"), register=False)
    system.register_rta(vm, svc.task)
    svc.start()
    add_background_vms(system, 19)
    observe(system)
    system.run(duration_ns)
    system.finalize()
    return SchedulerOutcome(f"RT-Xen {variant}", svc.latency, iface.bandwidth)


def _run_5a_credit(duration_ns: int, seed: int) -> SchedulerOutcome:
    streams = RandomStreams(seed)
    system = CreditSystem(
        pcpu_count=2,
        timeslice_ns=CREDIT_GLOBAL_TIMESLICE_NS,
        ratelimit_ns=CREDIT_RATELIMIT_NS,
        wake_overhead_ns=CREDIT_WAKE_OVERHEAD_NS,
    )
    weight = credit_weight_for_share(MEMCACHED_CREDIT_SHARE, peers=19)
    vm = system.create_vm("mc", weight=weight)
    svc = MemcachedService(system.engine, vm, streams.stream("mc")).start()
    add_background_vms(system, 19)
    observe(system)
    system.run(duration_ns)
    system.finalize()
    return SchedulerOutcome("Credit", svc.latency, MEMCACHED_CREDIT_SHARE)


#: Canonical Figure 5 scheduler order; also the per-scheduler shard ids
#: of the work-unit plan.  Every scheduler run builds its own system and
#: RandomStreams(seed), so the shards are independent.
FIG5_SCHEDULERS = ("Credit", "RT-Xen A", "RT-Xen B", "RTVirt")


def run_fig5a_scheduler(
    scheduler: str, duration_ns: int = sec(60), seed: int = 17
) -> SchedulerOutcome:
    """One scheduler's outcome in scenario (a)."""
    if scheduler == "Credit":
        return _run_5a_credit(duration_ns, seed)
    if scheduler == "RT-Xen A":
        return _run_5a_rtxen(duration_ns, seed, "A")
    if scheduler == "RT-Xen B":
        return _run_5a_rtxen(duration_ns, seed, "B")
    if scheduler == "RTVirt":
        return _run_5a_rtvirt(duration_ns, seed)
    raise KeyError(f"unknown Figure 5 scheduler {scheduler!r}")


# -- scenario (b): 5 memcached + 10 video VMs, 15 PCPUs ------------------------------


def _video_tasks() -> List[Tuple[str, int]]:
    names = []
    for fps, count in FIG5B_STREAM_MIX:
        for i in range(count):
            names.append((f"video-{fps}fps-{i + 1}", fps))
    return names


def _run_5b_rtvirt(duration_ns: int, seed: int) -> SchedulerOutcome:
    streams = RandomStreams(seed)
    system = RTVirtSystem(pcpu_count=15)
    mux = ArrivalMux(system.engine, name="mc-5b")
    services: List[MemcachedService] = []
    budget, period = MEMCACHED_RTVIRT_PARAMS
    reserved = Fraction(0)
    for i in range(5):
        vm = system.create_vm(f"mc{i + 1}", slack_ns=0)
        svc = MemcachedService(
            system.engine,
            vm,
            streams.stream(f"mc{i}"),
            name=f"memcached{i + 1}",
            period_ns=period,
            slice_ns=budget,
            mux=mux,
        ).start()
        services.append(svc)
        reserved += Fraction(budget, period)
    video: List[Task] = []
    for name, fps in _video_tasks():
        profile = TABLE3_PROFILES[fps]
        vm = system.create_vm(f"{name}-vm")
        task = Task(name, profile.spec.slice_ns, profile.spec.period_ns)
        vm.register_task(task)
        video.append(task)
        PeriodicDriver(system.engine, vm, task).start()
        reserved += vm.vcpus[0].bandwidth
    observe(system)
    system.run(duration_ns)
    system.finalize()
    return SchedulerOutcome(
        "RTVirt",
        merge_recorders([s.latency for s in services], name="rtvirt-5b"),
        float(reserved),
        video_misses={t.name: t.stats.miss_ratio for t in video},
    )


def _run_5b_rtxen(duration_ns: int, seed: int, variant: str) -> SchedulerOutcome:
    from ..baselines.configs import rtxen_interface_for_rta

    iface = MEMCACHED_RTXEN_A if variant == "A" else MEMCACHED_RTXEN_B
    streams = RandomStreams(seed)
    system = RTXenSystem(pcpu_count=15)
    mux = ArrivalMux(system.engine, name="mc-5b")
    services: List[MemcachedService] = []
    reserved = Fraction(0)
    for i in range(5):
        vm = system.create_vm(f"mc{i + 1}", interfaces=[(iface.budget, iface.period)])
        svc = MemcachedService(
            system.engine,
            vm,
            streams.stream(f"mc{i}"),
            name=f"memcached{i + 1}",
            register=False,
            mux=mux,
        )
        system.register_rta(vm, svc.task)
        svc.start()
        services.append(svc)
        reserved += iface.bandwidth
    video: List[Task] = []
    for name, fps in _video_tasks():
        profile = TABLE3_PROFILES[fps]
        viface = rtxen_interface_for_rta(profile.spec, min_period=MSEC)
        vm = system.create_vm(f"{name}-vm", interfaces=[(viface.budget, viface.period)])
        task = Task(name, profile.spec.slice_ns, profile.spec.period_ns)
        system.register_rta(vm, task)
        video.append(task)
        PeriodicDriver(system.engine, vm, task).start()
        reserved += viface.bandwidth
    observe(system)
    system.run(duration_ns)
    system.finalize()
    return SchedulerOutcome(
        f"RT-Xen {variant}",
        merge_recorders([s.latency for s in services], name=f"rtxen{variant}-5b"),
        float(reserved),
        video_misses={t.name: t.stats.miss_ratio for t in video},
    )


def _run_5b_credit(duration_ns: int, seed: int) -> SchedulerOutcome:
    streams = RandomStreams(seed)
    system = CreditSystem(
        pcpu_count=15,
        timeslice_ns=CREDIT_GLOBAL_TIMESLICE_NS,
        ratelimit_ns=CREDIT_RATELIMIT_NS,
        wake_overhead_ns=CREDIT_WAKE_OVERHEAD_NS,
    )
    mux = ArrivalMux(system.engine, name="mc-5b")
    services: List[MemcachedService] = []
    # Weights proportional to each VM's CPU need, as a Credit operator
    # would configure them.
    for i in range(5):
        vm = system.create_vm(f"mc{i + 1}", weight=credit_weight_for_share(0.26, peers=14))
        svc = MemcachedService(
            system.engine,
            vm,
            streams.stream(f"mc{i}"),
            name=f"memcached{i + 1}",
            mux=mux,
        ).start()
        services.append(svc)
    video: List[Task] = []
    for name, fps in _video_tasks():
        profile = TABLE3_PROFILES[fps]
        vm = system.create_vm(f"{name}-vm", weight=256)
        task = Task(name, profile.spec.slice_ns, profile.spec.period_ns)
        vm.register_task(task)
        video.append(task)
        PeriodicDriver(system.engine, vm, task).start()
    observe(system)
    system.run(duration_ns)
    system.finalize()
    return SchedulerOutcome(
        "Credit",
        merge_recorders([s.latency for s in services], name="credit-5b"),
        5 * 0.26,
        video_misses={t.name: t.stats.miss_ratio for t in video},
    )


def run_fig5b_scheduler(
    scheduler: str, duration_ns: int = sec(60), seed: int = 23
) -> SchedulerOutcome:
    """One scheduler's outcome in scenario (b)."""
    if scheduler == "Credit":
        return _run_5b_credit(duration_ns, seed)
    if scheduler == "RT-Xen A":
        return _run_5b_rtxen(duration_ns, seed, "A")
    if scheduler == "RT-Xen B":
        return _run_5b_rtxen(duration_ns, seed, "B")
    if scheduler == "RTVirt":
        return _run_5b_rtvirt(duration_ns, seed)
    raise KeyError(f"unknown Figure 5 scheduler {scheduler!r}")
