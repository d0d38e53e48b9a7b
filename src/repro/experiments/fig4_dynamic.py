"""Figure 4 — dynamic video-streaming RTAs (paper §4.3).

Four VMs with four VCPUs each host rt-app RTAs parameterized from VLC
(Table 3).  RTAs arrive and leave dynamically for the whole experiment;
RTVirt admits them online through the hypercall and re-partitions.

The experiment is defined as a *partitioned* host: each VM runs on its
own ``ceil(pcpu_count / vm_count)``-PCPU partition with its own derived
churn RNG stream (``churn-vm{i}``), so the VMs are independent by
construction.  Each :func:`run_fig4_vm` call is one work unit and
:func:`assemble_fig4` merges the parts, so the result is the same
whatever the worker count, by construction rather than by bookkeeping.

The paper's findings, which this harness reports:

- out of the 54 RTAs run over 10 minutes, only five had deadline misses
  and the worst per-RTA miss percentage was 0.136%;
- CPU allocation tracks the demand over time (the Figure 4 curves),
  saving substantial bandwidth versus statically provisioning each VM
  for its peak load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.system import RTVirtSystem
from ..simcore.rng import RandomStreams
from ..simcore.time import SEC, sec
from ..simcore.trace import Trace
from ..telemetry.observe import observe
from ..workloads.video import TABLE3_PROFILES, DynamicStreamingWorkload, SessionRecord

#: VM partitions of the Figure 4 host (the paper's four streaming VMs).
#: The work-unit plan shards along this axis.
FIG4_VM_COUNT = 4


@dataclass
class Fig4Result:
    duration_ns: int
    sessions: List[SessionRecord]
    worst_miss_ratio: float
    total_released: int
    total_missed: int
    #: (vm name -> [(bucket_start_ns, cpu_allocation_fraction)]) — the curves.
    allocation_series: Dict[str, List[Tuple[int, float]]]
    #: Mean dynamic allocation vs static peak-provisioned allocation, CPUs.
    mean_dynamic_cpus: float
    static_peak_cpus: float

    def rows(self) -> List[Dict[str, object]]:
        return [
            {
                "session": s.name,
                "fps": s.fps,
                "start_s": s.start_ns / SEC,
                "end_s": s.planned_end_ns / SEC,
                "released": s.stats.released,
                "missed": s.stats.missed,
                "miss_ratio": s.stats.miss_ratio,
            }
            for s in self.sessions
            if s.admitted
        ]

    def summary(self) -> str:
        admitted = [s for s in self.sessions if s.admitted]
        with_misses = [s for s in admitted if s.stats.missed > 0]
        lines = [
            f"Figure 4 — dynamic streaming RTAs over {self.duration_ns / SEC:.0f}s",
            f"sessions run: {len(admitted)} (paper: 54 over 600s)",
            f"sessions with misses: {len(with_misses)} (paper: 5)",
            f"worst per-session miss ratio: {self.worst_miss_ratio * 100:.3f}% "
            f"(paper: 0.136%)",
            f"total jobs: {self.total_released}, missed: {self.total_missed}",
            f"mean dynamic allocation: {self.mean_dynamic_cpus:.2f} CPUs vs "
            f"static peak provisioning: {self.static_peak_cpus:.2f} CPUs "
            f"({100 * (1 - self.mean_dynamic_cpus / self.static_peak_cpus):.1f}% saved)",
        ]
        return "\n".join(lines)


@dataclass
class Fig4VmPart:
    """One VM partition's outcome — the picklable unit of the fig4 plan."""

    vm_name: str
    duration_ns: int
    bucket_ns: int
    sessions: List[SessionRecord]
    #: [(bucket_start_ns, cpu_allocation_fraction)] for this VM.
    series: List[Tuple[int, float]]
    #: Peak concurrent bandwidth demand (static-provisioning baseline).
    peak: float


def run_fig4_vm(
    vm_index: int,
    duration_ns: int = sec(600),
    pcpu_count: int = 15,
    seed: int = 11,
    vm_count: int = 4,
    vcpus_per_vm: int = 4,
    bucket_ns: int = sec(5),
) -> Fig4VmPart:
    """Run one VM's partition of the dynamic streaming experiment.

    The VM gets ``ceil(pcpu_count / vm_count)`` PCPUs of its own and the
    churn stream ``churn-vm{vm_index+1}`` derived from *seed* — both
    functions of the partition only, so the parts compose identically
    whether executed in one process or many.
    """
    if not 0 <= vm_index < vm_count:
        raise ValueError(f"vm_index {vm_index} outside [0, {vm_count})")
    partition_pcpus = -(-pcpu_count // vm_count)  # ceil
    streams = RandomStreams(seed)
    system = RTVirtSystem(pcpu_count=partition_pcpus)
    trace = Trace().attach(system.machine.bus)
    workload = DynamicStreamingWorkload(
        system,
        streams.stream(f"churn-vm{vm_index + 1}"),
        vm_count=1,
        vcpus_per_vm=vcpus_per_vm,
        duration_ns=duration_ns,
        vm_start=vm_index,
    ).start()
    observe(system)
    system.run(duration_ns)
    system.finalize()

    (vm,) = workload.vms
    merged: Dict[int, int] = {}
    for vcpu in vm.vcpus:
        for start, usage in trace.usage_series(vcpu.name, 0, duration_ns, bucket_ns):
            merged[start] = merged.get(start, 0) + usage
    series = [(start, merged[start] / bucket_ns) for start in sorted(merged)]

    return Fig4VmPart(
        vm_name=vm.name,
        duration_ns=duration_ns,
        bucket_ns=bucket_ns,
        sessions=workload.sessions,
        series=series,
        peak=_peak_demand(workload.sessions),
    )


def assemble_fig4(parts: List[Fig4VmPart]) -> Fig4Result:
    """Build the :class:`Fig4Result` from per-VM parts (in VM order)."""
    duration_ns = parts[0].duration_ns if parts else 0
    bucket_ns = parts[0].bucket_ns if parts else 1
    sessions = [s for part in parts for s in part.sessions]
    admitted = [s for s in sessions if s.admitted]
    ratios = [s.stats.miss_ratio for s in admitted if s.stats.decided]
    series = {part.vm_name: part.series for part in parts}
    mean_dynamic = (
        sum(u for part in parts for _, u in part.series) * bucket_ns / duration_ns
        if duration_ns
        else 0.0
    )
    peak = 0.0
    for part in parts:
        peak += part.peak
    return Fig4Result(
        duration_ns=duration_ns,
        sessions=sessions,
        worst_miss_ratio=max(ratios) if ratios else 0.0,
        total_released=sum(s.stats.released for s in admitted),
        total_missed=sum(s.stats.missed for s in admitted),
        allocation_series=series,
        mean_dynamic_cpus=mean_dynamic,
        static_peak_cpus=peak,
    )


def _peak_demand(sessions: List[SessionRecord]) -> float:
    """Peak concurrent bandwidth demand of a VM's sessions."""
    events: List[Tuple[int, float]] = []
    for s in sessions:
        if not s.admitted:
            continue
        bw = TABLE3_PROFILES[s.fps].bandwidth_percent / 100.0
        events.append((s.start_ns, bw))
        events.append((s.planned_end_ns, -bw))
    events.sort()
    level = peak = 0.0
    for _, delta in events:
        level += delta
        peak = max(peak, level)
    return peak
