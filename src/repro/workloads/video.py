"""Video-streaming workloads (paper §4.3, Table 3 and Figure 4).

The paper models VLC transcoding threads with rt-app using parameters
measured from the real application: the period comes from the frame
rate (floor of 1000/fps ms) and the slice from observed CPU usage.
Table 3's four configurations are reproduced verbatim.

:class:`DynamicStreamingWorkload` recreates the Figure 4 churn: VMs
whose VCPUs alternate between randomly parameterized streaming RTAs and
idle intervals (with a 10% bandwidth reserve), each lasting 10 s – 6 min,
exercising RTVirt's dynamic register/adjust/unregister path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..guest.task import Task
from ..guest.vm import VM
from ..metrics.deadlines import DeadlineStats
from ..simcore.engine import Engine
from ..simcore.errors import AdmissionError
from ..simcore.events import PRIORITY_DEFAULT
from ..simcore.rng import RandomSource
from ..simcore.time import SEC
from .periodic import PeriodicDriver, RTASpec


@dataclass(frozen=True)
class StreamProfile:
    """One row of Table 3."""

    fps: int
    bandwidth_percent: float
    slice_ms: int
    period_ms: int

    @property
    def spec(self) -> RTASpec:
        return RTASpec(self.slice_ms, self.period_ms)


#: Table 3 — timeliness characteristics of VLC streaming at each frame rate.
TABLE3_PROFILES: Dict[int, StreamProfile] = {
    24: StreamProfile(24, 44.5, 19, 41),
    30: StreamProfile(30, 54.1, 18, 33),
    48: StreamProfile(48, 84.5, 17, 20),
    60: StreamProfile(60, 93.6, 15, 16),
}


@dataclass
class SessionRecord:
    """Outcome of one dynamic streaming session (for Figure 4's report)."""

    name: str
    fps: int
    start_ns: int
    planned_end_ns: int
    stats: DeadlineStats
    admitted: bool = True


class StreamingSession:
    """One transcoding thread: a periodic RTA alive for a bounded time."""

    def __init__(
        self,
        engine: Engine,
        vm: VM,
        name: str,
        profile: StreamProfile,
        end_ns: int,
    ) -> None:
        self.engine = engine
        self.vm = vm
        self.profile = profile
        self.task = Task(name, profile.spec.slice_ns, profile.spec.period_ns)
        self.end_ns = end_ns
        self._driver: Optional[PeriodicDriver] = None

    def start(self) -> bool:
        """Register and start streaming; False when admission rejects."""
        try:
            self.vm.register_task(self.task)
        except AdmissionError:
            return False
        self._driver = PeriodicDriver(
            self.engine, self.vm, self.task, until=self.end_ns
        ).start()
        self.engine.at(
            self.end_ns, self._teardown, priority=PRIORITY_DEFAULT, name="session-end"
        )
        return True

    def _teardown(self) -> None:
        if self._driver is not None:
            self._driver.stop()
        if self.task.vm is self.vm:
            # Drop any still-pending job from accounting noise: jobs whose
            # deadline already passed count as misses via finalize later;
            # in-flight ones are abandoned by the unregister, as a real
            # thread teardown would.
            self.vm.unregister_task(self.task)


class DynamicStreamingWorkload:
    """The Figure 4 churn generator.

    For each VCPU slot of each VM it builds a sequential timeline of
    streaming sessions and idle intervals; during idle intervals a 10%
    placeholder reservation is registered (the paper reserves 10% of
    bandwidth for idle VCPUs).
    """

    #: 10% reservation used during idle intervals: 1 ms every 10 ms.
    IDLE_RESERVE_SPEC = RTASpec(1, 10)

    def __init__(
        self,
        system,
        rng: RandomSource,
        vm_count: int = 4,
        vcpus_per_vm: int = 4,
        duration_ns: int = 600 * SEC,
        min_interval_ns: int = 10 * SEC,
        max_interval_ns: int = 360 * SEC,
        vm_start: int = 0,
    ) -> None:
        """*vm_start* offsets the VM numbering (``stream-vm{vm_start+1}``
        onward), so a decomposed run — one single-VM workload per system —
        reproduces the names the combined workload would have used."""
        self.system = system
        self.engine: Engine = system.engine
        self.rng = rng
        self.duration_ns = duration_ns
        self.min_interval_ns = min_interval_ns
        self.max_interval_ns = max_interval_ns
        self.vms: List[VM] = [
            system.create_vm(f"stream-vm{vm_start + i + 1}", vcpu_count=vcpus_per_vm)
            for i in range(vm_count)
        ]
        self.vcpus_per_vm = vcpus_per_vm
        self.sessions: List[SessionRecord] = []
        self._counter = 0

    def start(self) -> "DynamicStreamingWorkload":
        """Schedule the per-slot timelines."""
        for vm in self.vms:
            for slot in range(self.vcpus_per_vm):
                # Half the slots start with a session, half idle, chosen
                # randomly like the paper's random assignment.
                start_busy = self.rng.random() < 0.5
                self._schedule_segment(vm, slot, at=0, busy=start_busy)
        return self

    def _random_interval(self) -> int:
        return self.rng.uniform_int(self.min_interval_ns, self.max_interval_ns)

    def _schedule_segment(self, vm: VM, slot: int, at: int, busy: bool) -> None:
        if at >= self.duration_ns:
            return
        length = min(self._random_interval(), self.duration_ns - at)
        if busy:
            self.engine.at(
                at,
                self._start_session,
                vm,
                slot,
                at + length,
                priority=PRIORITY_DEFAULT,
                name="session-start",
            )
        else:
            self.engine.at(
                at,
                self._start_idle_reserve,
                vm,
                at + length,
                priority=PRIORITY_DEFAULT,
                name="idle-start",
            )
        self._schedule_segment(vm, slot, at + length, not busy)

    def _start_session(self, vm: VM, slot: int, end_ns: int) -> None:
        profile = TABLE3_PROFILES[self.rng.choice(sorted(TABLE3_PROFILES))]
        self._counter += 1
        name = f"{vm.name}.stream{self._counter}@{profile.fps}fps"
        session = StreamingSession(self.engine, vm, name, profile, end_ns)
        admitted = session.start()
        self.sessions.append(
            SessionRecord(
                name=name,
                fps=profile.fps,
                start_ns=self.engine.now,
                planned_end_ns=end_ns,
                stats=session.task.stats,
                admitted=admitted,
            )
        )

    def _start_idle_reserve(self, vm: VM, end_ns: int) -> None:
        spec = self.IDLE_RESERVE_SPEC
        task = Task(
            f"{vm.name}.idle{self._counter}", spec.slice_ns, spec.period_ns
        )
        self._counter += 1
        try:
            vm.register_task(task)
        except AdmissionError:
            return
        self.engine.at(
            end_ns,
            self._end_idle_reserve,
            vm,
            task,
            priority=PRIORITY_DEFAULT,
            name="idle-end",
        )

    def _end_idle_reserve(self, vm: VM, task: Task) -> None:
        if task.vm is vm:
            vm.unregister_task(task)

    # -- reporting ----------------------------------------------------------------

    def admitted_sessions(self) -> List[SessionRecord]:
        return [s for s in self.sessions if s.admitted]

    def worst_miss_ratio(self) -> float:
        """Worst per-session miss ratio (the paper reports 0.136%)."""
        ratios = [s.stats.miss_ratio for s in self.admitted_sessions() if s.stats.decided]
        return max(ratios) if ratios else 0.0
