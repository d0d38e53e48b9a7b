"""Fault injectors — hostile events applied to a running system.

Each :class:`Fault` subclass is a frozen, declarative description of one
fault; :meth:`Fault.apply` performs it against a
:class:`FaultContext` from inside a simulation event (the scenario DSL
schedules the events).  All randomness comes from the context's named
:class:`~repro.simcore.rng.RandomStreams`, so a fault program replays
bit-identically for the same seed.

Supported fault classes:

- :class:`PcpuFail` / :class:`PcpuRecover` — take a PCPU offline (the
  machine evicts the victim VCPU; the host scheduler migrates it and,
  under RTVirt, admission sheds and later re-admits displaced
  bandwidth) and bring it back;
- :class:`VmChurn` — boot a short-lived RTA VM and shut it down after
  its lifetime, exercising online (de)registration on every system;
- :class:`HypercallDelay` / :class:`HypercallDrop` — the cross-layer
  channel delivers late, or not at all (the shared-memory page also
  freezes: the host schedules on stale deadlines);
- :class:`WorkloadSurge` — a mode change scales every RTA's slice in
  one VM for a window, then reverts;
- :class:`ClockJitter` — budget-replenishment timers fire late by a
  seeded random amount.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..guest.task import Task
from ..simcore.errors import AdmissionError, ConfigurationError
from ..simcore.events import PRIORITY_FAULT
from ..simcore.rng import RandomStreams
from ..simcore.time import MSEC
from ..telemetry import events as T
from ..workloads.periodic import PeriodicDriver

#: Trailing detail words that mark a fault application as the *end* of a
#: fault window rather than a fresh injection (classified as
#: :data:`~repro.telemetry.events.FAULT_RECOVERED`).
_RECOVERY_MARKERS = ("end", "revert", "shutdown")


class FaultContext:
    """Shared state for one installed fault scenario.

    Holds the target system, the seeded random streams, the fault log
    (``(time_ns, kind, detail)`` tuples, also mirrored into the
    machine's trace as ``"fault"`` events), and per-kind counters used
    to mint deterministic names for booted VMs.
    """

    def __init__(self, system, streams: Optional[RandomStreams] = None) -> None:
        self.system = system
        self.engine = system.engine
        self.machine = system.machine
        self.streams = streams if streams is not None else RandomStreams(0)
        #: (time_ns, kind, detail-tuple) in application order.
        self.log: List[Tuple[int, str, tuple]] = []
        self._counters: Dict[str, int] = {}
        #: Live drivers started by churn faults, so shutdown can stop them.
        self._drivers: Dict[str, List[PeriodicDriver]] = {}

    def record(self, kind: str, *detail, trace: bool = True) -> None:
        """Log one applied fault and publish it on the telemetry bus.

        Pass ``trace=False`` when another layer (the machine) already
        published the event — the local log is still appended.  Faults
        whose detail ends in a recovery marker ("end"/"revert"/
        "shutdown"), and ``pcpu_recover``, publish as
        :data:`~repro.telemetry.events.FAULT_RECOVERED`; everything else
        as :data:`~repro.telemetry.events.FAULT_INJECTED`.  An attached
        :class:`~repro.simcore.trace.Trace` records them as ``"fault"``
        point events.
        """
        now = self.engine.now
        self.log.append((now, kind, detail))
        if not trace:
            return
        recovered = kind == "pcpu_recover" or (
            detail and detail[-1] in _RECOVERY_MARKERS
        )
        bus = self.machine.bus
        if recovered:
            if bus.has_subscribers(T.FAULT_RECOVERED):
                bus.publish(
                    T.FAULT_RECOVERED, T.FaultRecoveredEvent(now, kind, detail)
                )
        elif bus.has_subscribers(T.FAULT_INJECTED):
            bus.publish(T.FAULT_INJECTED, T.FaultInjectedEvent(now, kind, detail))

    def next_index(self, key: str) -> int:
        """Deterministic per-kind counter (names for churned VMs)."""
        value = self._counters.get(key, 0)
        self._counters[key] = value + 1
        return value

    def fault_times(self, kind: Optional[str] = None) -> List[int]:
        """Times at which faults (of *kind*, or any) were applied."""
        return [t for t, k, _ in self.log if kind is None or k == kind]

    def first_fault_time(self, kind: Optional[str] = None) -> Optional[int]:
        times = self.fault_times(kind)
        return times[0] if times else None


class Fault(abc.ABC):
    """One injectable fault.  Subclasses are frozen dataclasses."""

    kind = "abstract"
    #: whether applying it draws from the context's random streams
    draws = False

    @abc.abstractmethod
    def apply(self, ctx: FaultContext) -> None:
        """Perform the fault against *ctx* (called inside an event)."""


def _rtvirt_ports(system) -> list:
    """Every distinct RTVirt hypercall port of *system*'s VMs."""
    from ..core.hypercall import RTVirtHypercall

    ports = []
    for vm in system.vms:
        port = getattr(vm, "port", None)
        if isinstance(port, RTVirtHypercall) and port not in ports:
            ports.append(port)
    return ports


@dataclass(frozen=True)
class PcpuFail(Fault):
    """Take PCPU *pcpu* offline.

    The machine evicts the occupant (forced migration via the host
    scheduler's fault hook); systems with admission control additionally
    shrink capacity and shed displaced bandwidth
    (:meth:`repro.core.system.RTVirtSystem.fail_pcpu`).
    """

    pcpu: int

    kind = "pcpu_fail"

    def apply(self, ctx: FaultContext) -> None:
        # The system-level entry point layers admission shedding on top
        # of the machine's eviction; the machine records the trace event.
        ctx.system.fail_pcpu(self.pcpu)
        ctx.record(self.kind, self.pcpu, trace=False)


@dataclass(frozen=True)
class PcpuRecover(Fault):
    """Bring PCPU *pcpu* back online (re-admitting shed bandwidth)."""

    pcpu: int

    kind = "pcpu_recover"

    def apply(self, ctx: FaultContext) -> None:
        ctx.system.recover_pcpu(self.pcpu)
        ctx.record(self.kind, self.pcpu, trace=False)


@dataclass(frozen=True)
class HostFail(Fault):
    """Fail a whole cluster host; its VMs evacuate by live migration.

    Targets a :class:`repro.cluster.Cluster` (the scenario's "system"):
    every PCPU of host *host* goes offline and the cluster migrates each
    resident VM to the alive host with the most headroom.  VMs that fit
    nowhere are logged as stranded and stay on the dead host.
    """

    host: str

    kind = "host_fail"

    def apply(self, ctx: FaultContext) -> None:
        ctx.system.fail_host(self.host)
        ctx.record(self.kind, self.host, trace=False)


@dataclass(frozen=True)
class HostRecover(Fault):
    """Bring a failed cluster host's PCPUs back online.

    Evacuated VMs do not migrate back; the recovered host simply
    becomes a placement candidate again (and any stranded VM resumes
    getting CPU time).
    """

    host: str

    kind = "host_recover"

    def apply(self, ctx: FaultContext) -> None:
        ctx.system.recover_host(self.host)
        ctx.record(self.kind, self.host, trace=False)


@dataclass(frozen=True)
class VmChurn(Fault):
    """Boot a short-lived RTA VM; shut it down after *lifetime_ns*.

    Each application mints a fresh ``{prefix}{n}`` VM hosting one
    periodic RTA of (*slice_ns*, *period_ns*).  Registration may be
    rejected (host admission under RTVirt, guest admission under
    RT-Xen); rejections are logged and the stillborn VM is torn down.
    On shutdown the driver stops, pending jobs are abandoned into the
    miss accounting, and bandwidth/VCPUs are released.
    """

    prefix: str = "churn"
    slice_ns: int = 2 * MSEC
    period_ns: int = 20 * MSEC
    lifetime_ns: int = 100 * MSEC

    kind = "vm_churn"

    def apply(self, ctx: FaultContext) -> None:
        name = f"{self.prefix}{ctx.next_index(self.kind)}"
        system = ctx.system
        task = Task(f"{name}.rta", self.slice_ns, self.period_ns)
        try:
            vm = self._boot(system, name, task)
        except (AdmissionError, ConfigurationError) as exc:
            ctx.record(self.kind, name, "rejected", str(exc), *self._params())
            return
        if vm is None:
            ctx.record(self.kind, name, "rejected", "admission", *self._params())
            return
        driver = PeriodicDriver(ctx.engine, vm, task).start()
        ctx._drivers[name] = [driver]
        ctx.record(self.kind, name, "boot", *self._params())
        ctx.engine.after(
            self.lifetime_ns,
            self._shutdown,
            ctx,
            name,
            vm,
            priority=PRIORITY_FAULT,
            name=f"fault:{self.kind}:shutdown",
        )

    def _params(self) -> tuple:
        """Reconstruction parameters appended to every boot/reject record.

        Trace replay rebuilds the churn fault from its telemetry record
        alone; appending (never reordering) keeps older positional
        consumers and the ``_RECOVERY_MARKERS`` tail check intact.
        """
        return (self.slice_ns, self.period_ns, self.lifetime_ns)

    def _boot(self, system, name: str, task: Task):
        """System-appropriate VM boot + task registration."""
        if hasattr(system, "register_rta"):  # RT-Xen: static interfaces
            budget = min(self.period_ns, self.slice_ns * 2)
            vm = system.create_vm(name, interfaces=[(budget, self.period_ns)])
            try:
                system.register_rta(vm, task)
            except AdmissionError:
                system.shutdown_vm(vm)
                return None
            return vm
        if hasattr(system, "admission"):  # RTVirt: online negotiation
            vm = system.create_vm(name)
            try:
                vm.register_task(task)
            except AdmissionError:
                system.shutdown_vm(vm)
                return None
            return vm
        # Credit: weight-scheduled, no admission at all.
        vm = system.create_vm(name)
        vm.register_task(task)
        return vm

    def _shutdown(self, ctx: FaultContext, name: str, vm) -> None:
        if vm.machine is not ctx.machine:
            return  # already gone
        for driver in ctx._drivers.pop(name, ()):
            driver.stop()
        ctx.system.shutdown_vm(vm)
        ctx.record(self.kind, name, "shutdown")


@dataclass(frozen=True)
class HypercallDelay(Fault):
    """Deliver hypercall effects *delay_ns* late for *duration_ns*.

    Admission is still decided at call time, but the host-side parameter
    installation (and hence the re-partition) lands late.  Only affects
    systems with a live cross-layer channel (RTVirt); a no-op elsewhere.
    """

    delay_ns: int = MSEC
    duration_ns: int = 100 * MSEC

    kind = "hypercall_delay"

    def apply(self, ctx: FaultContext) -> None:
        until = ctx.engine.now + self.duration_ns
        ports = _rtvirt_ports(ctx.system)
        for port in ports:
            port.inject_delay(until, self.delay_ns)
        ctx.record(self.kind, self.delay_ns, self.duration_ns, len(ports))


@dataclass(frozen=True)
class HypercallDrop(Fault):
    """Lose every hypercall for *duration_ns*; freeze the shared page.

    Guests see their requests rejected; the host keeps scheduling on
    the deadlines published *before* the drop window began (a stale
    shared-memory page).  Only affects RTVirt systems.
    """

    duration_ns: int = 100 * MSEC

    kind = "hypercall_drop"

    def apply(self, ctx: FaultContext) -> None:
        now = ctx.engine.now
        until = now + self.duration_ns
        ports = _rtvirt_ports(ctx.system)
        for port in ports:
            port.inject_drop(until)
        shared = getattr(ctx.system, "shared_memory", None)
        if shared is not None:
            shared.freeze(now, until)
        ctx.record(self.kind, self.duration_ns, len(ports))


@dataclass(frozen=True)
class WorkloadSurge(Fault):
    """Scale every RTA slice in VM *vm_name* by *num/den* for a window.

    A mode change: each task asks for ``slice * num // den`` (clamped
    to its period) via the guest's adjust path — under RTVirt this
    renegotiates bandwidth online; under the baselines the guest simply
    overruns its fixed interface.  Reverts after *duration_ns*.
    Rejected adjustments (host admission refuses the increase) are
    logged and the task keeps its old requirement.
    """

    vm_name: str
    num: int = 2
    den: int = 1
    duration_ns: int = 100 * MSEC

    kind = "workload_surge"

    def apply(self, ctx: FaultContext) -> None:
        vm = next((v for v in ctx.system.vms if v.name == self.vm_name), None)
        if vm is None:
            # num/den/duration appended for trace-replay reconstruction
            ctx.record(
                self.kind, self.vm_name, "no-such-vm",
                self.num, self.den, self.duration_ns,
            )
            return
        reverts = []
        applied = rejected = 0
        for task in list(vm.rt_tasks):
            old_slice = task.slice_ns
            new_slice = min(task.period_ns, old_slice * self.num // self.den)
            if new_slice == old_slice:
                continue
            try:
                vm.adjust_task(task, new_slice, task.period_ns)
            except AdmissionError:
                rejected += 1
                continue
            applied += 1
            reverts.append((task, old_slice, task.period_ns))
        ctx.record(
            self.kind, self.vm_name, applied, rejected,
            self.num, self.den, self.duration_ns,
        )
        if reverts:
            ctx.engine.after(
                self.duration_ns,
                self._revert,
                ctx,
                vm,
                reverts,
                priority=PRIORITY_FAULT,
                name=f"fault:{self.kind}:revert",
            )

    def _revert(self, ctx: FaultContext, vm, reverts) -> None:
        if vm.machine is not ctx.machine:
            return  # the VM was shut down mid-surge
        for task, old_slice, old_period in reverts:
            if task.vm is not vm:
                continue
            try:
                vm.adjust_task(task, old_slice, old_period)
            except AdmissionError:  # pragma: no cover - decreases succeed
                pass
        ctx.record(self.kind, self.vm_name, "revert")


@dataclass(frozen=True)
class ClockJitter(Fault):
    """Budget-replenishment timers fire up to *max_ns* late.

    Every host scheduler re-arms its replenishment/tick timers with a
    seeded uniform jitter drawn from the ``fault.jitter`` stream.  Pass
    *duration_ns* to restore exact timers afterwards; ``None`` leaves
    jitter on for the rest of the run.
    """

    max_ns: int = MSEC
    duration_ns: Optional[int] = None

    kind = "clock_jitter"
    draws = True

    def apply(self, ctx: FaultContext) -> None:
        scheduler = ctx.machine.host_scheduler
        scheduler.set_timer_jitter(ctx.streams.stream("fault.jitter"), self.max_ns)
        ctx.record(self.kind, self.max_ns, self.duration_ns)
        if self.duration_ns is not None:
            ctx.engine.after(
                self.duration_ns,
                self._disable,
                ctx,
                priority=PRIORITY_FAULT,
                name=f"fault:{self.kind}:end",
            )

    def _disable(self, ctx: FaultContext) -> None:
        ctx.machine.host_scheduler.set_timer_jitter(None, 0)
        ctx.record(self.kind, "end")
