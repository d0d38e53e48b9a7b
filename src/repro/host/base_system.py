"""Shared plumbing for complete simulated systems.

``RTVirtSystem``, ``RTXenSystem`` and ``CreditSystem`` all wrap a
machine, an engine and a set of VMs; this base class holds the common
lifecycle and reporting so each system only describes its scheduler
wiring.
"""

from __future__ import annotations

from typing import List, Optional

from ..control import actions as A
from ..guest.vm import VM
from ..metrics.deadlines import MissReport, collect_miss_report
from ..simcore.engine import Engine
from ..simcore.trace import Trace
from .costs import DEFAULT_COSTS, CostModel
from .machine import Machine


class BaseSystem:
    """A machine plus VM bookkeeping and run/report helpers."""

    def __init__(
        self,
        pcpu_count: int,
        engine: Optional[Engine] = None,
        cost_model: CostModel = DEFAULT_COSTS,
        trace: Optional[Trace] = None,
    ) -> None:
        self.engine = engine if engine is not None else Engine()
        self.machine = Machine(self.engine, pcpu_count, cost_model, trace)
        #: The machine's actuation port.  The machine executes the
        #: cross-layer port calls; the base system adds PCPU faults and
        #: subclasses their own mechanisms (host admission).
        self.control = self.machine.control
        self.control.register(
            A.FailPcpu.kind, lambda a: a.system._do_fail_pcpu(a.pcpu_index)
        )
        self.control.register(
            A.RecoverPcpu.kind, lambda a: a.system._do_recover_pcpu(a.pcpu_index)
        )
        self.vms: List[VM] = []
        #: Tasks of VMs shut down mid-run (VM churn); kept so the miss
        #: report still covers their jobs.
        self._retired_tasks: List = []

    def _attach(self, vm: VM) -> VM:
        self.machine.attach_vm(vm)
        self.vms.append(vm)
        return vm

    # -- dynamic VM lifecycle (fault injection / churn) ---------------------------

    def shutdown_vm(self, vm: VM) -> None:
        """Tear *vm* down mid-run: abandon its pending jobs, release its
        bandwidth, free its VCPUs and detach it from the machine."""
        now = self.engine.now
        for task in list(vm.rt_tasks):
            task.finalize(now)  # pending jobs count as abandoned
            self._retired_tasks.append(task)
            vm.unregister_task(task)
        scheduler = self.machine.host_scheduler
        for vcpu in vm.vcpus:
            scheduler.remove_vcpu(vcpu)
            scheduler.remove_background_vcpu(vcpu)
            pcpu_index = self.machine.pcpu_of(vcpu)
            if pcpu_index is not None:
                self.machine.set_running(pcpu_index, None)
        self.machine.detach_vm(vm)
        self.vms.remove(vm)

    # -- live migration hooks ------------------------------------------------------

    def extract_vm(self, vm: VM) -> None:
        """Pause *vm* for a live migration's stop-and-copy blackout.

        Unlike :meth:`shutdown_vm` this is non-destructive: tasks keep
        their state, and jobs released during the blackout stay queued
        in the guest scheduler (clients pass explicit release times), so
        they simply receive no CPU until a destination host
        :meth:`adopt_vm`\\ s the VM.
        """
        scheduler = self.machine.host_scheduler
        for vcpu in vm.vcpus:
            pcpu_index = self.machine.pcpu_of(vcpu)
            if pcpu_index is not None:
                self.machine.set_running(pcpu_index, None)
            scheduler.remove_vcpu(vcpu)
            scheduler.remove_background_vcpu(vcpu)
        self.machine.detach_vm(vm)
        self.vms.remove(vm)

    def adopt_vm(self, vm: VM) -> None:
        """Resume a migrated *vm* on this host (end of stop-and-copy).

        The machine attach rebinds guest telemetry to this host's bus;
        VCPUs with a live reservation re-enter the host scheduler, and
        queued-up jobs wake their VCPUs so the blackout backlog drains.
        """
        self.machine.attach_vm(vm)
        self.vms.append(vm)
        self._enter_host_scheduler(vm)
        self._wake_backlog(vm)

    def _enter_host_scheduler(self, vm: VM) -> None:
        """Scheduler-specific half of :meth:`adopt_vm`."""
        for vcpu in vm.vcpus:
            if vcpu.budget_ns > 0 and vcpu.period_ns > 0:
                self.machine.host_scheduler.add_vcpu(vcpu)

    def _wake_backlog(self, vm: VM) -> None:
        """Notify the host scheduler about jobs queued while paused."""
        woken = set()
        for task in vm.rt_tasks:
            if not task.has_work:
                continue
            for vcpu in vm.wake_targets(task):
                if vcpu.uid not in woken:
                    woken.add(vcpu.uid)
                    self.machine.notify_wake(vcpu)

    # -- fault entry points --------------------------------------------------------

    def fail_pcpu(self, pcpu_index: int) -> None:
        """Take a PCPU offline, routed through the actuation port."""
        self.control.submit(A.FailPcpu(system=self, pcpu_index=pcpu_index))

    def recover_pcpu(self, pcpu_index: int) -> None:
        """Bring a failed PCPU back online, through the actuation port."""
        self.control.submit(A.RecoverPcpu(system=self, pcpu_index=pcpu_index))

    def _do_fail_pcpu(self, pcpu_index: int) -> None:
        """Mechanism half of :meth:`fail_pcpu` (subclasses renegotiate)."""
        self.machine.fail_pcpu(pcpu_index)

    def _do_recover_pcpu(self, pcpu_index: int) -> None:
        """Mechanism half of :meth:`recover_pcpu`."""
        self.machine.recover_pcpu(pcpu_index)

    # -- run ------------------------------------------------------------------

    def run(self, duration_ns: int) -> None:
        """Run the simulation for *duration_ns* from the current time."""
        self.machine.run(self.engine.now + duration_ns)

    def run_until(self, time_ns: int) -> None:
        """Run the simulation up to the absolute time *time_ns*."""
        self.machine.run(time_ns)

    def finalize(self) -> None:
        """Close out end-of-run accounting (unfinished jobs, syncs)."""
        self.machine.finalize()

    # -- reporting ----------------------------------------------------------------

    def miss_report(self) -> MissReport:
        """Deadline outcomes over every RT task in every VM, including
        tasks of VMs shut down mid-run."""
        tasks = [t for vm in self.vms for t in vm.rt_tasks]
        tasks.extend(self._retired_tasks)
        return collect_miss_report(tasks)

    def overhead_percent(self) -> float:
        """Accounted scheduler overhead as a percent of total CPU time."""
        return self.machine.metrics.overhead.overhead_percent(self.machine.total_cpu_time())
