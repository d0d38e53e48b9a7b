"""RT-Xen 2.0 baseline (Xi et al., EMSOFT'14; paper §4.1).

The paper compares against RT-Xen's best configuration: **pEDF at the
guest level and gEDF with deferrable server at the host level**, with
the per-VM (budget, period) interfaces computed *offline* by
compositional scheduling analysis (the CARTS tool — reimplemented in
:mod:`repro.analysis.csa`).

Two properties of RT-Xen drive the paper's comparison and are faithfully
reproduced here:

1. **No cross-layer channel.**  VCPU interfaces are fixed at VM creation
   from CSA output; guests cannot renegotiate online, so dynamic RTAs
   cannot be supported (§4.3).
2. **CSA pessimism.**  The interfaces over-reserve bandwidth, and DMPR
   additionally *claims* whole CPUs that cannot be used by other RTAs
   (Figure 3's wasted bandwidth).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..guest.port import StaticPort
from ..guest.task import Task
from ..guest.vm import VM
from ..host.base_system import BaseSystem
from ..host.costs import DEFAULT_COSTS, CostModel
from ..host.edf import EDFHostScheduler, PartitionedEDFHostScheduler
from ..simcore.engine import Engine
from ..simcore.errors import AdmissionError, ConfigurationError
from ..telemetry import events as T

_HOST_SCHEDULERS = {
    "gedf": EDFHostScheduler,
    "pedf": PartitionedEDFHostScheduler,
}


class RTXenSystem(BaseSystem):
    """A host running RT-Xen's deferrable-server scheduler.

    Defaults to the paper's best configuration (host gEDF); pass
    ``host="pedf"`` for the partitioned configuration, where each VM's
    VCPU servers are placed first-fit decreasing by bandwidth
    (:meth:`PartitionedEDFHostScheduler.add_vcpus`).
    """

    def __init__(
        self,
        pcpu_count: int,
        engine: Optional[Engine] = None,
        cost_model: CostModel = DEFAULT_COSTS,
        host: str = "gedf",
    ) -> None:
        super().__init__(pcpu_count, engine, cost_model)
        if host not in _HOST_SCHEDULERS:
            raise ConfigurationError(
                f"unknown RT-Xen host scheduler {host!r}; choose from "
                f"{sorted(_HOST_SCHEDULERS)}"
            )
        self.scheduler = _HOST_SCHEDULERS[host]()
        self.machine.set_host_scheduler(self.scheduler)

    def create_vm(
        self,
        name: str,
        interfaces: Sequence[Tuple[int, int]],
        scheduler: str = "pedf",
    ) -> VM:
        """Create a VM with statically configured VCPU servers.

        *interfaces* is one (budget_ns, period_ns) pair per VCPU, as
        produced by CSA (:func:`repro.analysis.csa.csa_interface`).  The
        interfaces are fixed for the lifetime of the VM — the defining
        limitation of the offline approach.
        """
        if not interfaces:
            raise ConfigurationError(f"VM {name} needs at least one VCPU interface")
        vm = VM(name, vcpu_count=len(interfaces), scheduler=scheduler, slack_ns=0)
        vm.set_port(StaticPort())
        self._attach(vm)
        for index, (budget_ns, period_ns) in enumerate(interfaces):
            vm.configure_vcpu(index, budget_ns, period_ns)
        if isinstance(self.scheduler, PartitionedEDFHostScheduler):
            # Partitioned host: place the VM's servers as a batch so the
            # first-fit-decreasing heuristic sees them together.
            self.scheduler.add_vcpus(list(vm.vcpus))
        else:
            for vcpu in vm.vcpus:
                self.scheduler.add_vcpu(vcpu)
        return vm

    def create_background_vm(self, name: str, processes: int = 1) -> VM:
        """A VM of CPU-bound non-RTA processes, run in leftover time."""
        vm = VM(name, vcpu_count=1, slack_ns=0)
        self._attach(vm)
        for _ in range(processes):
            vm.add_background_process()
        self.scheduler.add_background_vcpu(vm.vcpus[0])
        return vm

    def register_rta(self, vm: VM, task: Task) -> None:
        """Guest-level (pEDF) registration onto the fixed VCPU servers.

        RT-Xen's guest scheduler performs only local admission — there is
        no hypercall, and the host interfaces do not change.  Decisions
        are published at system level (op ``"rtxen_register"``) on top
        of whatever the guest scheduler itself emits.
        """
        try:
            vm.register_task(task)
        except AdmissionError as exc:
            self._emit_rta_decision(task, False, exc.level)
            raise
        self._emit_rta_decision(task, True, vm.name)

    def _emit_rta_decision(self, task: Task, granted: bool, detail: str) -> None:
        bus = self.machine.bus
        if not bus.has_subscribers(T.ADMISSION_DECISION):
            return
        bus.publish(
            T.ADMISSION_DECISION,
            T.AdmissionDecisionEvent(
                self.engine.now, "host", "rtxen_register", task.name, granted, detail
            ),
        )
