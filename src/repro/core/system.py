"""The RTVirt system facade — the package's primary public API.

Wires together the machine model, the DP-WRAP host scheduler, the
utilization admission controller, the shared-memory page and the
hypercall ports, so an experiment reads like the paper's setup:

    system = RTVirtSystem(pcpu_count=4)
    vm = system.create_vm("vm1")
    task = Task("rta1", msec(5), msec(20))
    vm.register_task(task)
    PeriodicDriver(system.engine, vm, task).start()
    system.run(sec(10))
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ..control import actions as A
from ..guest.vm import VM
from ..host.base_system import BaseSystem
from ..host.costs import DEFAULT_COSTS, CostModel
from ..simcore.engine import Engine
from ..simcore.time import MSEC, USEC
from .admission import UtilizationAdmission
from .dpwrap import DPWrapScheduler
from .hypercall import RTVirtHypercall
from .shared_memory import SharedMemoryPage

#: The slack the paper adds to every VCPU's budget (§4.1).
DEFAULT_SLACK_NS = 500 * USEC
#: The paper's lower bound on the global slice (§4.1).
DEFAULT_MIN_GLOBAL_SLICE_NS = 250 * USEC


class RTVirtSystem(BaseSystem):
    """A complete RTVirt host: machine + DP-WRAP + cross-layer interface."""

    def __init__(
        self,
        pcpu_count: int,
        engine: Optional[Engine] = None,
        cost_model: CostModel = DEFAULT_COSTS,
        slack_ns: int = DEFAULT_SLACK_NS,
        min_global_slice_ns: int = DEFAULT_MIN_GLOBAL_SLICE_NS,
        idle_slice_ns: int = 10 * MSEC,
        background_reserve: Fraction = Fraction(0),
    ) -> None:
        super().__init__(pcpu_count, engine, cost_model)
        self.shared_memory = SharedMemoryPage()
        self.scheduler = DPWrapScheduler(
            self.shared_memory,
            min_global_slice_ns=min_global_slice_ns,
            idle_slice_ns=idle_slice_ns,
        )
        self.machine.set_host_scheduler(self.scheduler)
        self.admission = UtilizationAdmission(pcpu_count, background_reserve)
        self.admission.bind_telemetry(self.machine.bus, lambda: self.engine.now)
        # Host-admission mechanisms behind the actuation port: the
        # hypercall path and the fault/teardown paths all submit these.
        self.control.register(
            A.AdmitRequest.kind, lambda a: a.admission.try_commit(a.updates)
        )
        self.control.register(
            A.AdmitDecrease.kind,
            lambda a: a.admission.commit_decrease(a.updates),
        )
        self.control.register(
            A.AdmitRelease.kind, lambda a: a.admission.release(a.vcpu)
        )
        self.control.register(
            A.ShedToCapacity.kind, lambda a: a.admission.shed_to_capacity()
        )
        self.default_slack_ns = slack_ns
        #: Bandwidth shed by a PCPU failure, awaiting re-admission:
        #: (vcpu, budget_ns, period_ns) in displacement order.
        self._displaced = []

    # -- VM management -------------------------------------------------------------

    def create_vm(
        self,
        name: str,
        vcpu_count: int = 1,
        scheduler: str = "pedf",
        slack_ns: Optional[int] = None,
        max_vcpus: Optional[int] = None,
    ) -> VM:
        """Create an RTA-hosting VM wired to the cross-layer interface."""
        vm = VM(
            name,
            vcpu_count=vcpu_count,
            scheduler=scheduler,
            slack_ns=self.default_slack_ns if slack_ns is None else slack_ns,
            max_vcpus=max_vcpus,
        )
        vm.set_port(
            RTVirtHypercall(self.machine, self.scheduler, self.admission, self.shared_memory)
        )
        return self._attach(vm)

    def create_background_vm(self, name: str, processes: int = 1) -> VM:
        """Create a VM running CPU-bound non-RTA processes.

        Its VCPU receives only leftover bandwidth (paper §3.4).
        """
        vm = VM(name, vcpu_count=1, slack_ns=0)
        self._attach(vm)
        for _ in range(processes):
            vm.add_background_process()
        self.scheduler.add_background_vcpu(vm.vcpus[0])
        return vm

    def shutdown_vm(self, vm: VM) -> None:
        super().shutdown_vm(vm)
        for vcpu in vm.vcpus:
            self.control.submit(A.AdmitRelease(admission=self.admission, vcpu=vcpu))
            self.shared_memory.unmap_vcpu(vcpu)

    # -- live migration hooks ------------------------------------------------------

    def extract_vm(self, vm: VM) -> None:
        """Pause for stop-and-copy and shed the VM's bandwidth grants.

        The VCPUs keep their (budget, period) parameters — they describe
        the reservation the VM will ask of its destination — but this
        host's admission controller releases the grants immediately, so
        the freed bandwidth is usable by the remaining VMs for the rest
        of the migration.
        """
        super().extract_vm(vm)
        for vcpu in vm.vcpus:
            self.control.submit(A.AdmitRelease(admission=self.admission, vcpu=vcpu))

    def _enter_host_scheduler(self, vm: VM) -> None:
        """Re-admit a migrated-in VM through this host's controller.

        The VM's reservations are re-admitted atomically; when the
        destination cannot honour them wholesale the budgets are zeroed
        and queued on the displaced list, exactly like a capacity loss
        from a PCPU failure — the VM runs degraded until
        :meth:`recover_pcpu`-style headroom returns (or forever).
        """
        vm.set_port(
            RTVirtHypercall(self.machine, self.scheduler, self.admission, self.shared_memory)
        )
        updates = [
            (v, v.budget_ns, v.period_ns)
            for v in vm.vcpus
            if v.budget_ns > 0 and v.period_ns > 0
        ]
        if updates and not self.admission.try_commit(updates):
            for vcpu, budget_ns, period_ns in updates:
                self._displaced.append((vcpu, budget_ns, period_ns))
                vcpu.set_params(0, period_ns)
            return
        for vcpu, _, _ in updates:
            self.scheduler.add_vcpu(vcpu)

    # -- fault entry points -------------------------------------------------------

    def _do_fail_pcpu(self, pcpu_index: int) -> None:
        """Take a PCPU offline and re-negotiate admitted bandwidth.

        Capacity shrinks to the surviving PCPUs, and grants that no
        longer fit are shed newest-VCPU-first: the shed VCPU's budget is
        zeroed (it stops receiving reserved supply) and remembered for
        re-admission when capacity returns.
        """
        if self.machine.pcpus[pcpu_index].failed:
            return
        self.machine.fail_pcpu(pcpu_index)
        self.admission.set_pcpu_count(self.machine.available_count)
        by_uid = {v.uid: v for vm in self.vms for v in vm.vcpus}
        for uid in self.control.submit(A.ShedToCapacity(admission=self.admission)):
            vcpu = by_uid.get(uid)
            if vcpu is None:
                continue
            self._displaced.append((vcpu, vcpu.budget_ns, vcpu.period_ns))
            vcpu.set_params(0, vcpu.period_ns)
            self.scheduler.update_vcpu(vcpu)

    def _do_recover_pcpu(self, pcpu_index: int) -> None:
        """Bring a PCPU back and re-admit displaced bandwidth (FIFO)."""
        if not self.machine.pcpus[pcpu_index].failed:
            return
        self.machine.recover_pcpu(pcpu_index)
        self.admission.set_pcpu_count(self.machine.available_count)
        still_out = []
        for vcpu, budget_ns, period_ns in self._displaced:
            if vcpu.vm is None or vcpu.vm.machine is not self.machine:
                continue  # the VM was shut down while displaced
            if self.control.submit(
                A.AdmitRequest(
                    admission=self.admission,
                    updates=((vcpu, budget_ns, period_ns),),
                )
            ):
                vcpu.set_params(budget_ns, period_ns)
                self.scheduler.update_vcpu(vcpu)
            else:
                still_out.append((vcpu, budget_ns, period_ns))
        self._displaced = still_out

    # -- reporting ---------------------------------------------------------------------

    @property
    def total_rt_bandwidth(self) -> Fraction:
        """Currently admitted RT bandwidth in CPUs."""
        return self.admission.total_granted
