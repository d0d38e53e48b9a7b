"""Every bandwidth/placement mutation routes through the actuation port.

These tests tap the system's port with an observer and drive the normal
lifecycle paths (RTA registration, adjustment, teardown, PCPU faults),
asserting the expected typed actions — and only typed actions — carry
the mutations.
"""

from fractions import Fraction

import pytest

from repro.control import actions as A
from repro.core.system import RTVirtSystem
from repro.guest.port import LocalPort
from repro.guest.syscall import sched_adjust, sched_setattr, sched_unregister
from repro.guest.task import Task
from repro.guest.vm import VM
from repro.host.costs import ZERO_COSTS
from repro.host.machine import Machine
from repro.simcore.engine import Engine
from repro.simcore.time import msec


def observed_system(pcpus=1):
    system = RTVirtSystem(pcpu_count=pcpus, cost_model=ZERO_COSTS, slack_ns=0)
    seen = []
    system.control.observe(lambda a, r: seen.append((a.kind, r)))
    return system, seen


class TestRegistrationPath:
    def test_register_routes_inc_bw_and_admit(self):
        system, seen = observed_system()
        vm = system.create_vm("vm")
        sched_setattr(vm, "vm.rta", runtime_ns=msec(2), period_ns=msec(10))
        kinds = [k for k, _ in seen]
        assert A.IncBandwidth.kind in kinds
        assert A.AdmitRequest.kind in kinds
        # The observer audits the verdicts the mechanisms returned.
        assert all(r for k, r in seen if k == A.AdmitRequest.kind)
        assert system.admission.total_granted == Fraction(1, 5)

    def test_rejected_admit_is_observed_with_result(self):
        from repro.simcore.errors import AdmissionError

        system, seen = observed_system(pcpus=1)
        vm = system.create_vm("vm")
        sched_setattr(vm, "vm.rta0", runtime_ns=msec(8), period_ns=msec(10))
        seen.clear()
        vm2 = system.create_vm("vm2")
        with pytest.raises(AdmissionError):
            sched_setattr(vm2, "vm2.rta0", runtime_ns=msec(8), period_ns=msec(10))
        admits = [r for k, r in seen if k == A.AdmitRequest.kind]
        assert admits and not any(admits)
        assert system.admission.total_granted == Fraction(4, 5)

    def test_adjust_and_unregister_route_decrease(self):
        system, seen = observed_system()
        vm = system.create_vm("vm")
        task = sched_setattr(vm, "vm.rta", runtime_ns=msec(4), period_ns=msec(10))
        seen.clear()
        sched_adjust(vm, task, runtime_ns=msec(2), period_ns=msec(10))
        kinds = [k for k, _ in seen]
        assert A.DecBandwidth.kind in kinds or A.IncBandwidth.kind in kinds
        seen.clear()
        sched_unregister(vm, task)
        kinds = [k for k, _ in seen]
        assert A.DecBandwidth.kind in kinds
        assert system.admission.total_granted == 0


class TestLifecyclePaths:
    def test_shutdown_routes_release(self):
        system, seen = observed_system()
        vm = system.create_vm("vm")
        sched_setattr(vm, "vm.rta", runtime_ns=msec(2), period_ns=msec(10))
        seen.clear()
        system.shutdown_vm(vm)
        kinds = [k for k, _ in seen]
        assert A.AdmitRelease.kind in kinds
        assert system.admission.total_granted == 0

    def test_pcpu_fail_routes_fault_and_shed(self):
        system, seen = observed_system(pcpus=2)
        for i in range(2):
            vm = system.create_vm(f"vm{i}")
            sched_setattr(
                vm, f"vm{i}.rta", runtime_ns=msec(7), period_ns=msec(10)
            )
        seen.clear()
        system.fail_pcpu(1)
        kinds = [k for k, _ in seen]
        assert A.FailPcpu.kind in kinds
        assert A.ShedToCapacity.kind in kinds
        # The shed's executor result (revoked uids) reaches the observer.
        revoked = next(r for k, r in seen if k == A.ShedToCapacity.kind)
        assert len(revoked) == 1
        assert system.admission.total_granted <= system.admission.capacity

    def test_pcpu_recover_routes_through_port(self):
        system, seen = observed_system(pcpus=2)
        system.fail_pcpu(1)
        seen.clear()
        system.recover_pcpu(1)
        assert A.RecoverPcpu.kind in [k for k, _ in seen]


class TestNoObserverFastPath:
    def test_fresh_system_has_no_observers(self):
        system = RTVirtSystem(pcpu_count=1, cost_model=ZERO_COSTS, slack_ns=0)
        vm = system.create_vm("vm")
        sched_setattr(vm, "vm.rta", runtime_ns=msec(2), period_ns=msec(10))
        system.run(msec(20))
        # No policy attached: the port must stay on the unobserved fast
        # path for the whole run.
        assert system.control._observers == []


class TestMachineOwnsThePort:
    def test_bare_machine_routes_guest_bandwidth_requests(self):
        machine = Machine(Engine(), 1, ZERO_COSTS)
        assert machine.control is not None
        seen = []
        machine.control.observe(lambda a, r: seen.append((a.kind, r)))
        vm = VM("vm", vcpu_count=1, slack_ns=0)
        vm.set_port(LocalPort())
        machine.attach_vm(vm)
        task = Task("t", msec(2), msec(10))
        vm.register_task(task)
        vm.unregister_task(task)
        assert seen == [(A.IncBandwidth.kind, True), (A.DecBandwidth.kind, None)]
