"""Unit tests for the pEDF guest scheduler: placement, adjust, reshuffle."""

from fractions import Fraction

import pytest

from repro.guest.pedf import PEDFGuestScheduler
from repro.guest.port import CrossLayerPort, LocalPort
from repro.guest.task import Task, TaskKind
from repro.guest.vm import VM
from repro.simcore.errors import AdmissionError
from repro.simcore.time import msec, usec


class RecordingPort(LocalPort):
    """LocalPort that records every request for assertions."""

    def __init__(self, reject_increases=False):
        self.increases = []
        self.decreases = []
        self.reject = reject_increases

    def request_increase(self, updates):
        self.increases.append(updates)
        if self.reject:
            return False
        return super().request_increase(updates)

    def notify_decrease(self, updates):
        self.decreases.append(updates)
        super().notify_decrease(updates)


def make_vm(vcpus=2, slack=0, max_vcpus=None, port=None):
    vm = VM("vm", vcpu_count=vcpus, slack_ns=slack, max_vcpus=max_vcpus)
    vm.set_port(port or RecordingPort())
    return vm


class TestRegistration:
    def test_first_fit_placement(self):
        vm = make_vm()
        a = Task("a", msec(6), msec(10))
        b = Task("b", msec(6), msec(10))
        vm.register_task(a)
        vm.register_task(b)
        assert a.vcpu is vm.vcpus[0]
        assert b.vcpu is vm.vcpus[1]  # does not fit with a

    def test_packing_onto_same_vcpu(self):
        vm = make_vm()
        a = Task("a", msec(3), msec(10))
        b = Task("b", msec(3), msec(10))
        vm.register_task(a)
        vm.register_task(b)
        assert a.vcpu is b.vcpu

    def test_registration_issues_inc_bw(self):
        port = RecordingPort()
        vm = make_vm(port=port)
        vm.register_task(Task("a", msec(5), msec(10)))
        assert len(port.increases) == 1
        vcpu, budget, period = port.increases[0][0]
        assert period == msec(10) and budget == msec(5)

    def test_host_rejection_raises(self):
        vm = make_vm(port=RecordingPort(reject_increases=True))
        with pytest.raises(AdmissionError) as err:
            vm.register_task(Task("a", msec(5), msec(10)))
        assert err.value.level == "host"

    def test_guest_capacity_exhausted(self):
        vm = make_vm(vcpus=1)
        vm.register_task(Task("a", msec(9), msec(10)))
        with pytest.raises(AdmissionError) as err:
            vm.register_task(Task("b", msec(5), msec(10)))
        assert err.value.level == "guest"

    def test_vcpu_params_cover_all_pinned_tasks(self):
        vm = make_vm()
        vm.register_task(Task("a", msec(2), msec(20)))  # 0.1
        vm.register_task(Task("b", msec(3), msec(10)))  # 0.3
        vcpu = vm.vcpus[0]
        assert vcpu.period_ns == msec(10)
        assert vcpu.bandwidth == Fraction(2, 5)

    def test_background_needs_no_admission(self):
        port = RecordingPort(reject_increases=True)
        vm = make_vm(port=port)
        task = vm.add_background_process()
        assert task.kind is TaskKind.BACKGROUND
        assert port.increases == []


class TestAdjust:
    def test_increase_in_place(self):
        vm = make_vm()
        t = Task("t", msec(2), msec(10))
        vm.register_task(t)
        vm.adjust_task(t, msec(4), msec(10))
        assert t.slice_ns == msec(4)
        assert t.vcpu is vm.vcpus[0]
        assert vm.vcpus[0].budget_ns == msec(4)

    def test_decrease_uses_dec_bw(self):
        port = RecordingPort()
        vm = make_vm(port=port)
        t = Task("t", msec(4), msec(10))
        vm.register_task(t)
        vm.adjust_task(t, msec(2), msec(10))
        assert len(port.decreases) == 1

    def test_move_to_other_vcpu_when_full(self):
        vm = make_vm()
        a = Task("a", msec(5), msec(10))
        t = Task("t", msec(2), msec(10))
        vm.register_task(a)
        vm.register_task(t)
        assert t.vcpu is vm.vcpus[0]
        vm.adjust_task(t, msec(7), msec(10))  # no longer fits with a
        assert t.vcpu is vm.vcpus[1]

    def test_move_issues_atomic_inc_dec(self):
        port = RecordingPort()
        vm = make_vm(port=port)
        a = Task("a", msec(5), msec(10))
        t = Task("t", msec(2), msec(10))
        vm.register_task(a)
        vm.register_task(t)
        port.increases.clear()
        vm.adjust_task(t, msec(7), msec(10))
        assert len(port.increases) == 1
        assert len(port.increases[0]) == 2  # both VCPUs in one batch

    def test_rejected_increase_restores_requirement(self):
        port = RecordingPort()
        vm = make_vm(vcpus=1, port=port)
        t = Task("t", msec(2), msec(10))
        vm.register_task(t)
        port.reject = True
        with pytest.raises(AdmissionError):
            vm.adjust_task(t, msec(5), msec(10))
        assert t.slice_ns == msec(2)

    def test_adjust_unregistered_rejected(self):
        vm = make_vm()
        from repro.simcore.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            vm.adjust_task(Task("x", 1, 2), 1, 2)


class TestUnregister:
    def test_unregister_releases_bandwidth(self):
        port = RecordingPort()
        vm = make_vm(port=port)
        t = Task("t", msec(5), msec(10))
        vm.register_task(t)
        vm.unregister_task(t)
        assert t.vcpu is None
        assert t.vm is None
        assert len(port.decreases) == 1
        assert port.decreases[0][0][1] == 0  # budget drops to zero

    def test_unregister_keeps_other_tasks_params(self):
        vm = make_vm()
        a = Task("a", msec(2), msec(10))
        b = Task("b", msec(3), msec(10))
        vm.register_task(a)
        vm.register_task(b)
        vm.unregister_task(a)
        assert vm.vcpus[0].bandwidth == Fraction(3, 10)


class TestReshuffle:
    def test_fragmented_bandwidth_repacked(self):
        # Two VCPUs at 0.6 each cannot take a 0.7 task directly, but
        # repacking (0.6 + 0.6 on one? no - FFD finds 0.7+0.6 / 0.6) works
        # when the new set fits two bins.
        vm = make_vm()
        a = Task("a", msec(3), msec(10))  # 0.3
        b = Task("b", msec(4), msec(10))  # 0.4
        vm.register_task(a)
        vm.register_task(b)  # both fit on vcpu0 (0.7)
        c = Task("c", msec(5), msec(10))  # 0.5 -> vcpu1
        vm.register_task(c)
        d = Task("d", msec(6), msec(10))  # 0.6 doesn't fit either; repack:
        vm.register_task(d)  # FFD: 0.6+0.4 / 0.5+0.3
        loads = sorted(float(sum(t.bandwidth for t in v.rt_tasks())) for v in vm.vcpus)
        assert loads == [0.8, 1.0]

    def test_reshuffle_failure_raises(self):
        vm = make_vm()
        vm.register_task(Task("a", msec(6), msec(10)))
        vm.register_task(Task("b", msec(6), msec(10)))
        with pytest.raises(AdmissionError):
            vm.register_task(Task("c", msec(6), msec(10)))


class TestHotplug:
    def test_hotplug_adds_vcpu(self):
        vm = make_vm(vcpus=1, max_vcpus=2)
        vm.register_task(Task("a", msec(6), msec(10)))
        vm.register_task(Task("b", msec(6), msec(10)))
        assert len(vm.vcpus) == 2

    def test_hotplug_respects_limit(self):
        vm = make_vm(vcpus=1, max_vcpus=1)
        vm.register_task(Task("a", msec(6), msec(10)))
        with pytest.raises(AdmissionError):
            vm.register_task(Task("b", msec(6), msec(10)))
