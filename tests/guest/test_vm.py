"""Unit tests for the VM abstraction."""

import pytest

from repro.guest.gedf import GEDFGuestScheduler
from repro.guest.task import Task, TaskKind
from repro.guest.vm import VM
from repro.simcore.errors import ConfigurationError
from repro.simcore.time import msec


class TestConstruction:
    def test_vcpu_count(self):
        assert len(VM("v", vcpu_count=3).vcpus) == 3

    def test_zero_vcpus_rejected(self):
        with pytest.raises(ConfigurationError):
            VM("v", vcpu_count=0)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigurationError):
            VM("v", scheduler="cfs")

    def test_max_vcpus_below_initial_rejected(self):
        with pytest.raises(ConfigurationError):
            VM("v", vcpu_count=2, max_vcpus=1)

    def test_gedf_selectable(self):
        vm = VM("v", scheduler="gedf")
        assert isinstance(vm.guest_scheduler, GEDFGuestScheduler)


class TestTaskManagement:
    def test_double_registration_rejected(self):
        vm = VM("v")
        t = Task("t", msec(1), msec(10))
        vm.register_task(t)
        with pytest.raises(ConfigurationError):
            VM("w").register_task(t)

    def test_unregister_foreign_task_rejected(self):
        vm = VM("v")
        with pytest.raises(ConfigurationError):
            vm.unregister_task(Task("t", 1, 2))

    def test_rt_and_background_partition(self):
        vm = VM("v")
        vm.register_task(Task("t", msec(1), msec(10)))
        vm.add_background_process()
        assert len(vm.rt_tasks) == 1
        assert len(vm.background_tasks) == 1

    def test_configure_vcpu_static(self):
        vm = VM("v")
        vm.configure_vcpu(0, msec(5), msec(10))
        assert vm.vcpus[0].budget_ns == msec(5)
        assert vm.vcpus[0].admitted


class TestReleasePaths:
    def test_release_requires_now_before_attach(self):
        vm = VM("v")
        t = Task("t", msec(1), msec(10))
        vm.register_task(t)
        with pytest.raises(ConfigurationError):
            vm.release_job(t)
        job = vm.release_job(t, now=msec(5))
        assert job.release == msec(5)

    def test_release_foreign_task_rejected(self):
        vm = VM("v")
        with pytest.raises(ConfigurationError):
            vm.release_job(Task("t", 1, 2), now=0)

    def test_wake_targets_pedf(self):
        vm = VM("v", vcpu_count=2)
        t = Task("t", msec(1), msec(10))
        vm.register_task(t)
        assert vm.wake_targets(t) == [t.vcpu]

    def test_wake_targets_gedf_all_vcpus(self):
        vm = VM("v", vcpu_count=2, scheduler="gedf")
        t = Task("t", msec(1), msec(10))
        vm.register_task(t)
        assert vm.wake_targets(t) == vm.vcpus


class TestSyscalls:
    """The ``sched_setattr()`` lifecycle, served by the VM methods."""

    def test_register_task_registers(self):
        vm = VM("v")
        t = Task("rta", msec(2), msec(10))
        vm.register_task(t)
        assert t.vm is vm
        assert t.kind is TaskKind.PERIODIC

    def test_register_sporadic_task(self):
        vm = VM("v")
        t = Task("rta", msec(2), msec(10), TaskKind.SPORADIC)
        vm.register_task(t)
        assert t.kind is TaskKind.SPORADIC

    def test_adjust_task(self):
        vm = VM("v")
        t = Task("rta", msec(2), msec(10))
        vm.register_task(t)
        vm.adjust_task(t, msec(3), msec(10))
        assert t.slice_ns == msec(3)

    def test_unregister_task(self):
        vm = VM("v")
        t = Task("rta", msec(2), msec(10))
        vm.register_task(t)
        vm.unregister_task(t)
        assert t.vm is None

    def test_vcpu_count_tracks_hotplug(self):
        vm = VM("v", vcpu_count=1, max_vcpus=3)
        assert len(vm.vcpus) == 1
        vm.register_task(Task("a", msec(6), msec(10)))
        vm.register_task(Task("b", msec(6), msec(10)))
        assert len(vm.vcpus) == 2


class TestGEDFDispatch:
    def test_gedf_steals_across_vcpus(self):
        vm = VM("v", vcpu_count=2, scheduler="gedf")
        a = Task("a", msec(1), msec(10))
        vm.register_task(a)
        a.release_job(now=0)
        # Any VCPU can pick the job under gEDF.
        other = vm.vcpus[1] if a.vcpu is vm.vcpus[0] else vm.vcpus[0]
        assert vm.pick_job(other, 0).task is a

    def test_gedf_claim_prevents_double_run(self):
        vm = VM("v", vcpu_count=2, scheduler="gedf")
        a = Task("a", msec(1), msec(10))
        vm.register_task(a)
        a.release_job(now=0)
        job0 = vm.pick_job(vm.vcpus[0], 0)
        job1 = vm.pick_job(vm.vcpus[1], 0)
        assert job0 is not None and job1 is None

    def test_gedf_claim_released_on_deschedule(self):
        vm = VM("v", vcpu_count=2, scheduler="gedf")
        a = Task("a", msec(1), msec(10))
        vm.register_task(a)
        a.release_job(now=0)
        assert vm.pick_job(vm.vcpus[0], 0) is not None
        vm.on_vcpu_descheduled(vm.vcpus[0])
        assert vm.pick_job(vm.vcpus[1], 0) is not None

    def test_gedf_earliest_deadline_wins(self):
        vm = VM("v", vcpu_count=1, scheduler="gedf")
        far = Task("far", msec(1), msec(100))
        near = Task("near", msec(1), msec(10))
        vm.register_task(far)
        vm.register_task(near)
        far.release_job(now=0)
        near.release_job(now=0)
        assert vm.pick_job(vm.vcpus[0], 0).task is near

    def test_gedf_vcpu_has_work_any_task(self):
        vm = VM("v", vcpu_count=2, scheduler="gedf")
        a = Task("a", msec(1), msec(10))
        vm.register_task(a)
        a.release_job(now=0)
        assert vm.vcpu_has_work(vm.vcpus[0])
        assert vm.vcpu_has_work(vm.vcpus[1])
