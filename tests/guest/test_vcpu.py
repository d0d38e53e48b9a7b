"""Unit tests for the VCPU: pinning, dispatch, deadline publication."""

from fractions import Fraction

import pytest

from repro.guest.task import Task, TaskKind, make_background_task
from repro.guest.vcpu import VCPU
from repro.guest.vm import VM
from repro.simcore.errors import ConfigurationError
from repro.simcore.time import msec, usec


@pytest.fixture
def vm():
    return VM("vm", vcpu_count=2)


class TestParams:
    def test_set_params_and_bandwidth(self, vm):
        v = vm.vcpus[0]
        v.set_params(msec(5), msec(15))
        assert v.bandwidth == Fraction(1, 3)

    def test_unconfigured_bandwidth_zero(self, vm):
        assert vm.vcpus[0].bandwidth == 0

    def test_invalid_params_rejected(self, vm):
        with pytest.raises(ConfigurationError):
            vm.vcpus[0].set_params(-1, msec(10))
        with pytest.raises(ConfigurationError):
            vm.vcpus[0].set_params(msec(1), 0)


class TestPinning:
    def test_pin_and_unpin(self, vm):
        t = Task("t", msec(1), msec(10))
        vm.vcpus[0].pin_task(t)
        assert t.vcpu is vm.vcpus[0]
        vm.vcpus[0].unpin_task(t)
        assert t.vcpu is None

    def test_pin_moves_between_vcpus(self, vm):
        t = Task("t", msec(1), msec(10))
        vm.vcpus[0].pin_task(t)
        vm.vcpus[1].pin_task(t)
        assert t.vcpu is vm.vcpus[1]
        assert t not in vm.vcpus[0].tasks

    def test_rt_bandwidth_excludes_background(self, vm):
        vm.vcpus[0].pin_task(Task("t", msec(1), msec(4)))
        vm.vcpus[0].pin_task(make_background_task("bg"))
        rt = vm.vcpus[0].rt_tasks()
        assert sum(t.bandwidth for t in rt) == Fraction(1, 4)


class TestDispatch:
    def test_edf_order(self, vm):
        v = vm.vcpus[0]
        near = Task("near", msec(1), msec(10))
        far = Task("far", msec(1), msec(100))
        v.pin_task(far)
        v.pin_task(near)
        far.release_job(now=0)
        near.release_job(now=0)
        assert v.pick_job(0).task is near

    def test_background_runs_only_when_no_deadline_work(self, vm):
        v = vm.vcpus[0]
        bg = make_background_task("bg")
        rt = Task("rt", msec(1), msec(10))
        v.pin_task(bg)
        v.pin_task(rt)
        bg.release_job(now=0)
        assert v.pick_job(0).task is bg
        rt.release_job(now=0)
        assert v.pick_job(0).task is rt

    def test_tie_breaks_by_registration_order(self, vm):
        v = vm.vcpus[0]
        a = Task("a", msec(1), msec(10))
        b = Task("b", msec(1), msec(10))
        v.pin_task(a)
        v.pin_task(b)
        b.release_job(now=0)
        a.release_job(now=0)
        assert v.pick_job(0).task is a  # lower seq wins the deadline tie

    def test_empty_vcpu_picks_nothing(self, vm):
        assert vm.vcpus[0].pick_job(0) is None


class TestDeadlinePublication:
    def test_pending_deadline_published(self, vm):
        v = vm.vcpus[0]
        t = Task("t", msec(2), msec(10))
        v.pin_task(t)
        t.release_job(now=0)
        assert v.next_earliest_deadline(usec(1)) == msec(10)

    def test_idle_periodic_publishes_release_boundary(self, vm):
        v = vm.vcpus[0]
        t = Task("t", msec(2), msec(10))
        v.pin_task(t)
        job = t.release_job(now=0)
        job.charge(job.work)
        t.retire_job(job, msec(1))
        assert v.next_earliest_deadline(msec(1)) == msec(10)

    def test_min_over_tasks(self, vm):
        v = vm.vcpus[0]
        a = Task("a", msec(1), msec(50))
        b = Task("b", msec(1), msec(20))
        v.pin_task(a)
        v.pin_task(b)
        a.release_job(now=0)
        b.release_job(now=0)
        assert v.next_earliest_deadline(0) == msec(20)

    def test_no_rt_tasks_returns_none(self, vm):
        v = vm.vcpus[0]
        v.pin_task(make_background_task("bg"))
        assert v.next_earliest_deadline(0) is None
