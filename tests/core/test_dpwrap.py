"""Unit and behaviour tests for the DP-WRAP host scheduler."""

from fractions import Fraction

import pytest

from repro.core.system import RTVirtSystem
from repro.guest.task import Task, TaskKind
from repro.host.costs import ZERO_COSTS
from repro.simcore.errors import ConfigurationError
from repro.simcore.time import msec, usec
from repro.simcore.trace import Trace
from repro.workloads.periodic import PeriodicDriver
from tests.simcore.trace_queries import (
    events_of_kind,
    job_latencies,
    vcpu_usage_between,
)


def system_with(pcpus=1, trace=None, **kw):
    kw.setdefault("cost_model", ZERO_COSTS)
    kw.setdefault("slack_ns", 0)
    system = RTVirtSystem(pcpu_count=pcpus, **kw)
    if trace is not None:
        trace.attach(system.machine.bus)
    return system


def add_rta(system, name, s_ms, p_ms, kind=TaskKind.PERIODIC, drive=True):
    vm = system.create_vm(f"{name}-vm")
    task = Task(name, msec(s_ms), msec(p_ms), kind)
    vm.register_task(task)
    driver = None
    if drive and kind is TaskKind.PERIODIC:
        driver = PeriodicDriver(system.engine, vm, task).start()
    return vm, task, driver


class TestConfiguration:
    def test_invalid_min_slice_rejected(self):
        from repro.core.dpwrap import DPWrapScheduler

        with pytest.raises(ConfigurationError):
            DPWrapScheduler(min_global_slice_ns=0)

    def test_idle_slice_below_min_rejected(self):
        from repro.core.dpwrap import DPWrapScheduler

        with pytest.raises(ConfigurationError):
            DPWrapScheduler(min_global_slice_ns=usec(250), idle_slice_ns=usec(100))


class TestOptimality:
    def test_full_utilization_one_cpu(self):
        system = system_with()
        for name, (s, p) in {"a": (5, 15), "b": (5, 10), "c": (5, 30)}.items():
            add_rta(system, name, s, p)
        system.run(msec(600))
        system.finalize()
        assert system.miss_report().total_missed == 0
        assert system.total_rt_bandwidth == 1

    def test_full_utilization_two_cpus(self):
        system = system_with(pcpus=2)
        # Total utilization exactly 2.0 with a task that must migrate.
        for name, (s, p) in {
            "a": (8, 10),
            "b": (8, 10),
            "c": (4, 10),
        }.items():
            add_rta(system, name, s, p)
        system.run(msec(500))
        system.finalize()
        assert system.miss_report().total_missed == 0

    def test_non_harmonic_high_utilization(self):
        system = system_with(pcpus=2, slack_ns=usec(500))
        for name, (s, p) in {
            "a": (11, 21),
            "b": (26, 43),
            "c": (40, 60),
            "d": (13, 100),
        }.items():
            add_rta(system, name, s, p)
        system.run(msec(2000))
        system.finalize()
        assert system.miss_report().total_missed == 0

    def test_admission_rejects_overload(self):
        system = system_with()
        add_rta(system, "a", 6, 10)
        vm = system.create_vm("b-vm")
        from repro.simcore.errors import AdmissionError

        with pytest.raises(AdmissionError):
            vm.register_task(Task("b", msec(5), msec(10)))


class TestWrapMechanics:
    def test_migrations_bounded_per_slice(self):
        trace = Trace()
        system = system_with(pcpus=2, trace=trace)
        for name, (s, p) in {"a": (8, 10), "b": (8, 10), "c": (4, 10)}.items():
            add_rta(system, name, s, p)
        system.run(msec(100))
        migrations = [e for e in events_of_kind(trace, "switch") if e.detail[2]]
        slices = system.scheduler.slices_computed
        # DP-WRAP bound: at most m-1 = 1 split vcpu per slice; each split
        # causes at most 2 migration-flagged switches (away and back).
        assert len(migrations) <= 2 * slices

    def test_no_parallel_execution_of_one_vcpu(self):
        trace = Trace()
        system = system_with(pcpus=2, trace=trace)
        for name, (s, p) in {"a": (8, 10), "b": (8, 10), "c": (4, 10)}.items():
            add_rta(system, name, s, p)
        system.run(msec(100))
        by_vcpu = {}
        for s in trace.segments:
            by_vcpu.setdefault(s.vcpu, []).append((s.start, s.end))
        for intervals in by_vcpu.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1, "vcpu ran on two PCPUs simultaneously"

    def test_allocation_tracks_bandwidth(self):
        trace = Trace()
        system = system_with(trace=trace)
        vm, task, _ = add_rta(system, "a", 3, 10)
        # A competing reservation so 'a' cannot borrow all slack.
        add_rta(system, "b", 7, 10)
        system.run(msec(100))
        usage = vcpu_usage_between(trace, vm.vcpus[0].name, 0, msec(100))
        assert usage == msec(30)

    def test_min_global_slice_enforced(self):
        system = system_with(min_global_slice_ns=usec(250))
        add_rta(system, "a", 1, 2)  # deadlines every 2 ms
        system.run(msec(50))
        # Slices cannot be shorter than 250 µs: at most 50ms/250µs of them.
        assert system.scheduler.slices_computed <= msec(50) // usec(250) + 2

    def test_idle_system_uses_idle_slice(self):
        system = system_with(idle_slice_ns=msec(10))
        system.run(msec(100))
        assert system.scheduler.slices_computed <= 12


class TestSporadicSupport:
    def test_sporadic_reservation_meets_deadline(self):
        system = system_with()
        vm, task, _ = add_rta(
            system, "sp", 2, 10, kind=TaskKind.SPORADIC, drive=False
        )
        add_rta(system, "bulk", 7, 10)  # competing periodic load
        system.machine.start()
        for arrival in (msec(3), msec(17), msec(31)):
            system.engine.at(
                arrival, lambda a=arrival: vm.release_job(task, now=a)
            )
        system.run_until(msec(60))
        system.finalize()
        assert task.stats.met == 3

    def test_sporadic_wake_borrows_slack_quickly(self):
        system = system_with(pcpus=1)
        vm, task, _ = add_rta(system, "sp", 1, 100, kind=TaskKind.SPORADIC, drive=False)
        bg = system.create_background_vm("bg")
        latencies = job_latencies(system.machine.bus)
        system.machine.start()
        system.engine.at(msec(50), lambda: vm.release_job(task, now=msec(50)))
        system.run_until(msec(60))
        system.finalize()
        # With only background competition, the job runs immediately.
        assert task.stats.met == 1
        assert latencies[0] <= msec(2)


class TestWorkConservation:
    def test_background_gets_leftover(self):
        trace = Trace()
        system = system_with(trace=trace)
        add_rta(system, "a", 2, 10)
        system.create_background_vm("bg")
        system.run(msec(100))
        bg_usage = vcpu_usage_between(trace, "bg.vcpu0", 0, msec(100))
        assert bg_usage >= msec(75)

    def test_rt_waiter_preferred_over_background(self):
        trace = Trace()
        system = system_with(trace=trace)
        # Two RT VMs at 0.4 each; when one finishes early its donated
        # time goes to the other RT VM before background.
        vm_a, task_a, _ = add_rta(system, "a", 4, 10)
        system.create_background_vm("bg")
        system.run(msec(100))
        a_usage = vcpu_usage_between(trace, vm_a.vcpus[0].name, 0, msec(100))
        assert a_usage == msec(40)  # exactly its demand; rest to bg

    def test_dynamic_update_repartitions(self):
        system = system_with()
        vm, task, driver = add_rta(system, "a", 2, 10)
        system.run(msec(50))
        vm.adjust_task(task, msec(5), msec(10))
        system.run(msec(50))
        system.finalize()
        assert system.miss_report().total_missed == 0
        assert vm.vcpus[0].bandwidth == Fraction(1, 2)

    def test_unregister_frees_bandwidth(self):
        system = system_with()
        vm, task, driver = add_rta(system, "a", 6, 10)
        system.run(msec(30))
        driver.stop()
        system.run(msec(15))  # drain
        vm.unregister_task(task)
        vm2, task2, _ = add_rta(system, "b", 6, 10)
        system.run(msec(50))
        system.finalize()
        assert task2.stats.missed == 0
