"""Unit tests for the EDF deferrable-server host scheduler."""

import pytest

from repro.guest.port import StaticPort
from repro.guest.task import Task
from repro.guest.vm import VM
from repro.host.base_system import BaseSystem
from repro.host.costs import ZERO_COSTS
from repro.host.edf import EDFHostScheduler
from repro.simcore.errors import ConfigurationError
from repro.simcore.time import msec
from repro.simcore.trace import Trace
from repro.workloads.periodic import PeriodicDriver
from tests.simcore.trace_queries import vcpu_usage_between


def build(pcpus=1, trace=None):
    system = BaseSystem(pcpus, cost_model=ZERO_COSTS)
    if trace is not None:
        trace.attach(system.machine.bus)
    sched = EDFHostScheduler()
    system.machine.set_host_scheduler(sched)
    return system, sched


def add_server(system, sched, name, budget_ms, period_ms, task_params=None):
    vm = VM(name, slack_ns=0)
    vm.set_port(StaticPort())
    system._attach(vm)
    vm.configure_vcpu(0, msec(budget_ms), msec(period_ms))
    sched.add_vcpu(vm.vcpus[0])
    task = None
    if task_params is not None:
        s, p = task_params
        task = Task(f"{name}.t", msec(s), msec(p))
        vm.register_task(task)
    return vm, task


class TestConfiguration:
    def test_unconfigured_vcpu_rejected(self):
        system, sched = build()
        vm = VM("v")
        system._attach(vm)
        with pytest.raises(ConfigurationError):
            sched.add_vcpu(vm.vcpus[0])

    def test_double_add_rejected(self):
        system, sched = build()
        vm, _ = add_server(system, sched, "v", 1, 10)
        with pytest.raises(ConfigurationError):
            sched.add_vcpu(vm.vcpus[0])


class TestEDFBehaviour:
    def test_earliest_deadline_runs_first(self):
        trace = Trace()
        system, sched = build(trace=trace)
        vm_a, t_a = add_server(system, sched, "a", 5, 20, task_params=(5, 20))
        vm_b, t_b = add_server(system, sched, "b", 5, 10, task_params=(5, 10))
        PeriodicDriver(system.engine, vm_a, t_a).start()
        PeriodicDriver(system.engine, vm_b, t_b).start()
        system.run(msec(10))
        first = trace.segments[0]
        assert first.vcpu == "b.vcpu0"  # deadline 10 < 20

    def test_full_utilization_edf_meets_all(self):
        system, sched = build()
        drivers = []
        for name, (s, p) in {"a": (5, 10), "b": (5, 20), "c": (5, 20)}.items():
            vm, t = add_server(system, sched, name, s, p, task_params=(s, p))
            drivers.append(PeriodicDriver(system.engine, vm, t).start())
        system.run(msec(200))
        system.finalize()
        assert system.miss_report().total_missed == 0

    def test_budget_exhaustion_preempts(self):
        trace = Trace()
        system, sched = build(trace=trace)
        # Server a has budget 2 but its task wants 5 per period: it gets
        # throttled at 2ms and b runs.
        vm_a, t_a = add_server(system, sched, "a", 2, 10, task_params=(5, 10))
        vm_b, t_b = add_server(system, sched, "b", 5, 10, task_params=(5, 10))
        PeriodicDriver(system.engine, vm_a, t_a).start()
        PeriodicDriver(system.engine, vm_b, t_b).start()
        system.run(msec(10))
        a_usage = vcpu_usage_between(trace, "a.vcpu0", 0, msec(10))
        assert a_usage == msec(2)

    def test_deferrable_retains_budget_while_idle(self):
        system, sched = build()
        # Task arrives mid-period; a deferrable server still has budget.
        vm, t = add_server(system, sched, "a", 2, 10)
        task = Task("late", msec(2), msec(4))
        vm.register_task(task)
        system.machine.start()
        system.engine.at(msec(5), lambda: vm.release_job(task, now=msec(5)))
        system.run_until(msec(10))
        system.finalize()
        assert task.stats.met == 1  # served at 5..7 with retained budget

    def test_multiprocessor_runs_m_earliest(self):
        trace = Trace()
        system, sched = build(pcpus=2, trace=trace)
        for name, p in (("a", 10), ("b", 20), ("c", 30)):
            vm, t = add_server(system, sched, name, 5, p, task_params=(5, p))
            PeriodicDriver(system.engine, vm, t).start()
        system.run(msec(5))
        running = {s.vcpu for s in trace.segments if s.start == 0}
        assert running == {"a.vcpu0", "b.vcpu0"}


class TestBackgroundFill:
    def test_leftover_goes_to_background(self):
        trace = Trace()
        system, sched = build(trace=trace)
        vm, t = add_server(system, sched, "a", 2, 10, task_params=(2, 10))
        PeriodicDriver(system.engine, vm, t).start()
        bg_vm = VM("bg", slack_ns=0)
        system._attach(bg_vm)
        bg_vm.add_background_process()
        sched.add_background_vcpu(bg_vm.vcpus[0])
        system.run(msec(10))
        assert vcpu_usage_between(trace, "bg.vcpu0", 0, msec(10)) >= msec(7)

    def test_background_rotation_shares_time(self):
        trace = Trace()
        system, sched = build(trace=trace)
        for i in range(2):
            bg_vm = VM(f"bg{i}", slack_ns=0)
            system._attach(bg_vm)
            bg_vm.add_background_process()
            sched.add_background_vcpu(bg_vm.vcpus[0])
        system.run(msec(20))
        u0 = vcpu_usage_between(trace, "bg0.vcpu0", 0, msec(20))
        u1 = vcpu_usage_between(trace, "bg1.vcpu0", 0, msec(20))
        assert u0 > 0 and u1 > 0
        assert abs(u0 - u1) <= msec(2)  # one rotation quantum

    def test_rt_preempts_background(self):
        trace = Trace()
        system, sched = build(trace=trace)
        bg_vm = VM("bg", slack_ns=0)
        system._attach(bg_vm)
        bg_vm.add_background_process()
        sched.add_background_vcpu(bg_vm.vcpus[0])
        vm, t = add_server(system, sched, "a", 5, 10)
        task = Task("rt", msec(5), msec(10))
        vm.register_task(task)
        system.machine.start()
        system.engine.at(msec(3), lambda: vm.release_job(task, now=msec(3)))
        system.run_until(msec(9))
        system.finalize()
        assert task.stats.met == 1


class TestRemoval:
    def test_remove_frees_pcpu(self):
        system, sched = build()
        vm, t = add_server(system, sched, "a", 5, 10, task_params=(5, 10))
        PeriodicDriver(system.engine, vm, t).start()
        system.run(msec(3))
        sched.remove_vcpu(vm.vcpus[0])
        assert system.machine.pcpu_of(vm.vcpus[0]) is None
        system.run(msec(5))  # no crash with the server gone
