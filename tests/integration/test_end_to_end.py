"""Integration tests across the full stack."""

from fractions import Fraction

import pytest

from repro.core.system import RTVirtSystem
from repro.guest.task import Task, TaskKind
from repro.host.costs import DEFAULT_COSTS, ZERO_COSTS
from repro.simcore.rng import RandomStreams
from repro.simcore.time import msec, sec, usec
from repro.simcore.trace import Trace
from repro.workloads.memcached import MemcachedService
from repro.workloads.background import add_background_vms
from repro.workloads.periodic import PeriodicDriver
from tests.simcore.trace_queries import busy_time


class TestDynamicLifecycle:
    def test_register_adjust_unregister_cycle(self):
        system = RTVirtSystem(pcpu_count=2, cost_model=ZERO_COSTS, slack_ns=0)
        vm = system.create_vm("vm")
        t = Task("rta", msec(2), msec(10))
        vm.register_task(t)
        d = PeriodicDriver(system.engine, vm, t).start()
        system.run(msec(50))
        vm.adjust_task(t, msec(6), msec(10))
        system.run(msec(50))
        d.stop()
        system.run(msec(20))
        vm.unregister_task(t)
        system.run(msec(30))
        system.finalize()
        assert t.stats.missed == 0
        assert t.stats.met >= 9

    def test_late_arriving_vm_admitted_online(self):
        system = RTVirtSystem(pcpu_count=1, cost_model=ZERO_COSTS, slack_ns=0)
        vm1 = system.create_vm("vm1")
        t1 = Task("a", msec(4), msec(10))
        vm1.register_task(t1)
        PeriodicDriver(system.engine, vm1, t1).start()
        system.run(msec(100))
        # A second VM registers mid-run through the hypercall.
        vm2 = system.create_vm("vm2")
        t2 = Task("b", msec(4), msec(10))
        vm2.register_task(t2)
        PeriodicDriver(system.engine, vm2, t2).start()
        system.run(msec(100))
        system.finalize()
        assert t1.stats.missed == 0
        assert t2.stats.missed == 0

    def test_departure_frees_bandwidth_for_newcomer(self):
        system = RTVirtSystem(pcpu_count=1, cost_model=ZERO_COSTS, slack_ns=0)
        vm1 = system.create_vm("vm1")
        t1 = Task("a", msec(7), msec(10))
        vm1.register_task(t1)
        d1 = PeriodicDriver(system.engine, vm1, t1).start()
        system.run(msec(50))
        vm2 = system.create_vm("vm2")
        from repro.simcore.errors import AdmissionError

        with pytest.raises(AdmissionError):
            vm2.register_task(Task("b", msec(7), msec(10)))
        d1.stop()
        system.run(msec(20))
        vm1.unregister_task(t1)
        t2 = Task("b", msec(7), msec(10))
        vm2.register_task(t2)
        PeriodicDriver(system.engine, vm2, t2).start()
        system.run(msec(100))
        system.finalize()
        assert t2.stats.missed == 0


class TestMixedWorkloads:
    def test_periodic_and_sporadic_share_host(self):
        streams = RandomStreams(4)
        system = RTVirtSystem(pcpu_count=2, slack_ns=usec(500))
        vm_p = system.create_vm("periodic")
        tp = Task("video", msec(17), msec(20))
        vm_p.register_task(tp)
        PeriodicDriver(system.engine, vm_p, tp).start()
        vm_m = system.create_vm("mc", slack_ns=0)
        svc = MemcachedService(system.engine, vm_m, streams.stream("mc")).start()
        add_background_vms(system, 3)
        system.run(sec(10))
        system.finalize()
        assert tp.stats.missed == 0
        assert svc.latency.p999_usec() < 500.0

    def test_multiprocessor_vm_with_hotplug_under_load(self):
        system = RTVirtSystem(pcpu_count=4, cost_model=DEFAULT_COSTS)
        vm = system.create_vm("big", vcpu_count=1, max_vcpus=4)
        tasks = []
        for i in range(4):
            t = Task(f"t{i}", msec(6), msec(10))
            vm.register_task(t)
            tasks.append(t)
            PeriodicDriver(system.engine, vm, t).start()
        assert len(vm.vcpus) >= 3  # hotplug happened
        system.run(sec(2))
        system.finalize()
        assert sum(t.stats.missed for t in tasks) == 0


class TestAccountingConsistency:
    def test_busy_time_matches_trace(self):
        system = RTVirtSystem(pcpu_count=1, cost_model=ZERO_COSTS, slack_ns=0)
        trace = Trace().attach(system.machine.bus)
        vm = system.create_vm("vm")
        t = Task("a", msec(3), msec(10))
        vm.register_task(t)
        PeriodicDriver(system.engine, vm, t).start()
        system.run(msec(100))
        system.finalize()
        per_pcpu = system.machine.metrics.per_pcpu.values()
        assert busy_time(trace) == sum(u.busy for u in per_pcpu)

    def test_work_executed_equals_work_completed(self):
        system = RTVirtSystem(pcpu_count=1, cost_model=ZERO_COSTS, slack_ns=0)
        trace = Trace().attach(system.machine.bus)
        vm = system.create_vm("vm")
        t = Task("a", msec(3), msec(10))
        vm.register_task(t)
        PeriodicDriver(system.engine, vm, t).start()
        system.run(msec(105))
        system.finalize()
        completed_work = t.stats.completed * msec(3)
        pending_progress = sum(j.work - j.remaining for j in t.pending)
        assert busy_time(trace) == completed_work + pending_progress

    def test_determinism_across_runs(self):
        def run_once():
            streams = RandomStreams(7)
            system = RTVirtSystem(pcpu_count=2)
            vm = system.create_vm("mc", slack_ns=0)
            svc = MemcachedService(system.engine, vm, streams.stream("mc")).start()
            add_background_vms(system, 5)
            system.run(sec(5))
            system.finalize()
            return svc.latency.samples_ns

        assert run_once() == run_once()
