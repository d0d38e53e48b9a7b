"""Unit tests for the machine model: work charging, completions, overheads."""

import pytest

from repro.guest.task import Task
from repro.guest.vm import VM
from repro.host.costs import ZERO_COSTS, CostModel
from repro.host.machine import Machine
from repro.host.scheduler import HostScheduler
from repro.simcore.engine import Engine
from repro.simcore.errors import ConfigurationError, SchedulingError
from repro.simcore.time import msec, usec
from repro.simcore.trace import Trace
from tests.simcore.trace_queries import iter_overlaps, job_latencies


class ManualScheduler(HostScheduler):
    """A host scheduler driven explicitly by the test."""

    name = "manual"

    def __init__(self):
        super().__init__()
        self.wakes = []
        self.idles = []
        self.accounted = []

    def add_vcpu(self, vcpu):
        pass

    def remove_vcpu(self, vcpu):
        pass

    def on_vcpu_wake(self, vcpu):
        self.wakes.append(vcpu.name)

    def on_vcpu_idle(self, vcpu, pcpu_index):
        self.idles.append((vcpu.name, pcpu_index))

    def account(self, vcpu, pcpu_index, elapsed):
        self.accounted.append((vcpu.name, elapsed))

    def start(self):
        pass


def build(pcpus=1, costs=ZERO_COSTS, trace=None):
    engine = Engine()
    machine = Machine(engine, pcpus, costs)
    if trace is not None:
        trace.attach(machine.bus)
    sched = ManualScheduler()
    machine.set_host_scheduler(sched)
    vm = VM("vm", vcpu_count=2)
    machine.attach_vm(vm)
    return engine, machine, sched, vm


class TestWorkCharging:
    def test_job_completes_at_exact_instant(self):
        engine, machine, sched, vm = build()
        latencies = job_latencies(machine.bus)
        t = Task("t", msec(2), msec(10))
        vm.register_task(t)
        machine.start()
        vm.release_job(t, now=0)
        machine.set_running(0, t.vcpu)
        engine.run_until(msec(5))
        assert t.stats.met == 1
        assert t.pending == []
        # Completed exactly at 2ms.
        assert latencies == [msec(2)]

    def test_idle_pcpu_charges_nothing(self):
        engine, machine, sched, vm = build()
        machine.start()
        engine.run_until(msec(5))
        machine.sync_all()
        assert all(u.busy == 0 for u in machine.metrics.per_pcpu.values())

    def test_preemption_splits_work(self):
        engine, machine, sched, vm = build()
        latencies = job_latencies(machine.bus)
        t = Task("t", msec(4), msec(20))
        vm.register_task(t)
        machine.start()
        vm.release_job(t, now=0)
        machine.set_running(0, t.vcpu)
        engine.at(msec(1), machine.set_running, 0, None)
        engine.at(msec(3), machine.set_running, 0, t.vcpu)
        engine.run_until(msec(10))
        # 1ms before preemption + 3ms after resume -> completes at 6ms.
        assert latencies == [msec(6)]

    def test_account_reports_wallclock(self):
        engine, machine, sched, vm = build()
        t = Task("t", msec(2), msec(10))
        vm.register_task(t)
        machine.start()
        vm.release_job(t, now=0)
        machine.set_running(0, t.vcpu)
        engine.run_until(msec(2))
        total = sum(e for name, e in sched.accounted if name == t.vcpu.name)
        assert total == msec(2)

    def test_vcpu_cannot_run_twice(self):
        engine, machine, sched, vm = build(pcpus=2)
        t = Task("t", msec(2), msec(10))
        vm.register_task(t)
        machine.start()
        machine.set_running(0, t.vcpu)
        with pytest.raises(SchedulingError):
            machine.set_running(1, t.vcpu)

    def test_trace_segments_recorded(self):
        trace = Trace()
        engine, machine, sched, vm = build(trace=trace)
        t = Task("t", msec(2), msec(10))
        vm.register_task(t)
        machine.start()
        vm.release_job(t, now=0)
        machine.set_running(0, t.vcpu)
        engine.run_until(msec(3))
        segs = [s for s in trace.segments if s.task == "t"]
        assert sum(s.duration for s in segs) == msec(2)
        assert list(iter_overlaps(trace)) == []


class TestNotifications:
    def test_wake_notification_reaches_scheduler(self):
        engine, machine, sched, vm = build()
        t = Task("t", msec(2), msec(10))
        vm.register_task(t)
        machine.start()
        vm.release_job(t, now=0)
        assert sched.wakes == [t.vcpu.name]

    def test_idle_reported_once(self):
        engine, machine, sched, vm = build()
        t = Task("t", msec(2), msec(10))
        vm.register_task(t)
        machine.start()
        vm.release_job(t, now=0)
        machine.set_running(0, t.vcpu)
        engine.run_until(msec(5))
        assert sched.idles == [(t.vcpu.name, 0)]

    def test_idle_not_reported_when_work_arrives_same_instant(self):
        engine, machine, sched, vm = build()
        t = Task("t", msec(2), msec(10))
        vm.register_task(t)
        machine.start()
        vm.release_job(t, now=0)
        machine.set_running(0, t.vcpu)
        # Next job released exactly at the completion instant.
        engine.at(msec(2), lambda: vm.release_job(t, now=engine.now))
        engine.run_until(msec(3))
        assert sched.idles == []

    def test_empty_vcpu_reports_idle(self):
        engine, machine, sched, vm = build()
        t = Task("t", msec(2), msec(10))
        vm.register_task(t)
        machine.start()
        machine.set_running(0, t.vcpu)  # no job released
        engine.run_until(usec(1))
        assert sched.idles == [(t.vcpu.name, 0)]


class TestOverheadWindows:
    COSTS = CostModel(
        context_switch_ns=usec(2),
        migration_ns=usec(3),
        schedule_base_ns=0,
        schedule_per_elem_ns=0,
        hypercall_ns=usec(10),
        guest_switch_ns=0,
    )

    def test_context_switch_delays_completion(self):
        engine, machine, sched, vm = build(costs=self.COSTS)
        latencies = job_latencies(machine.bus)
        t = Task("t", msec(2), msec(10))
        vm.register_task(t)
        machine.start()
        vm.release_job(t, now=0)
        machine.set_running(0, t.vcpu)
        engine.run_until(msec(5))
        assert latencies == [msec(2) + usec(2)]
        assert machine.metrics.overhead.context_switches == 1

    def test_migration_cost_added(self):
        engine, machine, sched, vm = build(pcpus=2, costs=self.COSTS)
        latencies = job_latencies(machine.bus)
        t = Task("t", msec(4), msec(20))
        vm.register_task(t)
        machine.start()
        vm.release_job(t, now=0)
        machine.set_running(0, t.vcpu)
        engine.at(msec(1), machine.set_running, 0, None)

        def migrate():
            machine.set_running(1, t.vcpu)

        engine.at(msec(1), migrate)
        engine.run_until(msec(10))
        assert machine.metrics.overhead.migrations == 1
        # 2µs initial switch + (2µs + 3µs) migration switch delay the
        # 4ms of work; the migration itself is seamless at t=1ms.
        assert latencies == [msec(4) + usec(7)]

    def test_hypercall_charges_pcpu0(self):
        engine, machine, sched, vm = build(costs=self.COSTS)
        machine.start()
        machine.charge_hypercall()
        assert machine.metrics.overhead.hypercalls == 1
        assert machine.pcpus[0].overhead_until == usec(10)

    def test_schedule_cost_recorded(self):
        engine, machine, sched, vm = build(
            costs=CostModel(schedule_base_ns=500, schedule_per_elem_ns=50)
        )
        machine.start()
        machine.charge_schedule(0, elements=10)
        assert machine.metrics.overhead.schedule_calls == 1
        assert machine.metrics.overhead.schedule_time == 1000

    def test_overhead_counted_in_usage(self):
        engine, machine, sched, vm = build(costs=self.COSTS)
        t = Task("t", msec(2), msec(10))
        vm.register_task(t)
        machine.start()
        vm.release_job(t, now=0)
        machine.set_running(0, t.vcpu)
        engine.run_until(msec(5))
        usage = machine.metrics.pcpu(0)
        assert usage.overhead == usec(2)
        assert usage.busy == msec(2)


class TestLifecycle:
    def test_run_requires_scheduler(self):
        machine = Machine(Engine(), 1, ZERO_COSTS)
        with pytest.raises(ConfigurationError):
            machine.run(100)

    def test_attach_vm_twice_rejected(self):
        engine, machine, sched, vm = build()
        with pytest.raises(ConfigurationError):
            machine.attach_vm(vm)

    def test_zero_pcpus_rejected(self):
        with pytest.raises(ConfigurationError):
            Machine(Engine(), 0, ZERO_COSTS)

    def test_finalize_accounts_pending(self):
        engine, machine, sched, vm = build()
        t = Task("t", msec(5), msec(10))
        vm.register_task(t)
        machine.start()
        vm.release_job(t, now=0)
        engine.run_until(msec(20))
        machine.finalize()
        assert t.stats.missed == 1  # never ran, deadline long past

    def test_total_cpu_time(self):
        engine, machine, sched, vm = build(pcpus=3)
        machine.start()
        engine.run_until(msec(10))
        assert machine.total_cpu_time() == 3 * msec(10)
