"""Unit and behaviour tests for the Credit scheduler."""

import pytest

from repro.baselines.credit import BOOST, OVER, UNDER, CreditScheduler, CreditSystem
from repro.guest.task import Task, TaskKind
from repro.host.costs import ZERO_COSTS
from repro.simcore.errors import ConfigurationError
from repro.simcore.time import msec, usec
from repro.simcore.trace import Trace
from tests.simcore.trace_queries import vcpu_usage_between


def make_system(pcpus=1, trace=None, **kw):
    kw.setdefault("cost_model", ZERO_COSTS)
    kw.setdefault("timeslice_ns", msec(1))
    kw.setdefault("ratelimit_ns", usec(500))
    system = CreditSystem(pcpu_count=pcpus, **kw)
    if trace is not None:
        trace.attach(system.machine.bus)
    return system


class TestConfiguration:
    def test_invalid_timing_rejected(self):
        with pytest.raises(ConfigurationError):
            CreditScheduler(timeslice_ns=0)
        with pytest.raises(ConfigurationError):
            CreditScheduler(ratelimit_ns=-1)

    def test_invalid_weight_rejected(self):
        system = make_system()
        vm = system.create_vm("a")
        for weight in (0, 65536):
            with pytest.raises(ConfigurationError):
                system.scheduler.add_vcpu(vm.vcpus[0], weight=weight)

    def test_double_add_rejected(self):
        system = make_system()
        vm = system.create_vm("a")
        with pytest.raises(ConfigurationError):
            system.scheduler.add_vcpu(vm.vcpus[0], weight=256)


class TestProportionalShare:
    def test_equal_weights_near_equal_time(self):
        trace = Trace()
        system = make_system(trace=trace)
        for i in range(2):
            system.create_background_vm(f"bg{i}")
        system.run(msec(300))
        u0 = vcpu_usage_between(trace, "bg0.vcpu0", 0, msec(300))
        u1 = vcpu_usage_between(trace, "bg1.vcpu0", 0, msec(300))
        assert abs(u0 - u1) < msec(40)

    def test_work_conserving_single_vm(self):
        trace = Trace()
        system = make_system(trace=trace)
        system.create_background_vm("solo")
        system.run(msec(50))
        assert vcpu_usage_between(trace, "solo.vcpu0", 0, msec(50)) == msec(50)

    def test_multiprocessor_spreads(self):
        trace = Trace()
        system = make_system(pcpus=2, trace=trace)
        for i in range(2):
            system.create_background_vm(f"bg{i}")
        system.run(msec(50))
        for i in range(2):
            assert vcpu_usage_between(trace, f"bg{i}.vcpu0", 0, msec(50)) > msec(45)


class TestBoost:
    def test_wake_preempts_after_ratelimit(self):
        system = make_system()
        bg = system.create_background_vm("bg")
        vm = system.create_vm("rt")
        task = Task("t", usec(100), msec(5), TaskKind.SPORADIC)
        vm.register_task(task)
        system.machine.start()
        system.engine.at(msec(10), lambda: vm.release_job(task, now=msec(10)))
        system.run_until(msec(15))
        system.finalize()
        assert task.stats.completed == 1
        # Wake latency bounded by the 500 µs ratelimit (plus the job).
        assert task.stats.response_times[0] <= usec(700)

    def test_no_boost_for_queued_vcpu(self):
        system = make_system()
        sched = system.scheduler
        vm = system.create_vm("v")
        other = system.create_background_vm("bg")
        task = Task("t", usec(100), msec(5), TaskKind.SPORADIC)
        vm.register_task(task)
        system.machine.start()
        system.run(msec(1))
        info = sched._info[vm.vcpus[0].uid]
        info.queued = True  # simulate already-runnable
        sched.on_vcpu_wake(vm.vcpus[0])
        assert info.priority != BOOST

    def test_tick_sampling_debits_runner(self):
        system = make_system()
        system.create_background_vm("bg")
        system.run(msec(25))
        assert system.scheduler.tick_samples.get("bg.vcpu0", 0) == 2

    def test_parked_idler_loses_boost_after_sample(self):
        sched = CreditScheduler()
        # Direct state transition check for the parking rule.
        system = make_system()
        vm = system.create_vm("v")
        info = system.scheduler._info[vm.vcpus[0].uid]
        info.credits = 0
        info.active = False
        info.credits -= system.scheduler.tick_ns  # sampled while parked
        assert info.credits < 0  # -> OVER at the next priority recompute


class TestLatencyShape:
    def test_contended_tail_exceeds_slo_but_mean_low(self):
        # Miniature Figure 5a: the shape must hold even in a short run.
        from repro.simcore.rng import RandomStreams
        from repro.workloads.memcached import MemcachedService
        from repro.workloads.background import add_background_vms
        from repro.baselines.configs import credit_weight_for_share

        streams = RandomStreams(5)
        system = CreditSystem(
            pcpu_count=2,
            timeslice_ns=msec(1),
            ratelimit_ns=usec(500),
            wake_overhead_ns=usec(62),
        )
        vm = system.create_vm("mc", weight=credit_weight_for_share(0.26, peers=19))
        svc = MemcachedService(system.engine, vm, streams.stream("mc")).start()
        add_background_vms(system, 19)
        system.run(msec(20_000))
        system.finalize()
        assert svc.latency.mean_usec() < 500.0
        assert svc.latency.p999_usec() > 500.0
