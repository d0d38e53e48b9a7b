"""Unit tests for each fault injector, across system types."""

import pytest

from repro.baselines.credit import CreditSystem
from repro.baselines.rtxen import RTXenSystem
from repro.core.system import RTVirtSystem
from repro.faults import (
    At,
    ClockJitter,
    FaultContext,
    HypercallDelay,
    HypercallDrop,
    PcpuFail,
    PcpuRecover,
    Scenario,
    VmChurn,
    WorkloadSurge,
)
from repro.guest.task import Task
from repro.host.costs import ZERO_COSTS
from repro.simcore.rng import RandomStreams
from repro.simcore.time import msec, sec
from repro.workloads.periodic import PeriodicDriver
from tests.simcore.trace_queries import events_of_kind


def rtvirt(pcpu_count=2, **kw):
    kw.setdefault("cost_model", ZERO_COSTS)
    kw.setdefault("slack_ns", 0)
    return RTVirtSystem(pcpu_count=pcpu_count, **kw)


def loaded(system, name="vm", slice_ns=msec(2), period_ns=msec(10)):
    """One VM with one driven RTA; returns (vm, task)."""
    task = Task(f"{name}.t", slice_ns, period_ns)
    if hasattr(system, "register_rta"):
        vm = system.create_vm(name, interfaces=[(slice_ns * 2, period_ns)])
        system.register_rta(vm, task)
    else:
        vm = system.create_vm(name)
        vm.register_task(task)
    PeriodicDriver(system.engine, vm, task).start()
    return vm, task


class TestPcpuFaults:
    def test_fail_evicts_and_blocks_placement(self):
        system = rtvirt(pcpu_count=2)
        loaded(system)
        ctx = FaultContext(system)
        system.run(msec(5))
        PcpuFail(1).apply(ctx)
        assert system.machine.pcpus[1].failed
        assert system.machine.pcpus[1].running_vcpu is None
        assert system.machine.available_count == 1

    def test_fail_sheds_overcommitted_bandwidth(self):
        system = rtvirt(pcpu_count=2)
        vm1, _ = loaded(system, "vm1", slice_ns=msec(7), period_ns=msec(10))
        vm2, _ = loaded(system, "vm2", slice_ns=msec(7), period_ns=msec(10))
        ctx = FaultContext(system)
        system.run(msec(1))
        PcpuFail(1).apply(ctx)
        # 1.4 CPUs granted no longer fit one PCPU: the newer VCPU is shed.
        assert system.admission.total_granted <= system.admission.capacity
        assert vm2.vcpus[0].budget_ns == 0

    def test_recover_readmits_displaced_bandwidth(self):
        system = rtvirt(pcpu_count=2)
        loaded(system, "vm1", slice_ns=msec(7), period_ns=msec(10))
        vm2, _ = loaded(system, "vm2", slice_ns=msec(7), period_ns=msec(10))
        ctx = FaultContext(system)
        system.run(msec(1))
        PcpuFail(1).apply(ctx)
        assert vm2.vcpus[0].budget_ns == 0
        PcpuRecover(1).apply(ctx)
        assert not system.machine.pcpus[1].failed
        assert vm2.vcpus[0].budget_ns == msec(7)

    def test_fault_log_and_trace(self):
        from repro.simcore.trace import Trace

        system = rtvirt(pcpu_count=2)
        trace = Trace().attach(system.machine.bus)
        loaded(system)
        ctx = FaultContext(system)
        system.run(msec(1))
        PcpuFail(0).apply(ctx)
        assert [(k, d) for _, k, d in ctx.log] == [("pcpu_fail", (0,))]
        kinds = [e.detail[0] for e in events_of_kind(trace, "fault")]
        assert "pcpu_fail" in kinds

    @pytest.mark.parametrize("build", [
        lambda: RTXenSystem(pcpu_count=2, host="gedf"),
        lambda: RTXenSystem(pcpu_count=2, host="pedf"),
        lambda: CreditSystem(pcpu_count=2),
    ])
    def test_baselines_survive_fail_recover(self, build):
        system = build()
        loaded(system)
        scenario = Scenario([At(msec(3), PcpuFail(1)), At(msec(7), PcpuRecover(1))])
        scenario.install(system)
        system.run(msec(20))
        assert not system.machine.pcpus[1].failed
        assert system.miss_report().total_released > 0


class TestVmChurn:
    @pytest.mark.parametrize("build", [
        rtvirt,
        lambda: RTXenSystem(pcpu_count=2, host="gedf"),
        lambda: CreditSystem(pcpu_count=2),
    ])
    def test_boot_and_shutdown(self, build):
        system = build()
        loaded(system)
        before = len(system.vms)
        ctx = Scenario(
            [At(msec(2), VmChurn(lifetime_ns=msec(6), period_ns=msec(4),
                                 slice_ns=msec(1)))]
        ).install(system)
        system.run(msec(20))
        kinds = [d for _, k, d in ctx.log if k == "vm_churn"]
        # boot records carry (slice, period, lifetime) for trace replay
        assert ("churn0", "boot", msec(1), msec(4), msec(6)) in kinds
        assert ("churn0", "shutdown") in kinds
        assert len(system.vms) == before

    def test_retired_tasks_keep_their_stats(self):
        system = rtvirt(pcpu_count=2)
        Scenario(
            [At(0, VmChurn(lifetime_ns=msec(10), period_ns=msec(5),
                           slice_ns=msec(1)))]
        ).install(system)
        system.run(msec(20))
        report = system.miss_report()
        assert "churn0.rta" in report.per_task
        assert report.per_task["churn0.rta"].released >= 2

    def test_rejected_boot_is_logged_and_torn_down(self):
        system = rtvirt(pcpu_count=1)
        loaded(system, slice_ns=msec(9), period_ns=msec(10))
        ctx = Scenario(
            [At(msec(1), VmChurn(slice_ns=msec(5), period_ns=msec(10)))]
        ).install(system)
        system.run(msec(5))
        assert any(
            k == "vm_churn" and "rejected" in d for _, k, d in ctx.log
        )
        assert [vm.name for vm in system.vms] == ["vm"]


class TestCrossLayerFaults:
    def test_drop_window_rejects_and_freezes(self):
        system = rtvirt(pcpu_count=2)
        vm, _ = loaded(system)
        ctx = FaultContext(system)
        system.run(msec(1))
        HypercallDrop(duration_ns=msec(10)).apply(ctx)
        with pytest.raises(Exception):
            vm.register_task(Task("late", msec(1), msec(10)))
        assert vm.port.dropped >= 1

    def test_drop_serves_stale_snapshot(self):
        system = rtvirt(pcpu_count=2)
        vm, _ = loaded(system)
        system.run(msec(1))
        vcpu = vm.vcpus[0]
        now = system.engine.now
        frozen_value = system.shared_memory.read(vcpu, now)
        ctx = FaultContext(system)
        HypercallDrop(duration_ns=msec(50)).apply(ctx)
        system.run(msec(20))
        assert system.shared_memory.read(vcpu, system.engine.now) == frozen_value

    def test_delay_defers_parameter_installation(self):
        system = rtvirt(pcpu_count=2)
        vm, task = loaded(system)
        ctx = FaultContext(system)
        system.run(msec(1))
        HypercallDelay(delay_ns=msec(2), duration_ns=msec(10)).apply(ctx)
        old_budget = vm.vcpus[0].budget_ns
        vm.adjust_task(task, msec(4), msec(10))
        assert vm.vcpus[0].budget_ns == old_budget  # not yet installed
        system.run(system.engine.now + msec(3))
        assert vm.vcpus[0].budget_ns != old_budget
        assert vm.port.delayed >= 1

    def test_noop_on_baselines(self):
        system = CreditSystem(pcpu_count=2)
        loaded(system)
        ctx = FaultContext(system)
        HypercallDrop(duration_ns=msec(5)).apply(ctx)
        HypercallDelay().apply(ctx)
        assert [k for _, k, _ in ctx.log] == ["hypercall_drop", "hypercall_delay"]


class TestWorkloadSurge:
    def test_surge_scales_then_reverts(self):
        system = rtvirt(pcpu_count=2)
        vm, task = loaded(system, slice_ns=msec(2), period_ns=msec(10))
        Scenario(
            [At(msec(5), WorkloadSurge("vm", num=2, den=1, duration_ns=msec(10)))]
        ).install(system)
        system.run(msec(7))
        assert task.slice_ns == msec(4)
        system.run(msec(20))
        assert task.slice_ns == msec(2)

    def test_missing_vm_is_logged(self):
        system = rtvirt()
        ctx = FaultContext(system)
        surge = WorkloadSurge("ghost")
        surge.apply(ctx)
        assert ctx.log[0][1:] == (
            "workload_surge",
            ("ghost", "no-such-vm", surge.num, surge.den, surge.duration_ns),
        )


class TestClockJitter:
    def test_jitter_enabled_then_disabled(self):
        system = rtvirt(pcpu_count=2)
        loaded(system)
        ctx = FaultContext(system, RandomStreams(3))
        Scenario(
            [At(msec(2), ClockJitter(max_ns=msec(1), duration_ns=msec(10)))]
        ).install(system, RandomStreams(3))
        system.run(msec(5))
        scheduler = system.machine.host_scheduler
        assert scheduler._jitter_max == msec(1)
        system.run(msec(20))
        assert scheduler._jitter_max == 0
        assert scheduler.timer_jitter() == 0

    def test_jitter_perturbs_replenishment(self):
        miss_profiles = []
        for max_ns in (0, msec(5)):
            system = RTXenSystem(pcpu_count=1, host="gedf")
            task = Task("t", msec(5), msec(10))
            vm = system.create_vm("vm", interfaces=[(msec(6), msec(10))])
            system.register_rta(vm, task)
            PeriodicDriver(system.engine, vm, task).start()
            if max_ns:
                Scenario([At(0, ClockJitter(max_ns=max_ns))]).install(
                    system, RandomStreams(5)
                )
            system.run(sec(2))
            miss_profiles.append(system.miss_report().total_missed)
        assert miss_profiles[0] == 0
        assert miss_profiles[1] > 0  # late replenishment starves the server

    def test_seeded_jitter_is_deterministic(self):
        def run(seed):
            system = rtvirt(pcpu_count=2)
            loaded(system)
            Scenario([At(0, ClockJitter(max_ns=msec(1)))]).install(
                system, RandomStreams(seed)
            )
            system.run(msec(200))
            report = system.miss_report()
            return (report.total_released, report.total_missed)

        assert run(7) == run(7)
