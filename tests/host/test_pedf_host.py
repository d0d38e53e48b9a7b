"""Tests for the partitioned-EDF host scheduler (RT-Xen's other config)."""

import pytest

from repro.guest.port import StaticPort
from repro.guest.task import Task
from repro.guest.vm import VM
from repro.host.base_system import BaseSystem
from repro.host.costs import ZERO_COSTS
from repro.host.edf import PartitionedEDFHostScheduler
from repro.simcore.errors import ConfigurationError
from repro.simcore.time import msec
from repro.simcore.trace import Trace
from repro.workloads.periodic import PeriodicDriver
from tests.simcore.trace_queries import vcpu_usage_between


def build(pcpus=2, trace=None):
    system = BaseSystem(pcpus, cost_model=ZERO_COSTS)
    if trace is not None:
        trace.attach(system.machine.bus)
    sched = PartitionedEDFHostScheduler()
    system.machine.set_host_scheduler(sched)
    return system, sched


def add_server(system, sched, name, budget_ms, period_ms, pcpu=None, drive=True):
    vm = VM(name, slack_ns=0)
    vm.set_port(StaticPort())
    system._attach(vm)
    vm.configure_vcpu(0, msec(budget_ms), msec(period_ms))
    sched.add_vcpu(vm.vcpus[0], pcpu=pcpu)
    task = Task(f"{name}.t", msec(budget_ms), msec(period_ms))
    vm.register_task(task)
    driver = PeriodicDriver(system.engine, vm, task).start() if drive else None
    return vm, task


class TestPlacement:
    def test_first_fit_decreasing_spreads(self):
        system, sched = build()
        vm_a, _ = add_server(system, sched, "a", 6, 10)
        vm_b, _ = add_server(system, sched, "b", 6, 10)
        assert sched._home[vm_a.vcpus[0].uid] != sched._home[vm_b.vcpus[0].uid]

    def test_overload_rejected(self):
        system, sched = build(pcpus=1)
        add_server(system, sched, "a", 6, 10)
        with pytest.raises(ConfigurationError):
            add_server(system, sched, "b", 6, 10)

    def test_explicit_pin(self):
        system, sched = build()
        vm, _ = add_server(system, sched, "a", 2, 10, pcpu=1)
        assert sched._home[vm.vcpus[0].uid] == 1

    def test_invalid_pin_rejected(self):
        system, sched = build()
        with pytest.raises(ConfigurationError):
            add_server(system, sched, "a", 2, 10, pcpu=7)

    def test_batch_placement_is_first_fit_decreasing(self):
        # Bandwidths 0.4, 0.4, 0.6, 0.6 on two PCPUs: FFD packs them
        # exactly (0.6+0.4 per PCPU); arrival-order first fit puts both
        # 0.4s on PCPU 0 and strands the second 0.6.
        system, sched = build(pcpus=2)
        vcpus = []
        for name, budget_ms in (("s0", 4), ("s1", 4), ("b0", 6), ("b1", 6)):
            vm = VM(name, slack_ns=0)
            vm.set_port(StaticPort())
            system._attach(vm)
            vm.configure_vcpu(0, msec(budget_ms), msec(10))
            vcpus.append(vm.vcpus[0])
        sched.add_vcpus(vcpus)
        from fractions import Fraction

        assert sched._loads[0] == sched._loads[1] == Fraction(1)
        s0, s1, b0, b1 = vcpus
        assert sched._home[b0.uid] != sched._home[b1.uid]
        assert sched._home[s0.uid] != sched._home[s1.uid]

    def test_arrival_order_single_adds_can_strand(self):
        # The single-add path packs in arrival order by design; the same
        # workload that add_vcpus() fits is rejected when added one by
        # one in unfavourable order (documents the add_vcpus contract).
        system, sched = build(pcpus=2)
        add_server(system, sched, "s0", 4, 10, drive=False)
        add_server(system, sched, "s1", 4, 10, drive=False)
        add_server(system, sched, "b0", 6, 10, drive=False)
        with pytest.raises(ConfigurationError):
            add_server(system, sched, "b1", 6, 10, drive=False)

    def test_loads_exact_across_add_remove_cycles(self):
        # Regression: float loads drifted across repeated add/remove of
        # bandwidths like 1/3, eventually refusing feasible placements.
        from fractions import Fraction

        system, sched = build(pcpus=1)
        for cycle in range(50):
            vm = VM(f"vm{cycle}", slack_ns=0)
            vm.set_port(StaticPort())
            system._attach(vm)
            vm.configure_vcpu(0, msec(1), msec(3))
            sched.add_vcpu(vm.vcpus[0])
            sched.remove_vcpu(vm.vcpus[0])
        assert sched._loads[0] == Fraction(0)
        # A full-bandwidth server still fits after the churn.
        vm = VM("full", slack_ns=0)
        vm.set_port(StaticPort())
        system._attach(vm)
        vm.configure_vcpu(0, msec(10), msec(10))
        sched.add_vcpu(vm.vcpus[0])
        assert sched._loads[0] == Fraction(1)


class TestExecution:
    def test_no_migration_ever(self):
        trace = Trace()
        system, sched = build(trace=trace)
        vms = [add_server(system, sched, f"v{i}", 3, 10)[0] for i in range(4)]
        system.run(msec(200))
        for vm in vms:
            pcpus = {s.pcpu for s in trace.segments_for_vcpu(vm.vcpus[0].name)}
            assert len(pcpus) == 1

    def test_partitioned_feasible_set_meets_deadlines(self):
        system, sched = build()
        tasks = []
        for i, (s, p) in enumerate([(5, 10), (4, 10), (5, 10), (4, 10)]):
            tasks.append(add_server(system, sched, f"v{i}", s, p)[1])
        system.run(msec(300))
        system.finalize()
        assert sum(t.stats.missed for t in tasks) == 0

    def test_edf_order_within_pcpu(self):
        trace = Trace()
        system, sched = build(pcpus=1, trace=trace)
        add_server(system, sched, "long", 2, 20, pcpu=0)
        add_server(system, sched, "short", 2, 10, pcpu=0)
        system.run(msec(5))
        assert trace.segments[0].vcpu == "short.t" or trace.segments[0].vcpu == "short.vcpu0"

    def test_background_fills_leftover(self):
        trace = Trace()
        system, sched = build(pcpus=1, trace=trace)
        add_server(system, sched, "a", 2, 10)
        bg = VM("bg", slack_ns=0)
        system._attach(bg)
        bg.add_background_process()
        sched.add_background_vcpu(bg.vcpus[0])
        system.run(msec(100))
        assert vcpu_usage_between(trace, "bg.vcpu0", 0, msec(100)) >= msec(70)

    def test_fragmentation_vs_global(self):
        """The documented pEDF-host weakness: a set schedulable under
        gEDF fails partitioned placement when bandwidth fragments."""
        system, sched = build(pcpus=2)
        add_server(system, sched, "a", 6, 10)
        add_server(system, sched, "b", 6, 10)
        with pytest.raises(ConfigurationError):
            add_server(system, sched, "c", 6, 10)  # 1.8 total, but no fit
