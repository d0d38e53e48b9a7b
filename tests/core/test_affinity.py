"""Tests for DP-WRAP CPU affinity (paper §6 extension)."""

import pytest

from repro.core.system import RTVirtSystem
from repro.guest.task import Task
from repro.host.costs import ZERO_COSTS
from repro.simcore.errors import ConfigurationError
from repro.simcore.time import msec
from repro.simcore.trace import Trace
from repro.workloads.periodic import PeriodicDriver


def build(pcpus=2, trace=None):
    system = RTVirtSystem(pcpu_count=pcpus, cost_model=ZERO_COSTS, slack_ns=0)
    if trace is not None:
        trace.attach(system.machine.bus)
    return system


def add_rta(system, name, s_ms, p_ms):
    vm = system.create_vm(f"{name}-vm")
    task = Task(name, msec(s_ms), msec(p_ms))
    vm.register_task(task)
    PeriodicDriver(system.engine, vm, task).start()
    return vm, task


class TestAffinity:
    def test_affine_vcpu_never_migrates(self):
        trace = Trace()
        system = build(trace=trace)
        # High-utilization mix that forces wrap-around splits.
        vm_a, t_a = add_rta(system, "pinned", 8, 10)
        add_rta(system, "b", 8, 10)
        add_rta(system, "c", 3, 10)
        system.scheduler.set_affinity(vm_a.vcpus[0], 1)
        system.run(msec(100))
        pcpus = {s.pcpu for s in trace.segments_for_vcpu(vm_a.vcpus[0].name)}
        assert pcpus == {1}

    def test_affine_vcpu_meets_deadlines(self):
        system = build()
        vm_a, t_a = add_rta(system, "pinned", 8, 10)
        add_rta(system, "b", 6, 10)
        system.scheduler.set_affinity(vm_a.vcpus[0], 0)
        system.run(msec(200))
        system.finalize()
        assert t_a.stats.missed == 0

    def test_flexible_peers_still_meet_deadlines(self):
        system = build()
        vm_a, t_a = add_rta(system, "pinned", 5, 10)
        vm_b, t_b = add_rta(system, "flex-b", 7, 10)
        vm_c, t_c = add_rta(system, "flex-c", 7, 10)
        system.scheduler.set_affinity(vm_a.vcpus[0], 0)
        system.run(msec(300))
        system.finalize()
        assert t_a.stats.missed == 0
        assert t_b.stats.missed == 0
        assert t_c.stats.missed == 0

    def test_no_parallel_self_execution_with_affinity(self):
        trace = Trace()
        system = build(trace=trace)
        vm_a, _ = add_rta(system, "pinned", 4, 10)
        add_rta(system, "b", 8, 10)
        add_rta(system, "c", 7, 10)
        system.scheduler.set_affinity(vm_a.vcpus[0], 1)
        system.run(msec(100))
        by_vcpu = {}
        for seg in trace.segments:
            by_vcpu.setdefault(seg.vcpu, []).append((seg.start, seg.end))
        for intervals in by_vcpu.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1

    def test_invalid_pcpu_rejected(self):
        system = build()
        vm, _ = add_rta(system, "a", 1, 10)
        with pytest.raises(ConfigurationError):
            system.scheduler.set_affinity(vm.vcpus[0], 5)

    def test_two_affine_vcpus_share_a_pcpu(self):
        trace = Trace()
        system = build(trace=trace)
        vm_a, t_a = add_rta(system, "pin-a", 4, 10)
        vm_b, t_b = add_rta(system, "pin-b", 4, 10)
        system.scheduler.set_affinity(vm_a.vcpus[0], 0)
        system.scheduler.set_affinity(vm_b.vcpus[0], 0)
        system.run(msec(200))
        system.finalize()
        assert t_a.stats.missed == 0
        assert t_b.stats.missed == 0
        assert {s.pcpu for s in trace.segments_for_vcpu(vm_a.vcpus[0].name)} == {0}
        assert {s.pcpu for s in trace.segments_for_vcpu(vm_b.vcpus[0].name)} == {0}
