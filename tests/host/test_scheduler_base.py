"""Tests for the HostScheduler base helpers (background fill/rotation)."""

import pytest

from repro.guest.vm import VM
from repro.host.costs import ZERO_COSTS
from repro.host.machine import Machine
from repro.host.scheduler import HostScheduler
from repro.simcore.engine import Engine
from repro.simcore.errors import SchedulingError
from repro.simcore.time import msec
from repro.simcore.trace import Trace
from tests.simcore.trace_queries import vcpu_usage_between


class BareScheduler(HostScheduler):
    """Minimal concrete scheduler exposing only the base helpers."""

    name = "bare"

    def add_vcpu(self, vcpu):
        pass

    def remove_vcpu(self, vcpu):
        pass

    def on_vcpu_wake(self, vcpu):
        pass

    def on_vcpu_idle(self, vcpu, pcpu_index):
        self.fill_with_background(pcpu_index)

    def start(self):
        for pcpu in self.machine.pcpus:
            self.fill_with_background(pcpu.index)


def build(bg_count=2, pcpus=1):
    engine = Engine()
    machine = Machine(engine, pcpus, ZERO_COSTS)
    trace = Trace().attach(machine.bus)
    sched = BareScheduler()
    machine.set_host_scheduler(sched)
    vms = []
    for i in range(bg_count):
        vm = VM(f"bg{i}", slack_ns=0)
        machine.attach_vm(vm)
        vm.add_background_process()
        sched.add_background_vcpu(vm.vcpus[0])
        vms.append(vm)
    return engine, machine, sched, trace, vms


class TestBackgroundHelpers:
    def test_engine_access_requires_attach(self):
        sched = BareScheduler()
        with pytest.raises(SchedulingError):
            _ = sched.engine

    def test_single_background_runs_continuously(self):
        engine, machine, sched, trace, vms = build(bg_count=1)
        machine.run(msec(10))
        assert vcpu_usage_between(trace, "bg0.vcpu0", 0, msec(10)) == msec(10)

    def test_rotation_alternates_vcpus(self):
        engine, machine, sched, trace, vms = build(bg_count=2)
        machine.run(msec(10))
        u0 = vcpu_usage_between(trace, "bg0.vcpu0", 0, msec(10))
        u1 = vcpu_usage_between(trace, "bg1.vcpu0", 0, msec(10))
        assert u0 > 0 and u1 > 0
        assert abs(u0 - u1) <= sched.bg_quantum_ns

    def test_next_background_skips_running(self):
        engine, machine, sched, trace, vms = build(bg_count=2, pcpus=2)
        machine.run(msec(5))
        # Both PCPUs occupied; the two VCPUs must be distinct.
        occupants = {p.running_vcpu.name for p in machine.pcpus}
        assert len(occupants) == 2

    def test_next_background_excludes(self):
        engine, machine, sched, trace, vms = build(bg_count=2)
        machine.start()
        choice = sched.next_background_vcpu(exclude={vms[0].vcpus[0], vms[1].vcpus[0]})
        assert choice is None

    def test_no_background_leaves_pcpu_idle(self):
        engine = Engine()
        machine = Machine(engine, 1, ZERO_COSTS)
        sched = BareScheduler()
        machine.set_host_scheduler(sched)
        machine.run(msec(5))
        assert machine.pcpus[0].running_vcpu is None
