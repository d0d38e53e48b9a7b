"""Property-based tests on the baseline schedulers' invariants."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.credit import CreditSystem
from repro.baselines.rtxen import RTXenSystem
from repro.guest.task import Task
from repro.host.costs import ZERO_COSTS
from repro.simcore.time import msec
from repro.simcore.trace import Trace
from repro.workloads.periodic import PeriodicDriver
from tests.simcore.trace_queries import busy_time, vcpu_usage_between

server_spec = st.tuples(st.integers(1, 5), st.integers(6, 20))


@given(st.lists(server_spec, min_size=1, max_size=4))
@settings(max_examples=20, deadline=None)
def test_deferrable_server_never_exceeds_budget(specs):
    """No server receives more than budget per period (supply cap)."""
    system = RTXenSystem(pcpu_count=1, cost_model=ZERO_COSTS)
    trace = Trace().attach(system.machine.bus)
    vms = []
    for i, (budget, period) in enumerate(specs):
        vm = system.create_vm(f"v{i}", interfaces=[(msec(budget), msec(period))])
        # A greedy task demanding the whole period keeps the server busy.
        task = Task(f"t{i}", msec(period), msec(period))
        system.register_rta(vm, task)
        PeriodicDriver(system.engine, vm, task).start()
        vms.append((vm, budget, period))
    horizon = msec(200)
    system.run(horizon)
    for vm, budget, period in vms:
        for k in range(horizon // msec(period)):
            window = (k * msec(period), (k + 1) * msec(period))
            usage = vcpu_usage_between(trace, vm.vcpus[0].name, *window)
            assert usage <= msec(budget)


@given(st.lists(server_spec, min_size=2, max_size=4))
@settings(max_examples=15, deadline=None)
def test_edf_host_work_conserving(specs):
    """With a backlogged server present, the PCPU never idles while any
    server has both budget and work."""
    total_bw = sum(Fraction(b, p) for b, p in specs)
    system = RTXenSystem(pcpu_count=1, cost_model=ZERO_COSTS)
    trace = Trace().attach(system.machine.bus)
    for i, (budget, period) in enumerate(specs):
        vm = system.create_vm(f"v{i}", interfaces=[(msec(budget), msec(period))])
        task = Task(f"t{i}", msec(period), msec(period))
        system.register_rta(vm, task)
        PeriodicDriver(system.engine, vm, task).start()
    horizon = msec(100)
    system.run(horizon)
    busy = busy_time(trace, pcpu=0)
    expected = min(float(total_bw), 1.0) * horizon
    assert busy >= expected * 0.95


@given(st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=10, deadline=None)
def test_credit_proportional_share(weight_ratio, vm_pairs):
    """Long-run CPU time tracks weights for CPU-bound VMs."""
    system = CreditSystem(
        pcpu_count=1, cost_model=ZERO_COSTS, timeslice_ns=msec(1)
    )
    heavy = system.create_vm("heavy", weight=256 * weight_ratio)
    heavy.add_background_process()
    light = system.create_vm("light", weight=256)
    light.add_background_process()
    trace = Trace().attach(system.machine.bus)
    horizon = msec(600)
    system.run(horizon)
    heavy_time = vcpu_usage_between(trace, "heavy.vcpu0", 0, horizon)
    light_time = vcpu_usage_between(trace, "light.vcpu0", 0, horizon)
    assert heavy_time + light_time >= horizon * 0.99  # work conserving
    if weight_ratio > 1:
        assert heavy_time > light_time * 0.9
