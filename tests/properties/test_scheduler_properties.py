"""Property-based tests on scheduler invariants.

These are the paper's core guarantees, checked on randomly generated
task sets:

- DP-WRAP optimality: any set with total utilization <= m (and per-task
  utilization <= 1) meets every deadline with zero overheads;
- no VCPU ever executes on two PCPUs at once;
- cumulative allocation tracks cumulative entitlement (carry fairness);
- admission control never over-commits;
- deferring DP-WRAP's completion timers to each PCPU's horizon moves no
  event: a run with horizons matches, byte for byte, a run that pushes
  every completion at once.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import RTVirtSystem
from repro.guest.task import Task, TaskKind
from repro.host.costs import DEFAULT_COSTS, ZERO_COSTS
from repro.host.machine import Machine
from repro.simcore.events import PRIORITY_FAULT
from repro.simcore.rng import RandomSource
from repro.simcore.time import msec, usec
from repro.simcore.trace import Trace
from repro.telemetry.record import TraceRecorder
from repro.workloads.periodic import PeriodicDriver
from repro.workloads.sporadic import SporadicDriver

# (slice_ms, period_ms) pairs with utilization <= 1 each.
task_spec = st.tuples(st.integers(1, 9), st.integers(10, 40)).map(
    lambda t: (min(t[0], t[1]), t[1])
)
from tests.simcore.trace_queries import iter_overlaps, vcpu_usage_between


def _build(specs, pcpus, trace=None):
    system = RTVirtSystem(pcpu_count=pcpus, cost_model=ZERO_COSTS, slack_ns=0)
    if trace is not None:
        trace.attach(system.machine.bus)
    tasks = []
    for i, (s, p) in enumerate(specs):
        vm = system.create_vm(f"vm{i}")
        task = Task(f"t{i}", msec(s), msec(p))
        vm.register_task(task)
        tasks.append(task)
        PeriodicDriver(system.engine, vm, task).start()
    return system, tasks


@given(st.lists(task_spec, min_size=1, max_size=5))
@settings(max_examples=25, deadline=None)
def test_dpwrap_meets_all_deadlines_when_feasible(specs):
    total = sum(Fraction(s, p) for s, p in specs)
    pcpus = int(total) + (1 if total % 1 else 0) or 1
    system, tasks = _build(specs, pcpus)
    system.run(msec(400))
    system.finalize()
    assert system.miss_report().total_missed == 0


@given(st.lists(task_spec, min_size=2, max_size=5))
@settings(max_examples=15, deadline=None)
def test_no_vcpu_runs_on_two_pcpus(specs):
    total = sum(Fraction(s, p) for s, p in specs)
    pcpus = max(int(total) + (1 if total % 1 else 0), 2)
    trace = Trace()
    system, tasks = _build(specs, pcpus, trace=trace)
    system.run(msec(200))
    by_vcpu = {}
    for seg in trace.segments:
        by_vcpu.setdefault(seg.vcpu, []).append((seg.start, seg.end))
    for intervals in by_vcpu.values():
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1


@given(st.lists(task_spec, min_size=1, max_size=4))
@settings(max_examples=15, deadline=None)
def test_pcpu_never_runs_two_vcpus(specs):
    total = sum(Fraction(s, p) for s, p in specs)
    pcpus = int(total) + (1 if total % 1 else 0) or 1
    trace = Trace()
    system, tasks = _build(specs, pcpus, trace=trace)
    system.run(msec(200))
    assert list(iter_overlaps(trace)) == []


@given(st.lists(task_spec, min_size=1, max_size=4), st.integers(0, 3))
@settings(max_examples=15, deadline=None)
def test_allocation_tracks_entitlement(specs, extra_idle_pcpus):
    """Over windows aligned with its period, every busy task receives at
    least its bandwidth share (exact reservations, zero costs)."""
    total = sum(Fraction(s, p) for s, p in specs)
    pcpus = (int(total) + (1 if total % 1 else 0) or 1) + extra_idle_pcpus
    trace = Trace()
    system, tasks = _build(specs, pcpus, trace=trace)
    horizon = msec(400)
    system.run(horizon)
    system.finalize()
    for task, (s, p) in zip(tasks, specs):
        windows = horizon // msec(p)
        demand = windows * msec(s)
        usage = vcpu_usage_between(trace, task.vcpu.name, 0, windows * msec(p))
        assert usage >= demand  # every released job completed on time


@given(
    st.lists(
        st.tuples(st.integers(1, 100), st.integers(100, 1000)), min_size=1, max_size=20
    ),
    st.integers(1, 4),
)
def test_admission_never_overcommits(requests, pcpus):
    from repro.core.admission import UtilizationAdmission
    from repro.guest.vm import VM

    adm = UtilizationAdmission(pcpus)
    vm = VM("vm", vcpu_count=1, max_vcpus=len(requests) or 1)
    granted = Fraction(0)
    for i, (budget, period) in enumerate(requests):
        vcpu = vm.vcpus[0] if i == 0 else vm.hotplug_vcpu() or vm.vcpus[0]
        before = adm.granted(vcpu)
        if adm.try_commit([(vcpu, usec(budget), usec(period))]):
            granted += Fraction(budget, period) - before
    assert adm.total_granted <= pcpus
    assert adm.total_granted == granted


# (slice_ms, period_ms, phase_ms, sporadic) with utilization <= 0.9
# each.  Whole-ms phases keep completions landing on piece boundaries,
# where an off-by-one horizon test would show.
horizon_task_spec = st.tuples(
    st.integers(1, 9), st.integers(10, 40), st.integers(0, 9), st.booleans()
)


def _run_dpwrap(specs, pcpus, costs, background, fault, seed):
    """Run one DP-WRAP system for 200 ms; return what must not move.

    *fault* is None or ``(fail_ms, down_ms)``: the last PCPU fails at
    ``fail_ms`` and recovers ``down_ms`` later.
    """
    system = RTVirtSystem(pcpu_count=pcpus, cost_model=costs, slack_ns=0)
    recorder = TraceRecorder(header={"seed": seed}).attach(system.machine.bus)
    tasks = []
    for i, (s, p, phase, sporadic) in enumerate(specs):
        vm = system.create_vm(f"vm{i}")
        kind = TaskKind.SPORADIC if sporadic else TaskKind.PERIODIC
        task = Task(f"t{i}", msec(s), msec(p), kind=kind)
        vm.register_task(task)
        tasks.append(task)
        if sporadic:
            SporadicDriver(
                system.engine,
                vm,
                task,
                RandomSource(seed, task.name),
                min_interarrival_ns=msec(p),
                max_interarrival_ns=msec(3 * p),
            ).start()
        else:
            PeriodicDriver(system.engine, vm, task, phase_ns=msec(phase)).start()
    if background:
        system.create_background_vm("bg")
    if fault is not None:
        fail_ms, down_ms = fault
        engine, victim = system.engine, pcpus - 1
        engine.at(msec(fail_ms), system.fail_pcpu, victim, priority=PRIORITY_FAULT)
        recover_at = msec(fail_ms + down_ms)
        engine.at(recover_at, system.recover_pcpu, victim, priority=PRIORITY_FAULT)
    system.run(msec(200))
    system.finalize()
    return (
        recorder.close(),
        system.engine.events_processed,
        [(t.stats.released, t.stats.met, t.stats.missed) for t in tasks],
        system.machine.metrics.overhead,
    )


@given(
    st.lists(horizon_task_spec, min_size=1, max_size=4),
    st.integers(1, 4),
    st.sampled_from([ZERO_COSTS, DEFAULT_COSTS]),
    st.booleans(),
    st.none() | st.tuples(st.integers(1, 150), st.integers(1, 40)),
    st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_deferred_completions_fire_as_eager_ones(
    specs, pcpus, costs, background, fault, seed
):
    """Completion timers deferred past a PCPU's horizon change nothing.

    The same system runs twice: as built, and with ``set_horizon`` a
    no-op so every completion is pushed the moment it is armed.  The
    trace bytes, the event count, every task's outcome and the overhead
    accounting must agree exactly; same-instant ties (common under
    ``ZERO_COSTS``) included.
    """
    total = sum(Fraction(s, p) for s, p, _, _ in specs)
    pcpus = max(pcpus, int(total) + (1 if total % 1 else 0))
    deferred = _run_dpwrap(specs, pcpus, costs, background, fault, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Machine, "set_horizon", lambda self, index, time: None)
        eager = _run_dpwrap(specs, pcpus, costs, background, fault, seed)
    assert deferred[0] == eager[0]  # RTVT bytes
    assert deferred[1] == eager[1]  # events processed
    assert deferred[2] == eager[2]  # (released, met, missed) per task
    assert deferred[3] == eager[3]  # HostMetrics.overhead
