"""Unit tests for causal span stitching and the interval tiling."""

import json
import os

import pytest

from repro.telemetry import SpanBuilder, TelemetryBus
from repro.telemetry import events as T
from repro.telemetry.spans import merge_intervals, subtract_intervals, total
from tests.telemetry.interval_oracle import clip_intervals

#: The scenario ``tools/check_determinism.py --observed`` probes.
PROBE_SPEC = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "scenarios", "probe.json"
)


def probe_spec(system: str, seed: int, duration_s: float = 0.5) -> dict:
    """The probe scenario under *system* at *seed*, *duration_s* long."""
    with open(PROBE_SPEC) as fh:
        spec = json.load(fh)
    spec["system"]["type"] = system
    return dict(spec, seed=seed, duration_s=duration_s)


class _Costs:
    def __init__(self, migration_ns=0):
        self.migration_ns = migration_ns


class _Engine:
    def __init__(self, now=0):
        self.now = now


class _StubMachine:
    """Just enough machine surface for SpanBuilder.attach()."""

    def __init__(self, migration_ns=0):
        self.bus = TelemetryBus()
        self.costs = _Costs(migration_ns)
        self.engine = _Engine()


class TestIntervalHelpers:
    def test_merge_coalesces_and_sorts(self):
        assert merge_intervals([(5, 7), (1, 3), (2, 4), (7, 7)]) == [
            (1, 4),
            (5, 7),
        ]

    def test_clip_bounds_and_merges(self):
        assert clip_intervals([(0, 5), (8, 12)], 3, 10) == [(3, 5), (8, 10)]
        assert clip_intervals([(0, 5)], 5, 10) == []

    def test_subtract_splits_base(self):
        assert subtract_intervals([(0, 10)], [(2, 4), (6, 8)]) == [
            (0, 2),
            (4, 6),
            (8, 10),
        ]
        assert subtract_intervals([(0, 10)], [(0, 10)]) == []

    def test_clip_plus_subtract_partition_the_base(self):
        base = [(0, 100)]
        cut = [(10, 30), (50, 60)]
        inside = clip_intervals(cut, 0, 100)
        outside = subtract_intervals(base, inside)
        assert total(inside) + total(outside) == total(base)


def _release(bus, time, task, job, deadline, vcpu="v0"):
    bus.publish(
        T.JOB_RELEASE,
        T.JobReleaseEvent(time, "vm0", vcpu, task, job, time, deadline),
    )
    bus.publish(
        T.ENQUEUE, T.EnqueueEvent(time, "vm0", vcpu, task, job, "local")
    )


def _switch(bus, time, pcpu, vcpu, migrated=False):
    bus.publish(
        T.CONTEXT_SWITCH, T.ContextSwitchEvent(time, pcpu, vcpu, migrated)
    )


def _segment(bus, start, end, task, pcpu=0, vcpu="v0"):
    bus.publish(
        T.SEGMENT_END, T.SegmentEndEvent(end, pcpu, vcpu, task, start, end)
    )


class TestSpanBuilder:
    def test_tiles_window_into_wait_run_preempted(self):
        machine = _StubMachine()
        builder = SpanBuilder().attach(machine)
        bus = machine.bus
        _release(bus, 0, "a", 0, deadline=100)
        _switch(bus, 0, 0, "v0")  # carrier on CPU: 0..40
        _segment(bus, 10, 40, "a")
        _switch(bus, 40, 0, None)  # carrier off CPU: 40..60
        _switch(bus, 60, 0, "v0")
        _segment(bus, 60, 80, "a")
        bus.publish(T.JOB_COMPLETE, T.JobCompleteEvent(80, "a", 0))
        bus.publish(T.DEADLINE_HIT, T.DeadlineHitEvent(80, "a", 0, 0, 100))
        builder.finalize(end_time=200)
        (span,) = builder.spans
        assert span.completed_at == 80
        assert not span.missed and not span.incomplete
        assert span.buckets == {
            "run": 50,
            "wait": 10,
            "preempted": 20,
            "migrating": 0,
        }
        assert sum(span.buckets.values()) == span.end - span.release == 80
        assert span.enqueue_time == 0 and span.enqueue_scope == "local"

    def test_miss_event_marks_span(self):
        machine = _StubMachine()
        builder = SpanBuilder().attach(machine)
        bus = machine.bus
        _release(bus, 0, "a", 0, deadline=70)
        _switch(bus, 0, 0, "v0")
        _segment(bus, 0, 80, "a")
        bus.publish(T.JOB_COMPLETE, T.JobCompleteEvent(80, "a", 0))
        bus.publish(
            T.DEADLINE_MISS, T.DeadlineMissEvent(80, "a", 0, 0, 70, 10)
        )
        builder.finalize(end_time=100)
        (span,) = builder.spans
        assert span.missed and span.tardiness == 10 and span.lateness == 10

    def test_abandoned_span_counts_as_miss(self):
        machine = _StubMachine()
        builder = SpanBuilder().attach(machine)
        _release(machine.bus, 0, "a", 0, deadline=50)
        builder.finalize(end_time=100)
        (span,) = builder.spans
        assert span.incomplete and span.missed
        assert span.end == 100 and span.lateness == 50
        # Never ran, carrier never on CPU: the whole window is preempted.
        assert span.buckets["run"] == 0
        assert sum(span.buckets.values()) == 100

    def test_migration_window_classifies_gap(self):
        machine = _StubMachine(migration_ns=5)
        builder = SpanBuilder().attach(machine)
        bus = machine.bus
        _release(bus, 0, "a", 0, deadline=100)
        _switch(bus, 0, 0, "v0")
        _segment(bus, 0, 20, "a")
        _switch(bus, 20, 0, None)
        _switch(bus, 20, 1, "v0", migrated=True)
        bus.publish(
            T.MIGRATION, T.MigrationEvent(20, "v0", 0, 1, "host")
        )
        _segment(bus, 25, 40, "a", pcpu=1)
        bus.publish(T.JOB_COMPLETE, T.JobCompleteEvent(40, "a", 0))
        builder.finalize(end_time=50)
        (span,) = builder.spans
        assert span.buckets == {
            "run": 35,
            "migrating": 5,
            "preempted": 0,
            "wait": 0,
        }

    def test_fifo_attribution_across_two_jobs(self):
        machine = _StubMachine()
        builder = SpanBuilder().attach(machine)
        bus = machine.bus
        _switch(bus, 0, 0, "v0")
        _release(bus, 0, "a", 0, deadline=100)
        _release(bus, 10, "a", 1, deadline=110)
        _segment(bus, 0, 30, "a")  # job 0 runs
        bus.publish(T.JOB_COMPLETE, T.JobCompleteEvent(30, "a", 0))
        _segment(bus, 30, 50, "a")  # job 1 runs
        bus.publish(T.JOB_COMPLETE, T.JobCompleteEvent(50, "a", 1))
        builder.finalize(end_time=60)
        first, second = builder.spans
        assert first.buckets["run"] == 30
        assert second.buckets["run"] == 20
        assert second.buckets["wait"] == 20  # queued behind job 0
        for span in builder.spans:
            assert sum(span.buckets.values()) == span.end - span.release

    def test_depleted_and_throttled_windows_tracked(self):
        machine = _StubMachine()
        builder = SpanBuilder().attach(machine)
        bus = machine.bus
        bus.publish(T.BUDGET_DEPLETE, T.BudgetDepleteEvent(10, "v0", 0))
        bus.publish(
            T.BUDGET_REPLENISH, T.BudgetReplenishEvent(30, "v0", 5, 5)
        )
        bus.publish(
            T.ADMISSION_DECISION,
            T.AdmissionDecisionEvent(40, "host", "shed", "v1", False, "revoked"),
        )
        bus.publish(
            T.ADMISSION_DECISION,
            T.AdmissionDecisionEvent(70, "host", "commit", "v1", True, "8/10"),
        )
        builder.finalize(end_time=100)
        assert builder.windows("budget_exhaustion", "v0", 0, 100) == [(10, 30)]
        assert builder.windows("admission_throttle", "v1", 0, 100) == [(40, 70)]
        assert builder.windows("budget_exhaustion", "v0", 20, 50) == [(20, 30)]
        assert builder.windows("admission_throttle", "v0", 0, 100) == []

    def test_detach_stops_consuming(self):
        machine = _StubMachine()
        builder = SpanBuilder().attach(machine)
        builder.detach()
        _release(machine.bus, 0, "a", 0, deadline=10)
        assert builder.spans == []
        assert not machine.bus.has_subscribers(T.JOB_RELEASE)

    def test_finalize_requires_end_time_when_unattached(self):
        with pytest.raises(ValueError):
            SpanBuilder().finalize()


class TestSystemIntegration:
    def test_real_run_produces_exact_spans(self):
        from repro.scenario import run_scenario
        from repro.telemetry.observe import observing

        holder = {}

        def attach(system, context):
            holder["spans"] = SpanBuilder().attach(system.machine)

        with observing([attach]):
            result = run_scenario(probe_spec("rtvirt", seed=1))
        builder = holder["spans"].finalize(result.duration_ns)
        assert builder.spans, "deadline-bearing jobs must produce spans"
        for span in builder.spans:
            assert sum(span.buckets.values()) == span.end - span.release
        completed = [s for s in builder.spans if not s.incomplete]
        assert completed and all(s.buckets["run"] > 0 for s in completed)
