"""Unit tests for miss blame attribution and the mergeable reports."""

import json

from repro.telemetry import BlameReport, SpanBuilder, TelemetryBus
from repro.telemetry import events as T
from repro.telemetry.blame import (
    CAUSES,
    analyze_spans,
    attribute_miss,
    primary_cause,
)
from repro.runner.workunits import observed_smoke_plans
from repro.telemetry.blame_plan import blame_sweep


def canonical(snapshot) -> str:
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


class _Costs:
    migration_ns = 0


class _Engine:
    now = 0


class _StubMachine:
    def __init__(self):
        self.bus = TelemetryBus()
        self.costs = _Costs()
        self.engine = _Engine()


def _miss_scenario(deplete=None, shed=None):
    """One job: on-CPU 0..10 (wait), off-CPU 10..70, runs 70..80,
    completes at 80 against a deadline of 60 — lateness 20."""
    machine = _StubMachine()
    builder = SpanBuilder().attach(machine)
    bus = machine.bus
    bus.publish(
        T.JOB_RELEASE, T.JobReleaseEvent(0, "vm0", "v0", "a", 0, 0, 60)
    )
    bus.publish(T.CONTEXT_SWITCH, T.ContextSwitchEvent(0, 0, "v0", False))
    bus.publish(T.CONTEXT_SWITCH, T.ContextSwitchEvent(10, 0, None, False))
    if deplete:
        bus.publish(
            T.BUDGET_DEPLETE, T.BudgetDepleteEvent(deplete[0], "v0", 0)
        )
        bus.publish(
            T.BUDGET_REPLENISH,
            T.BudgetReplenishEvent(deplete[1], "v0", 1, 1),
        )
    if shed:
        bus.publish(
            T.ADMISSION_DECISION,
            T.AdmissionDecisionEvent(
                shed[0], "host", "shed", "v0", False, "revoked"
            ),
        )
        bus.publish(
            T.ADMISSION_DECISION,
            T.AdmissionDecisionEvent(shed[1], "host", "commit", "v0", True, ""),
        )
    bus.publish(T.CONTEXT_SWITCH, T.ContextSwitchEvent(70, 0, "v0", False))
    bus.publish(T.SEGMENT_END, T.SegmentEndEvent(80, 0, "v0", "a", 70, 80))
    bus.publish(T.JOB_COMPLETE, T.JobCompleteEvent(80, "a", 0))
    bus.publish(T.DEADLINE_MISS, T.DeadlineMissEvent(80, "a", 0, 0, 60, 20))
    return builder.finalize(end_time=100)


class TestAttribution:
    def test_lost_ns_sums_to_lateness(self):
        builder = _miss_scenario()
        (span,) = builder.spans
        lost = attribute_miss(span, builder)
        assert sum(lost.values()) == span.lateness == 20
        assert primary_cause(lost) == "host_preemption"

    def test_backward_walk_takes_latest_stall(self):
        # Off-CPU 10..70 covers the lateness (20) entirely: the latest
        # 20ns of that stall (50..70) are what the miss cost.
        builder = _miss_scenario(deplete=(50, 70))
        (span,) = builder.spans
        lost = attribute_miss(span, builder)
        assert lost == {"budget_exhaustion": 20}

    def test_throttle_outranks_depletion(self):
        # Shed and depleted windows overlap: shedding zeroed the budget,
        # so the slice blames admission, not exhaustion.
        builder = _miss_scenario(deplete=(50, 70), shed=(50, 70))
        (span,) = builder.spans
        lost = attribute_miss(span, builder)
        assert lost == {"admission_throttle": 20}

    def test_unblamed_lateness_is_overload(self):
        machine = _StubMachine()
        builder = SpanBuilder().attach(machine)
        bus = machine.bus
        bus.publish(
            T.JOB_RELEASE, T.JobReleaseEvent(0, "vm0", "v0", "a", 0, 0, 10)
        )
        bus.publish(T.CONTEXT_SWITCH, T.ContextSwitchEvent(0, 0, "v0", False))
        # The job runs its entire 0..30 window and is still 20 late.
        bus.publish(T.SEGMENT_END, T.SegmentEndEvent(30, 0, "v0", "a", 0, 30))
        bus.publish(T.JOB_COMPLETE, T.JobCompleteEvent(30, "a", 0))
        bus.publish(
            T.DEADLINE_MISS, T.DeadlineMissEvent(30, "a", 0, 0, 10, 20)
        )
        builder.finalize(end_time=50)
        (span,) = builder.spans
        lost = attribute_miss(span, builder)
        assert lost == {"overload": 20}

    def test_met_span_has_no_blame(self):
        machine = _StubMachine()
        builder = SpanBuilder().attach(machine)
        bus = machine.bus
        bus.publish(
            T.JOB_RELEASE, T.JobReleaseEvent(0, "vm0", "v0", "a", 0, 0, 100)
        )
        bus.publish(T.SEGMENT_END, T.SegmentEndEvent(20, 0, "v0", "a", 0, 20))
        bus.publish(T.JOB_COMPLETE, T.JobCompleteEvent(20, "a", 0))
        builder.finalize(end_time=50)
        assert attribute_miss(builder.spans[0], builder) == {}

    def test_primary_tie_breaks_by_taxonomy_order(self):
        lost = {"host_preemption": 5, "guest_queueing": 5}
        assert primary_cause(lost) == "host_preemption"
        assert CAUSES.index("host_preemption") < CAUSES.index("guest_queueing")


class TestBlameReport:
    def test_analyze_explains_every_miss(self):
        builder = _miss_scenario()
        report, misses = analyze_spans(builder)
        assert report.observed == report.explained == 1
        (miss,) = misses
        assert miss["primary"] != "none"
        assert sum(miss["lost_ns"].values()) == miss["lateness_ns"]

    def test_merge_is_byte_identical_to_single_stream(self):
        combined = BlameReport()
        shards = []
        for lost in (
            {"host_preemption": 10},
            {"budget_exhaustion": 7, "guest_queueing": 3},
            {"host_preemption": 2},
        ):
            combined.add_miss("a", lost)
            shard = BlameReport()
            shard.add_miss("a", lost)
            shards.append(shard.snapshot())
        merged = BlameReport.merge(shards)
        assert canonical(merged.snapshot()) == canonical(combined.snapshot())

    def test_merge_handles_empty_shards(self):
        merged = BlameReport.merge([BlameReport().snapshot()])
        assert merged.observed == 0
        assert merged.snapshot()["per_cause"] == {}


class TestBlamePlan:
    def test_plan_units_are_canonical(self):
        (plan,) = observed_smoke_plans(["robustness_jitter"], ("blame",), seed=3)
        assert [u.unit_id for u in plan.units] == [
            "robustness_jitter/RTVirt",
            "robustness_jitter/RT-Xen",
            "robustness_jitter/Credit",
        ]
        for unit in plan.units:
            assert unit.fn == "repro.experiments.robustness:run_robustness_case"
            assert unit.observers == ("blame",)
            assert dict(unit.kwargs)["seed"] == 3

    def test_sharded_sweep_runs_and_explains(self):
        # Every robustness smoke cell: blame observes exactly the misses
        # its row counts (a churned VM's abandoned jobs included).
        from repro.experiments.robustness import ROBUSTNESS_FAULTS
        from repro.runner.executor import run_plans

        ids = [f"robustness_{fault}" for fault in ROBUSTNESS_FAULTS]
        reports = run_plans(observed_smoke_plans(ids, ("blame",))).reports
        sweep = blame_sweep([cell for report in reports for cell in report.results])
        assert len(sweep.parts) == 3 * len(ids)
        for part in sweep.parts:
            blame = part["blame"]
            cell = f"{part['fault']}/{part['scheduler']}"
            assert blame["observed"] == part["missed"], cell
            assert blame["explained"] == blame["observed"], cell
            for miss in part["misses"]:
                assert miss["primary"] in CAUSES
                assert sum(miss["lost_ns"].values()) == miss["lateness_ns"]
        pcpu_fail_rtxen = sweep.parts[1]
        assert pcpu_fail_rtxen["blame"]["observed"] > 0, "pcpu_fail under RT-Xen must miss"
        for row in sweep.rows():
            assert row["top_cause"] in CAUSES or row["observed"] == 0
