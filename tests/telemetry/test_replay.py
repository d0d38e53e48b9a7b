"""Tests for what-if replay: stimulus reconstruction from traces.

A recorded trace must replay bit-exactly under the same scheduler (rows
and trace hash identical), and replaying the *same* recorded stimulus
under a different scheduler is the what-if experiment the flight
recorder exists for: the diff between the two traces localizes exactly
where and how the schedulers part ways.
"""

import pytest

from repro.runner.workunits import (
    execute_unit,
    observed_plan,
    observed_smoke_plans,
    scenario_plan,
)
from repro.telemetry.diff import diff_traces
from repro.telemetry.record import TraceReader
from repro.telemetry.replay import canonical_scheduler, replay_trace


def record_robustness_case(fault, scheduler):
    """One robustness smoke cell (1 simulated second, seed 11) run with
    the ``record`` observer: its ``{"data", "rows"}`` output."""
    (plan,) = observed_smoke_plans([f"robustness_{fault}"], ("record",))
    (unit,) = [u for u in plan.units if u.unit_id.endswith(f"/{scheduler}")]
    _, outputs = execute_unit(unit)
    (recorded,) = outputs["record"]
    return recorded


def record_scenario(spec, name):
    """*spec* run as a scenario unit with the ``record`` observer."""
    (unit,) = observed_plan(scenario_plan(spec, name), ("record",)).units
    _, outputs = execute_unit(unit)
    (recorded,) = outputs["record"]
    return recorded


def overloadable_spec():
    """Feasible under RTVirt; the background VM starves RTAs on Credit.

    RTVirt admission control rejects genuinely overloaded specs, so
    overload is induced scheduler-side instead: the background VM only
    gets slack under RTVirt but competes round-robin under Credit.
    """
    return {
        "system": {"type": "rtvirt", "pcpus": 1, "slack_us": 0},
        "duration_s": 2,
        "seed": 7,
        "vms": [
            {
                "name": "vm1",
                "tasks": [
                    {
                        "name": "sp1",
                        "slice_ms": 2,
                        "period_ms": 10,
                        "kind": "sporadic",
                        "min_interarrival_ms": 10,
                        "max_interarrival_ms": 25,
                    },
                    {"name": "p1", "slice_ms": 2, "period_ms": 10},
                ],
            },
            {
                "name": "vm2",
                "tasks": [
                    {
                        "name": "sp2",
                        "slice_ms": 2,
                        "period_ms": 12,
                        "kind": "sporadic",
                        "min_interarrival_ms": 12,
                        "max_interarrival_ms": 30,
                    },
                    {"name": "p2", "slice_ms": 2, "period_ms": 15},
                ],
            },
            {"name": "bg", "background": True, "processes": 2},
        ],
    }


class TestSameSchedulerRoundTrip:
    @pytest.mark.parametrize(
        "fault,scheduler",
        [
            ("pcpu_fail", "RTVirt"),
            ("vm_churn", "Credit"),
            ("surge", "RT-Xen"),
        ],
    )
    def test_robustness_cell_replays_exactly(self, fault, scheduler):
        recorded = record_robustness_case(fault, scheduler)
        result = replay_trace(recorded["data"], record=True)
        assert result.scheduler == scheduler
        assert result.rows_match()
        assert result.rows == recorded["rows"]
        replay_reader = result.reader()
        assert (
            replay_reader.trace_hash == TraceReader(recorded["data"]).trace_hash
        )

    def test_scenario_replays_exactly(self):
        recorded = record_scenario(overloadable_spec(), name="xsched")
        result = replay_trace(recorded["data"], record=True)
        assert result.rows_match()
        assert (
            result.reader().trace_hash == TraceReader(recorded["data"]).trace_hash
        )


class TestWhatIfReplay:
    @pytest.fixture(scope="class")
    def recorded(self):
        return record_scenario(overloadable_spec(), name="xsched")["data"]

    def test_credit_replay_diverges_with_miss_deltas(self, recorded):
        """Credit starves the RTAs the RTVirt recording kept feasible."""
        result = replay_trace(recorded, scheduler="Credit", record=True)
        diff = diff_traces(TraceReader(recorded), result.reader())
        assert not diff.identical
        assert diff.divergence_index is not None
        assert diff.event_a is not None and diff.event_b is not None
        deltas = {row["task"]: row for row in diff.task_deltas}
        assert set(deltas) == {"sp1", "sp2", "p1", "p2"}
        # Same stimulus: release counts must match event for event.
        for row in deltas.values():
            assert row["released_a"] == row["released_b"]
        # The recording had no misses; Credit must introduce some on
        # every task — the headline what-if result.
        for row in deltas.values():
            assert row["missed_a"] == 0
            assert row["miss_delta"] > 0

    def test_rtxen_replay_diverges_but_keeps_deadlines(self, recorded):
        """RT-Xen schedules differently yet misses nothing extra."""
        result = replay_trace(recorded, scheduler="RT-Xen", record=True)
        diff = diff_traces(TraceReader(recorded), result.reader())
        assert not diff.identical
        assert diff.divergence_index is not None
        for row in diff.task_deltas:
            assert row["miss_delta"] == 0

    def test_robustness_what_if_under_credit(self):
        recorded = record_robustness_case("pcpu_fail", "RTVirt")["data"]
        result = replay_trace(recorded, scheduler="Credit", record=True)
        diff = diff_traces(TraceReader(recorded), result.reader())
        assert diff.divergence_index is not None
        worst = max(diff.task_deltas, key=lambda row: row["miss_delta"])
        assert worst["miss_delta"] > 0


class TestReplayErrors:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            canonical_scheduler("bogus")

    def test_replay_rejects_unknown_scheduler(self):
        recorded = record_robustness_case("pcpu_fail", "RTVirt")["data"]
        with pytest.raises(ValueError):
            replay_trace(recorded, scheduler="bogus")
