"""Streaming telemetry must agree with the post-hoc metrics exactly.

The telemetry refactor replaced post-hoc walks (trace scans, per-task
counters) with bus subscribers; these properties pin the equivalence:
for any sample stream, the streamed answer equals the batch answer —
including the empty and single-sample edges.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.deadlines import DeadlineStats, MissReport
from repro.metrics.latency import LatencyRecorder
from repro.metrics.percentiles import TAIL_PERCENTILES, SortedSamples
from repro.telemetry import MissRatioAggregator, StandardTelemetry, TelemetryBus
from repro.telemetry import events as T

latencies_ns = st.lists(
    st.integers(min_value=0, max_value=10**9), min_size=1, max_size=300
)
outcomes = st.lists(
    st.tuples(st.sampled_from(("a", "b", "c")), st.booleans()), max_size=200
)


def streamed_latency(samples_ns) -> LatencyRecorder:
    """The latency store of a :class:`StandardTelemetry` fed over a bus."""
    bus = TelemetryBus()
    telemetry = StandardTelemetry(bus)
    for i, ns in enumerate(samples_ns):
        bus.publish(T.JOB_LATENCY, T.JobLatencyEvent(i, "t", i, ns))
    return telemetry.latency


def recorded_latency(samples_ns) -> LatencyRecorder:
    recorder = LatencyRecorder()
    for ns in samples_ns:
        recorder.record(ns)
    return recorder


@given(latencies_ns)
def test_latency_tails_match_recorder_exactly(samples_ns):
    streamed, recorder = streamed_latency(samples_ns), recorded_latency(samples_ns)
    # Percentiles select actual sample elements, so equality is exact.
    assert streamed.samples_ns == recorder.samples_ns
    assert streamed.tail_usec() == recorder.tail_usec()
    assert streamed.p999_usec() == recorder.p999_usec()


@given(latencies_ns)
def test_latency_mean_matches_recorder(samples_ns):
    streamed, recorder = streamed_latency(samples_ns), recorded_latency(samples_ns)
    # One store, one summation order: the means agree bit for bit.
    assert streamed.mean_usec() == recorder.mean_usec()
    assert len(streamed) == len(recorder)


def test_empty_stream_edges_match_batch_behaviour():
    latency = streamed_latency([])
    with pytest.raises(ValueError):
        latency.tail_usec()  # SortedSamples([]).tail_summary() raises the same way
    with pytest.raises(ValueError):
        SortedSamples([]).tail_summary()
    with pytest.raises(ValueError):
        latency.mean_usec()
    assert MissRatioAggregator().miss_ratio() == DeadlineStats().miss_ratio


def test_single_sample_edges():
    latency = streamed_latency([2_500])
    assert latency.tail_usec() == {p: 2.5 for p in TAIL_PERCENTILES}
    assert latency.mean_usec() == 2.5
    assert latency.samples_ns == [2_500]


@given(outcomes)
def test_miss_ratio_matches_deadline_stats(decisions):
    per_task = {}
    bus = TelemetryBus()
    agg = MissRatioAggregator().attach(bus)
    for i, (task, met) in enumerate(decisions):
        stats = per_task.setdefault(task, DeadlineStats())
        deadline = 10
        completion = 5 if met else 15
        stats.record_completion(deadline, completion)
        if met:
            bus.publish(
                T.DEADLINE_HIT, T.DeadlineHitEvent(i, task, i, 0, deadline)
            )
        else:
            bus.publish(
                T.DEADLINE_MISS,
                T.DeadlineMissEvent(i, task, i, 0, deadline, completion - deadline),
            )
    report = MissReport(per_task=per_task)
    assert agg.miss_ratio() == report.overall_miss_ratio
    assert agg.decided() == report.total_met + report.total_missed
    for task, stats in per_task.items():
        assert agg.miss_ratio(task) == stats.miss_ratio
        assert agg.decided(task) == stats.decided


# -- end-to-end: a real simulation, streamed vs post-hoc ------------------------------


def _scenario_spec():
    return {
        "system": {"type": "rtvirt", "pcpus": 2},
        "duration_s": 2,
        "seed": 5,
        "vms": [
            {
                "name": "vm1",
                "tasks": [
                    {"name": "rta1", "slice_ms": 4, "period_ms": 20},
                    {"name": "rta2", "slice_ms": 3, "period_ms": 10},
                ],
            },
            {
                "name": "vm2",
                "tasks": [{"name": "rta3", "slice_ms": 5, "period_ms": 25}],
            },
        ],
    }


def test_streamed_metrics_match_post_hoc_on_a_real_run():
    from repro.scenario import run_scenario
    from repro.telemetry.observe import observing
    from repro.telemetry.spans import SpanBuilder

    holder = {}

    def attach(system, context):
        holder["telemetry"] = StandardTelemetry(system.machine.bus)
        holder["spans"] = SpanBuilder().attach(system.machine)

    with observing([attach]):
        result = run_scenario(_scenario_spec())
    telemetry = holder["telemetry"]

    # Deadline outcomes: the streamed counters must equal the per-task
    # DeadlineStats for every completed job (the scenario is feasible,
    # so no abandoned job has a passed deadline to diverge on).
    assert result.report.total_missed == 0
    for task, stats in result.report.per_task.items():
        met, missed = telemetry.misses.per_task[task]
        assert (met, missed) == (stats.met, stats.missed)
        assert telemetry.misses.miss_ratio(task) == stats.miss_ratio

    # Latency: the streamed samples are completion minus release of
    # every completed job, as the spans built from release and
    # completion events (not JOB_LATENCY) measure them.
    response_ns = [
        span.completed_at - span.release
        for span in holder["spans"].spans
        if span.completed_at is not None
    ]
    assert len(response_ns) == sum(
        stats.completed for stats in result.report.per_task.values()
    )
    assert sorted(telemetry.latency.samples_ns) == sorted(response_ns)
    response_usec = [ns / 1000.0 for ns in response_ns]
    assert telemetry.latency.tail_usec() == SortedSamples(response_usec).tail_summary()

    # Bandwidth: every admitted VCPU consumed something, and nothing
    # consumed more than the simulated horizon.
    assert telemetry.bandwidth.consumed_ns
    for consumed in telemetry.bandwidth.consumed_ns.values():
        assert 0 < consumed <= result.duration_ns
