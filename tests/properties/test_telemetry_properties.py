"""Streaming aggregators must agree with the post-hoc metrics exactly.

The telemetry refactor replaced post-hoc walks (``metrics.latency``,
``metrics.deadlines``, trace scans) with online aggregators; these
properties pin the equivalence: for any sample stream, the streamed
answer equals the old batch answer — including the empty and
single-sample edges — and sharding the stream then merging snapshots
reproduces the single-stream result byte-for-byte.
"""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.deadlines import DeadlineStats, MissReport
from repro.metrics.latency import LatencyRecorder
from repro.metrics.percentiles import TAIL_PERCENTILES, SortedSamples
from repro.telemetry import (
    LatencyAggregator,
    MissRatioAggregator,
    StandardTelemetry,
    TelemetryBus,
)
from repro.telemetry import events as T

latencies_ns = st.lists(
    st.integers(min_value=0, max_value=10**9), min_size=1, max_size=300
)
outcomes = st.lists(
    st.tuples(st.sampled_from(("a", "b", "c")), st.booleans()), max_size=200
)


def canonical(snapshot) -> str:
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


def streamed_latency(samples_ns) -> LatencyAggregator:
    bus = TelemetryBus()
    agg = LatencyAggregator().attach(bus)
    for i, ns in enumerate(samples_ns):
        bus.publish(T.JOB_LATENCY, T.JobLatencyEvent(i, "t", i, ns))
    return agg


@given(latencies_ns)
def test_latency_tails_match_recorder_exactly(samples_ns):
    recorder = LatencyRecorder()
    for ns in samples_ns:
        recorder.record(ns)
    agg = streamed_latency(samples_ns)
    # Percentiles select actual sample elements, so equality is exact.
    assert agg.tail_usec() == recorder.tail_usec()
    assert agg.tail.percentile(99.9) == recorder.p999_usec()


@given(latencies_ns)
def test_latency_mean_matches_recorder(samples_ns):
    recorder = LatencyRecorder()
    for ns in samples_ns:
        recorder.record(ns)
    agg = streamed_latency(samples_ns)
    # The recorder sums the sorted sample, the online stats sum arrival
    # order; the answers agree to floating-point reassociation.
    assert math.isclose(
        agg.mean_usec(), recorder.mean_usec(), rel_tol=1e-9, abs_tol=1e-12
    )
    assert agg.stats.count == len(recorder)


def test_empty_stream_edges_match_batch_behaviour():
    agg = streamed_latency([])
    with pytest.raises(ValueError):
        agg.tail_usec()  # SortedSamples([]).tail_summary() raises the same way
    with pytest.raises(ValueError):
        SortedSamples([]).tail_summary()
    with pytest.raises(ValueError):
        agg.mean_usec()
    assert MissRatioAggregator().miss_ratio() == DeadlineStats().miss_ratio


def test_single_sample_edges():
    agg = streamed_latency([2_500])
    assert agg.tail_usec() == {p: 2.5 for p in TAIL_PERCENTILES}
    assert agg.mean_usec() == 2.5
    assert agg.stats.min == agg.stats.max == 2.5


@given(outcomes)
def test_miss_ratio_matches_deadline_stats(decisions):
    per_task = {}
    bus = TelemetryBus()
    agg = MissRatioAggregator().attach(bus)
    for i, (task, met) in enumerate(decisions):
        stats = per_task.setdefault(task, DeadlineStats())
        deadline = 10
        completion = 5 if met else 15
        stats.record_completion(0, deadline, completion)
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


@given(latencies_ns, st.lists(st.integers(0, 300), max_size=5))
def test_sharded_merge_matches_single_stream(samples_ns, cuts):
    whole = streamed_latency(samples_ns)
    bounds = sorted({min(c, len(samples_ns)) for c in cuts} | {0, len(samples_ns)})
    shards = [
        streamed_latency(samples_ns[lo:hi]).snapshot()
        for lo, hi in zip(bounds, bounds[1:])
    ]
    merged = LatencyAggregator.merge(shards)
    # Exact-mode tails merge sorted multisets, so the tail snapshot —
    # and every percentile derived from it — is byte-identical to the
    # single stream no matter where the cuts fall.
    assert canonical(merged.snapshot()["tail"]) == canonical(
        whole.snapshot()["tail"]
    )
    # The running sum reassociates across shards (float addition is not
    # associative), so totals/means agree to rounding, counters exactly.
    assert merged.stats.count == whole.stats.count
    assert merged.stats.min == whole.stats.min
    assert merged.stats.max == whole.stats.max
    assert math.isclose(
        merged.stats.total, whole.stats.total, rel_tol=1e-9, abs_tol=1e-12
    )


@given(latencies_ns, st.lists(st.integers(0, 300), max_size=5))
def test_merge_is_deterministic_for_a_fixed_sharding(samples_ns, cuts):
    # Two runs over the SAME shard decomposition merge to byte-identical
    # snapshots, however the shards were scheduled.
    bounds = sorted({min(c, len(samples_ns)) for c in cuts} | {0, len(samples_ns)})

    def merge_once():
        shards = [
            streamed_latency(samples_ns[lo:hi]).snapshot()
            for lo, hi in zip(bounds, bounds[1:])
        ]
        return LatencyAggregator.merge(shards)

    assert canonical(merge_once().snapshot()) == canonical(merge_once().snapshot())


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

    holder = {}

    def attach(system, context):
        holder["telemetry"] = StandardTelemetry(system.machine.bus)

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

    # Latency: streamed tails equal the post-hoc percentile walk over
    # the recorded response times, exactly.
    response_usec = [
        rt / 1000.0
        for stats in result.report.per_task.values()
        for rt in stats.response_times
    ]
    assert telemetry.latency.stats.count == len(response_usec)
    assert telemetry.latency.tail_usec() == SortedSamples(response_usec).tail_summary()

    # Bandwidth: every admitted VCPU consumed something, and nothing
    # consumed more than the simulated horizon.
    assert telemetry.bandwidth.consumed_ns
    for consumed in telemetry.bandwidth.consumed_ns.values():
        assert 0 < consumed <= result.duration_ns
