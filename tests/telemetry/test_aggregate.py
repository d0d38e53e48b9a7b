"""Unit tests for the streaming aggregators and their snapshot merges."""

import json
from fractions import Fraction

import pytest

from repro.metrics.percentiles import SortedSamples
from repro.telemetry import (
    BandwidthAggregator,
    LatencyAggregator,
    MissRatioAggregator,
    OnlineStats,
    StandardTelemetry,
    TailAggregator,
    TelemetryBus,
)
from repro.telemetry import events as T


def canonical(snapshot) -> str:
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


class TestOnlineStats:
    def test_running_summary(self):
        stats = OnlineStats()
        for v in (3.0, 1.0, 2.0):
            stats.add(v)
        assert stats.count == 3
        assert stats.total == 6.0
        assert stats.min == 1.0
        assert stats.max == 3.0
        assert stats.mean == 2.0

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            OnlineStats().mean

    def test_merge_skips_empty_shards(self):
        full = OnlineStats()
        full.add(5.0)
        merged = OnlineStats.merge([OnlineStats().snapshot(), full.snapshot()])
        assert merged.count == 1
        assert merged.min == merged.max == 5.0


class TestTailAggregator:
    def test_exact_matches_percentiles_module(self):
        samples = [7.0, 1.0, 9.0, 3.0, 3.0, 8.0, 2.0]
        tail = TailAggregator()
        for v in samples:
            tail.add(v)
        assert tail.tail_summary() == SortedSamples(samples).tail_summary()
        assert tail.percentile(50) == sorted(samples)[len(samples) // 2]

    def test_exact_merge_is_byte_identical_to_single_stream(self):
        samples = [float(v) for v in (5, 1, 4, 1, 5, 9, 2, 6, 5, 3)]
        whole = TailAggregator()
        for v in samples:
            whole.add(v)
        shards = []
        for chunk in (samples[:3], samples[3:4], samples[4:]):
            shard = TailAggregator()
            for v in chunk:
                shard.add(v)
            shards.append(shard.snapshot())
        merged = TailAggregator.merge(shards)
        assert canonical(merged.snapshot()) == canonical(whole.snapshot())


class TestMissRatioAggregator:
    def _hit(self, time, task):
        return T.DeadlineHitEvent(time, task, 0, 0, time)

    def _miss(self, time, task):
        return T.DeadlineMissEvent(time, task, 0, 0, time - 1, 1)

    def test_counts_from_bus(self):
        bus = TelemetryBus()
        agg = MissRatioAggregator().attach(bus)
        bus.publish(T.DEADLINE_HIT, self._hit(10, "a"))
        bus.publish(T.DEADLINE_HIT, self._hit(20, "a"))
        bus.publish(T.DEADLINE_MISS, self._miss(30, "a"))
        bus.publish(T.DEADLINE_MISS, self._miss(40, "b"))
        assert agg.decided() == 4
        assert agg.decided("a") == 3
        assert agg.miss_ratio() == 0.5
        assert agg.miss_ratio("a") == pytest.approx(1 / 3)
        assert agg.miss_ratio("b") == 1.0

    def test_empty_ratio_is_zero(self):
        agg = MissRatioAggregator()
        assert agg.miss_ratio() == 0.0
        assert agg.miss_ratio("nope") == 0.0
        assert agg.decided() == 0

    def test_detach_stops_counting(self):
        bus = TelemetryBus()
        agg = MissRatioAggregator().attach(bus)
        agg.detach()
        bus.publish(T.DEADLINE_HIT, self._hit(10, "a"))
        assert agg.decided() == 0
        assert not bus.has_subscribers(T.DEADLINE_HIT)

    def test_merge_sums_counts(self):
        a, b = MissRatioAggregator(), MissRatioAggregator()
        a.per_task["t"] = [2, 1]
        b.per_task["t"] = [1, 0]
        b.per_task["u"] = [0, 3]
        merged = MissRatioAggregator.merge([a.snapshot(), b.snapshot()])
        assert merged.per_task == {"t": [3, 1], "u": [0, 3]}


class TestLatencyAggregator:
    def test_streams_usec_from_latency_events(self):
        bus = TelemetryBus()
        agg = LatencyAggregator().attach(bus)
        latencies_ns = [5_000, 1_000, 3_000, 3_000]
        for i, ns in enumerate(latencies_ns):
            bus.publish(T.JOB_LATENCY, T.JobLatencyEvent(100 + i, "t", i, ns))
        assert agg.stats.count == 4
        assert agg.mean_usec() == 3.0
        assert agg.tail_usec() == SortedSamples([5.0, 1.0, 3.0, 3.0]).tail_summary()

    def test_merge_equals_single_stream(self):
        latencies = list(range(1, 50))
        whole = LatencyAggregator()
        for ns in latencies:
            whole._on_latency(T.JobLatencyEvent(0, "t", 0, ns * 1000))
        shards = []
        for chunk in (latencies[:10], latencies[10:]):
            shard = LatencyAggregator()
            for ns in chunk:
                shard._on_latency(T.JobLatencyEvent(0, "t", 0, ns * 1000))
            shards.append(shard.snapshot())
        merged = LatencyAggregator.merge(shards)
        assert canonical(merged.snapshot()) == canonical(whole.snapshot())


class TestBandwidthAggregator:
    def test_accumulates_and_tracks_grants(self):
        bus = TelemetryBus()
        agg = BandwidthAggregator().attach(bus)
        bus.publish(T.CPU_ACCOUNT, T.CpuAccountEvent(10, "v1", 1, 0, 400))
        bus.publish(T.CPU_ACCOUNT, T.CpuAccountEvent(20, "v1", 1, 0, 100))
        bus.publish(T.VCPU_PARAMS, T.VcpuParamsEvent(5, "v1", 1, 250, 1000))
        bus.publish(T.VCPU_PARAMS, T.VcpuParamsEvent(6, "v2", 2, 900, 1000))
        assert agg.consumed_ns == {"v1": 500}
        assert agg.granted == {"v1": Fraction(1, 4), "v2": Fraction(9, 10)}

    def test_zero_period_grants_zero(self):
        agg = BandwidthAggregator()
        agg._on_params(T.VcpuParamsEvent(0, "v", 1, 100, 0))
        assert agg.granted["v"] == 0

    def test_merge_sums_consumption_last_grant_wins(self):
        a, b = BandwidthAggregator(), BandwidthAggregator()
        a.consumed_ns["v"] = 100
        a.granted["v"] = Fraction(1, 4)
        b.consumed_ns["v"] = 50
        b.granted["v"] = Fraction(1, 2)
        merged = BandwidthAggregator.merge([a.snapshot(), b.snapshot()])
        assert merged.consumed_ns == {"v": 150}
        assert merged.granted == {"v": Fraction(1, 2)}


class TestStandardTelemetry:
    def _feed(self, bus, latencies_ns):
        for i, ns in enumerate(latencies_ns):
            kind = T.DEADLINE_HIT if ns < 4000 else T.DEADLINE_MISS
            if kind == T.DEADLINE_HIT:
                bus.publish(kind, T.DeadlineHitEvent(i, "t", i, 0, i))
            else:
                bus.publish(kind, T.DeadlineMissEvent(i, "t", i, 0, i, 1))
            bus.publish(T.JOB_LATENCY, T.JobLatencyEvent(i, "t", i, ns))
            bus.publish(T.CPU_ACCOUNT, T.CpuAccountEvent(i, "v", 1, 0, ns))

    def test_snapshot_is_json_able_and_merge_matches_single_stream(self):
        latencies = [1_000, 5_000, 2_000, 7_000, 3_000, 500]
        whole_bus = TelemetryBus()
        whole = StandardTelemetry(whole_bus)
        self._feed(whole_bus, latencies)
        json.dumps(whole.snapshot())  # must not raise

        shard_snaps = []
        for chunk in (latencies[:2], latencies[2:]):
            bus = TelemetryBus()
            telem = StandardTelemetry(bus)
            self._feed(bus, chunk)
            shard_snaps.append(telem.snapshot())
        merged = StandardTelemetry.merge_snapshots(shard_snaps)
        assert canonical(merged) == canonical(whole.snapshot())

    def test_detach_releases_every_kind(self):
        bus = TelemetryBus()
        StandardTelemetry(bus).detach()
        for kind in (
            T.DEADLINE_HIT,
            T.DEADLINE_MISS,
            T.JOB_LATENCY,
            T.CPU_ACCOUNT,
            T.VCPU_PARAMS,
        ):
            assert not bus.has_subscribers(kind)

    def test_merge_of_empty_shards_is_empty(self):
        bus = TelemetryBus()
        empty = StandardTelemetry(bus).snapshot()
        merged = StandardTelemetry.merge_snapshots([empty, empty])
        assert canonical(merged) == canonical(empty)
