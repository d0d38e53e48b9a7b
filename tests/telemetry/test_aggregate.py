"""Unit tests for the streaming aggregators and the telemetry bundle."""

import json
from fractions import Fraction

import pytest

from repro.metrics.latency import LatencyRecorder
from repro.metrics.percentiles import SortedSamples
from repro.telemetry import (
    BandwidthAggregator,
    MissRatioAggregator,
    StandardTelemetry,
    TelemetryBus,
)
from repro.telemetry import events as T


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

    def test_streams_latencies_from_the_bus(self):
        bus = TelemetryBus()
        telemetry = StandardTelemetry(bus)
        latencies_ns = [5_000, 1_000, 3_000, 3_000]
        for i, ns in enumerate(latencies_ns):
            bus.publish(T.JOB_LATENCY, T.JobLatencyEvent(100 + i, "t", i, ns))
        assert isinstance(telemetry.latency, LatencyRecorder)
        assert telemetry.latency.samples_ns == latencies_ns
        assert telemetry.latency.mean_usec() == 3.0
        assert (
            telemetry.latency.tail_usec()
            == SortedSamples([5.0, 1.0, 3.0, 3.0]).tail_summary()
        )

    def test_snapshot_keeps_arrival_order(self):
        latencies = [1_000, 5_000, 2_000, 7_000, 3_000, 500]
        bus = TelemetryBus()
        telemetry = StandardTelemetry(bus)
        self._feed(bus, latencies)
        snapshot = json.loads(json.dumps(telemetry.snapshot()))
        assert snapshot["latency"] == latencies
        assert snapshot["misses"]["per_task"] == {"t": {"met": 4, "missed": 2}}
        assert snapshot["bandwidth"]["consumed_ns"] == {"v": sum(latencies)}

    def test_detach_releases_every_kind(self):
        bus = TelemetryBus()
        telemetry = StandardTelemetry(bus)
        telemetry.detach()
        bus.publish(T.JOB_LATENCY, T.JobLatencyEvent(0, "t", 0, 1_000))
        assert telemetry.latency.samples_ns == []
        for kind in (
            T.DEADLINE_HIT,
            T.DEADLINE_MISS,
            T.JOB_LATENCY,
            T.CPU_ACCOUNT,
            T.VCPU_PARAMS,
        ):
            assert not bus.has_subscribers(kind)
