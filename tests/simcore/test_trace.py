"""Unit tests for the execution trace."""

from repro.simcore.trace import Trace
from repro.telemetry import events as E
from repro.telemetry.bus import TelemetryBus
from tests.simcore.trace_queries import (
    busy_time,
    events_of_kind,
    iter_overlaps,
    vcpu_usage_between,
)


class TestSegments:
    def test_record_and_query_by_vcpu(self, trace):
        trace.record_segment(0, "v1", "t1", 0, 10)
        trace.record_segment(1, "v2", "t2", 5, 15)
        assert len(trace.segments_for_vcpu("v1")) == 1
        assert trace.segments_for_vcpu("v1")[0].duration == 10

    def test_empty_segment_dropped(self, trace):
        trace.record_segment(0, "v1", "t1", 10, 10)
        assert trace.segments == []

    def test_busy_time(self, trace):
        trace.record_segment(0, "v1", "t1", 0, 10)
        trace.record_segment(1, "v2", "t2", 0, 5)
        assert busy_time(trace) == 15
        assert busy_time(trace, pcpu=1) == 5


class TestUsageQueries:
    def test_usage_between_clips_to_window(self, trace):
        trace.record_segment(0, "v1", "t1", 0, 100)
        assert vcpu_usage_between(trace, "v1", 30, 60) == 30

    def test_usage_sums_disjoint_segments(self, trace):
        trace.record_segment(0, "v1", "t1", 0, 10)
        trace.record_segment(1, "v1", "t1", 50, 70)
        assert vcpu_usage_between(trace, "v1", 0, 100) == 30

    def test_usage_series_buckets(self, trace):
        trace.record_segment(0, "v1", "t1", 0, 15)
        series = trace.usage_series("v1", 0, 30, bucket=10)
        assert series == [(0, 10), (10, 5), (20, 0)]

    def test_usage_series_rejects_bad_bucket(self, trace):
        import pytest

        with pytest.raises(ValueError):
            trace.usage_series("v1", 0, 10, bucket=0)


class TestOverlapInvariant:
    def test_no_overlap_when_sequential(self, trace):
        trace.record_segment(0, "a", None, 0, 10)
        trace.record_segment(0, "b", None, 10, 20)
        assert list(iter_overlaps(trace)) == []

    def test_overlap_detected(self, trace):
        trace.record_segment(0, "a", None, 0, 10)
        trace.record_segment(0, "b", None, 5, 15)
        assert len(list(iter_overlaps(trace))) == 1

    def test_same_interval_different_pcpus_ok(self, trace):
        trace.record_segment(0, "a", None, 0, 10)
        trace.record_segment(1, "b", None, 0, 10)
        assert list(iter_overlaps(trace)) == []


class TestEventsAndNull:
    def test_point_events(self, trace):
        trace.record_event(5, "switch", 0, "v1")
        trace.record_event(9, "miss", "t1")
        assert len(events_of_kind(trace, "switch")) == 1
        assert events_of_kind(trace, "miss")[0].detail == ("t1",)


def publish_segment(bus, start, end):
    bus.publish(E.SEGMENT_END, E.SegmentEndEvent(end, 0, "v1", "t1", start, end))


class TestBusAttachment:
    def test_attach_returns_self_and_records(self):
        bus = TelemetryBus()
        trace = Trace()
        assert trace.attach(bus) is trace
        publish_segment(bus, 0, 10)
        assert [(s.vcpu, s.start, s.end) for s in trace.segments] == [("v1", 0, 10)]

    def test_attaching_twice_does_not_double_record(self):
        bus = TelemetryBus()
        trace = Trace().attach(bus).attach(bus)
        publish_segment(bus, 0, 10)
        assert len(trace.segments) == 1

    def test_detach_stops_recording(self):
        bus = TelemetryBus()
        trace = Trace().attach(bus)
        publish_segment(bus, 0, 10)
        trace.detach()
        publish_segment(bus, 10, 20)
        assert len(trace.segments) == 1
        assert not bus.has_subscribers(E.SEGMENT_END)
        trace.detach()  # a second detach is a no-op
