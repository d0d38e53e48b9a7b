"""Tests for the flight-recorder trace format (record/read/merge).

The RTVT format must round-trip every telemetry event kind exactly —
timestamps, interned strings, nested tuples and the tagged-scalar
``HypercallEvent.flag`` — seek by time through the trailer checkpoints,
and merge shard traces into byte-stable sectioned files.
"""

import struct

import pytest

from repro.simcore.errors import TraceFormatError
from repro.telemetry import TelemetryBus, TraceReader, TraceRecorder, merge_traces
from repro.telemetry import events as T
from repro.telemetry.record import (
    CHECKPOINT_EVERY,
    EVENT_CLASSES,
    TraceWriter,
)


def sample_events():
    """One instance of every kind, exercising each field codec."""
    return [
        (T.JOB_RELEASE, T.JobReleaseEvent(10, "vm0", "vm0.v0", "vm0.t", 0, 10, 20)),
        (T.ENQUEUE, T.EnqueueEvent(11, "vm0", None, "vm0.t", 0, "global")),
        (T.CONTEXT_SWITCH, T.ContextSwitchEvent(12, 0, "vm0.v0", True)),
        (T.MIGRATION, T.MigrationEvent(13, "vm0.v0", 0, 1, "host")),
        (T.SEGMENT_END, T.SegmentEndEvent(14, 0, "vm0.v0", "vm0.t", 12, 14)),
        (T.DEADLINE_HIT, T.DeadlineHitEvent(15, "vm0.t", 0, 10, 20)),
        (T.DEADLINE_MISS, T.DeadlineMissEvent(16, "vm0.t", 1, 10, 14, 2)),
        (T.JOB_LATENCY, T.JobLatencyEvent(17, "vm0.t", 0, 7)),
        (T.JOB_COMPLETE, T.JobCompleteEvent(18, "vm0.t", 0)),
        (T.HYPERCALL, T.HypercallEvent(19, "vm0.v0", "increase", "granted", 3, 5, 9)),
        (T.BUDGET_REPLENISH, T.BudgetReplenishEvent(20, "vm0.v0", 5, 5)),
        (T.BUDGET_DEPLETE, T.BudgetDepleteEvent(21, "vm0.v0", -3)),
        (
            T.ADMISSION_DECISION,
            T.AdmissionDecisionEvent(
                22, "host", "commit", "vm9.v0", True, "fits", "vm9", "t0"
            ),
        ),
        (T.FAULT_INJECTED, T.FaultInjectedEvent(23, "pcpu_fail", (0, None))),
        (T.FAULT_RECOVERED, T.FaultRecoveredEvent(24, "pcpu_recover", (0, None))),
        (T.CPU_ACCOUNT, T.CpuAccountEvent(25, "vm0.v0", 3, 0, 100)),
        (T.VCPU_PARAMS, T.VcpuParamsEvent(26, "vm0.v0", 9, 4, 10)),
    ]


def record(events, header=None):
    writer = TraceWriter(header=header)
    for kind, event in events:
        writer.write_event(kind, event)
    return writer.close()


class TestFormat:
    def test_every_kind_has_a_class(self):
        assert set(EVENT_CLASSES) == set(T.ALL_KINDS)

    def test_round_trip_all_kinds(self):
        events = sample_events()
        reader = TraceReader(record(events, header={"who": "test"}))
        assert reader.header == {"who": "test"}
        assert reader.event_count == len(events)
        assert list(reader.events()) == events

    def test_counts_and_hash_stable(self):
        events = sample_events()
        a, b = TraceReader(record(events)), TraceReader(record(events))
        assert a.trace_hash == b.trace_hash
        assert a.counts[T.JOB_RELEASE] == 1
        assert sum(a.counts.values()) == len(events)

    def test_kind_filter(self):
        events = sample_events() * 3
        reader = TraceReader(record(events))
        got = list(reader.events(kinds=(T.HYPERCALL,)))
        assert len(got) == 3
        assert all(kind == T.HYPERCALL for kind, _ in got)

    def test_hypercall_flag_string_survives(self):
        """The flag field carries enum *values* (strings) at runtime."""
        events = [
            (T.HYPERCALL, T.HypercallEvent(5, "v", "increase", "granted", "S", 1, 2)),
            (T.HYPERCALL, T.HypercallEvent(6, "v", "decrease", "dropped", 7, 0, 0)),
        ]
        reader = TraceReader(record(events))
        assert list(reader.events()) == events

    def test_nested_tuple_payloads(self):
        events = [
            (
                T.FAULT_INJECTED,
                T.FaultInjectedEvent(1, "vm_churn", ("c0", "boot", 1, 2, 3)),
            ),
            (
                T.FAULT_INJECTED,
                T.FaultInjectedEvent(2, "surge", ("vm1", 3.5, (1, "n"), True)),
            ),
        ]
        reader = TraceReader(record(events))
        assert list(reader.events()) == events

    def test_time_must_not_go_backwards_is_not_required(self):
        """Deltas are signed: out-of-order stamps still round-trip."""
        events = [
            (T.ENQUEUE, T.EnqueueEvent(100, "a", None, "t", 0, "local")),
            (T.ENQUEUE, T.EnqueueEvent(50, "a", None, "t", 1, "local")),
        ]
        assert list(TraceReader(record(events)).events()) == events

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "t.rtvt")
        writer = TraceWriter(path, header={"n": 1})
        for kind, event in sample_events():
            writer.write_event(kind, event)
        assert writer.close() is None
        reader = TraceReader(path)
        assert list(reader.events()) == sample_events()


class TestSeek:
    def test_checkpoint_seek_matches_full_scan(self):
        many = [
            (T.ENQUEUE, T.EnqueueEvent(i * 10, f"vm{i % 7}", None, "t", i, "local"))
            for i in range(3 * CHECKPOINT_EVERY)
        ]
        reader = TraceReader(record(many))
        assert len(reader.checkpoints) >= 2
        start = CHECKPOINT_EVERY * 10 + 5
        want = [(k, e) for k, e in many if e.time >= start]
        assert list(reader.events(start_time=start)) == want

    def test_start_time_filter_without_checkpoints(self):
        events = sample_events()
        reader = TraceReader(record(events))
        got = list(reader.events(start_time=20))
        assert got == [(k, e) for k, e in events if e.time >= 20]


class TestRecorder:
    def test_recorder_streams_bus_events(self):
        bus = TelemetryBus()
        recorder = TraceRecorder(header={"h": 1})
        recorder.attach(bus)
        bus.publish(T.ENQUEUE, T.EnqueueEvent(1, "vm", None, "t", 0, "local"))
        bus.publish(T.JOB_LATENCY, T.JobLatencyEvent(2, "t", 0, 9))
        recorder.detach()
        bus.publish(T.ENQUEUE, T.EnqueueEvent(3, "vm", None, "t", 1, "local"))  # dropped
        data = recorder.close()
        reader = TraceReader(data)
        assert reader.event_count == 2
        assert reader.meta == {}

    def test_detach_restores_zero_subscriber_bus(self):
        bus = TelemetryBus()
        recorder = TraceRecorder()
        recorder.attach(bus)
        recorder.detach()
        recorder.close()
        assert not any(bus.has_subscribers(kind) for kind in T.ALL_KINDS)


class TestMerge:
    def test_merge_is_byte_stable(self):
        part_a = record(sample_events())
        part_b = record(sample_events()[:5])
        merged1 = merge_traces([("a", part_a), ("b", part_b)], header={"m": 1})
        merged2 = merge_traces([("a", part_a), ("b", part_b)], header={"m": 1})
        assert merged1 == merged2
        reader = TraceReader(merged1)
        assert reader.event_count == len(sample_events()) + 5
        assert [s["label"] for s in reader.sections] == ["a", "b"]

    def test_merge_order_changes_hash(self):
        part_a = record(sample_events())
        part_b = record(sample_events()[:5])
        ab = TraceReader(merge_traces([("a", part_a), ("b", part_b)]))
        ba = TraceReader(merge_traces([("b", part_b), ("a", part_a)]))
        assert ab.trace_hash != ba.trace_hash

    def test_merged_trace_iterates_all_parts(self):
        part = record(sample_events())
        merged = merge_traces([("x", part), ("y", part)])
        got = list(TraceReader(merged).events())
        assert got == sample_events() * 2

    def test_section_counts_accumulate(self):
        part = record(sample_events())
        reader = TraceReader(merge_traces([("x", part), ("y", part)]))
        assert reader.counts[T.ENQUEUE] == 2

    def test_unknown_magic_rejected(self):
        with pytest.raises(ValueError):
            TraceReader(b"NOPE" + b"\x00" * 32)


class TestIntegrity:
    """A damaged trace raises TraceFormatError instead of reading wrong."""

    def test_truncated_trace_rejected(self):
        data = record(sample_events())
        with pytest.raises(TraceFormatError, match="truncated"):
            TraceReader(data[: len(data) // 2])

    def test_flipped_body_byte_rejected(self):
        data = record(sample_events())
        body = TraceReader(data).body_bytes()
        flipped = bytearray(data)
        flipped[data.index(body) + len(body) // 2] ^= 0x01
        with pytest.raises(TraceFormatError, match="trailer records"):
            TraceReader(bytes(flipped))

    def test_garbage_trailer_rejected(self):
        data = record(sample_events())
        (length,) = struct.unpack("<Q", data[-12:-4])
        start = len(data) - 12 - length
        garbled = data[:start] + b"x" * length + data[-12:]
        with pytest.raises(TraceFormatError, match="unparsable"):
            TraceReader(garbled)
