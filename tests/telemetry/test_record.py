"""Tests for the flight-recorder trace format (record/read).

The RTVT format must round-trip every telemetry event kind exactly —
timestamps, interned strings, nested tuples and the tagged-scalar
``HypercallEvent.flag`` — seek by time through the trailer checkpoints,
and refuse damaged traces.
"""

import json
import struct

import pytest

from repro.simcore.errors import TraceFormatError
from repro.telemetry import TelemetryBus, TraceReader, TraceRecorder
from repro.telemetry import events as T
from repro.telemetry.record import (
    CHECKPOINT_EVERY,
    EVENT_CLASSES,
    KIND_IDS,
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


def write(writer, events):
    encoders = writer.encoders
    for kind, event in events:
        encoders[KIND_IDS[kind]](event)


def record(events, header=None):
    writer = TraceWriter(header=header)
    write(writer, events)
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
        write(writer, sample_events())
        assert writer.close() is None
        reader = TraceReader(path)
        assert list(reader.events()) == sample_events()

    @staticmethod
    def with_trailer(data: bytes, **fields) -> bytes:
        """*data* with *fields* set in its trailer."""
        (length,) = struct.unpack("<Q", data[-12:-4])
        start = len(data) - 12 - length
        trailer = dict(json.loads(data[start:-12]), **fields)
        payload = json.dumps(trailer, sort_keys=True, separators=(",", ":")).encode()
        return data[:start] + payload + struct.pack("<Q", len(payload)) + data[-4:]

    def test_reads_a_trailer_that_lists_no_sections(self):
        """Traces written while every trailer had a ``sections`` key read
        as before."""
        data = record(sample_events())
        reader = TraceReader(self.with_trailer(data, sections=[]))
        assert list(reader.events()) == sample_events()
        assert reader.trace_hash == TraceReader(data).trace_hash

    def test_merged_trace_rejected(self):
        section = {"label": "a", "offset": 0, "events": 1, "hash": "0" * 64}
        merged = self.with_trailer(record([]), sections=[section], strings=None)
        with pytest.raises(TraceFormatError, match="merged trace"):
            TraceReader(merged)


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


class TestIntegrity:
    """A damaged trace raises TraceFormatError instead of reading wrong."""

    def test_truncated_trace_rejected(self):
        data = record(sample_events())
        with pytest.raises(TraceFormatError, match="truncated"):
            TraceReader(data[: len(data) // 2])

    def test_unknown_magic_rejected(self):
        with pytest.raises(ValueError):
            TraceReader(b"NOPE" + b"\x00" * 32)

    def test_flipped_body_byte_rejected(self):
        data = record(sample_events())
        reader = TraceReader(data)
        flipped = bytearray(data)
        flipped[(reader._body_start + reader._body_end) // 2] ^= 0x01
        with pytest.raises(TraceFormatError, match="trailer records"):
            TraceReader(bytes(flipped))

    def test_garbage_trailer_rejected(self):
        data = record(sample_events())
        (length,) = struct.unpack("<Q", data[-12:-4])
        start = len(data) - 12 - length
        garbled = data[:start] + b"x" * length + data[-12:]
        with pytest.raises(TraceFormatError, match="unparsable"):
            TraceReader(garbled)
