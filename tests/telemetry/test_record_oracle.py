"""The generated RTVT codec against the interpretive oracle.

A change to the writer matched by the same change to the reader still
round-trips, so the round-trip suite cannot see a byte move.  These
tests compare whole files with what the interpretive codec
(:mod:`tests.telemetry.rtvt_oracle`) writes for the same calls, and
decoded events, with their classes, with what it reads.
"""

import random

import pytest
from hypothesis import given, settings

from repro.runner.workunits import execute_unit, observed_smoke_plans
from repro.telemetry import TelemetryBus, TraceReader, TraceRecorder
from repro.telemetry import events as T
from repro.telemetry.record import (
    _C_BOOL,
    _C_INT,
    _C_OPT_STR,
    _C_STR,
    _C_VALUE,
    _FLUSH_BYTES,
    _SCHEMAS,
    CHECKPOINT_EVERY,
    KIND_IDS,
    TraceWriter,
)
from tests.properties.test_record_roundtrip import event_streams
from tests.telemetry.rtvt_oracle import OracleTraceWriter, oracle_events


def write_both(events, header=None, meta=None):
    """Write *events* through a generated and an oracle writer; both files."""
    new, old = TraceWriter(header=header), OracleTraceWriter(header=header)
    for kind, event in events:
        new.encoders[KIND_IDS[kind]](event)
        old.write_event(kind, event)
    return new.close(meta), old.close(meta)


def oracle_record(events):
    writer = OracleTraceWriter()
    for kind, event in events:
        writer.write_event(kind, event)
    return writer.close()


def _value(rng, codec, names):
    if codec == _C_INT:
        return rng.choice((0, 1, -1, 63, -64, 64, 127, 128, -129, 2**40, -(2**62)))
    if codec == _C_STR:
        return rng.choice(names)
    if codec == _C_OPT_STR:
        return None if rng.random() < 0.3 else rng.choice(names)
    if codec == _C_BOOL:
        return rng.random() < 0.5
    if codec == _C_VALUE:
        return rng.choice((rng.randrange(-300, 300), rng.choice(names)))
    items = (None, True, False, -5, 2**33, 0.25, rng.choice(names), (1, rng.choice(names)))
    return tuple(rng.choice(items) for _ in range(rng.randrange(4)))


def random_stream(seed, count, long_every=0):
    """*count* events over all 17 kinds, times wandering both ways.

    New names keep arriving, so intern frames sit among the events;
    every *long_every*-th event brings a fresh 2 KB name, which grows
    the body past the write buffer's flush threshold in few events.
    """
    rng = random.Random(seed)
    names = ["vm0", "vm0.v0", "", "§µ∆"]
    kinds = list(KIND_IDS)
    time = 0
    stream = []
    for i in range(count):
        if rng.random() < 0.05:
            names.append(f"n{i}")
        if long_every and i % long_every == 0:
            names.append(f"{i}:" + "x" * 2048)
        kind = rng.choice(kinds)
        cls, codecs = _SCHEMAS[KIND_IDS[kind]]
        time += rng.choice((0, 1, 90, 100_000, -7, 2**35))
        stream.append((kind, cls(time, *(_value(rng, c, names) for c in codecs))))
    return stream


class TestWriterMatchesOracle:
    @settings(max_examples=120, deadline=None)
    @given(event_streams)
    def test_any_stream_is_byte_identical(self, events):
        new, old = write_both(events, header={"h": 1}, meta={"m": 2})
        assert new == old

    def test_every_kind_and_checkpoints(self):
        events = random_stream(1, 3 * CHECKPOINT_EVERY + 17)
        new, old = write_both(events)
        assert new == old
        reader = TraceReader(new)
        assert len(reader.checkpoints) == 3
        assert set(reader.counts) == set(T.ALL_KINDS)

    def test_stream_crossing_the_flush_threshold(self):
        events = random_stream(2, 3000, long_every=10)
        new, old = write_both(events)
        assert new == old
        reader = TraceReader(new)
        assert reader._body_end - reader._body_start > 2 * _FLUSH_BYTES

    def test_recorder_event_count_mid_run(self):
        events = random_stream(6, CHECKPOINT_EVERY + 100)
        bus = TelemetryBus()
        recorder = TraceRecorder(header={"r": 1}).attach(bus)
        oracle = OracleTraceWriter(header={"r": 1})
        for i, (kind, event) in enumerate(events):
            assert recorder.event_count == i
            bus.publish(kind, event)
            oracle.write_event(kind, event)
        assert recorder.event_count == len(events)
        assert recorder.close() == oracle.close()


class TestDecoderMatchesOracle:
    @staticmethod
    def assert_same(reader, **filters):
        got = list(reader.events(**filters))
        want = list(oracle_events(reader, **filters))
        assert got == want
        assert [type(e) for _, e in got] == [type(e) for _, e in want]
        return got

    @settings(max_examples=120, deadline=None)
    @given(event_streams)
    def test_any_stream(self, events):
        got = self.assert_same(TraceReader(oracle_record(events)))
        assert got == events

    def test_filters_and_checkpoint_seek(self):
        reader = TraceReader(oracle_record(random_stream(7, 3 * CHECKPOINT_EVERY)))
        self.assert_same(reader)
        self.assert_same(reader, kinds=(T.HYPERCALL, T.FAULT_INJECTED))
        for start in (-1, 0, 2**36, 2**40, 2**80):
            self.assert_same(reader, start_time=start)
            self.assert_same(reader, kinds=(T.ENQUEUE,), start_time=start)


@pytest.mark.parametrize("fault", ["hypercall", "pcpu_fail", "vm_churn"])
def test_recorded_runs_are_byte_identical(monkeypatch, fault):
    """Each robustness smoke cell of *fault* (every scheduler) recorded
    through the generated writer and through the oracle: the same file.
    The hypercall cells carry the tagged flag, the fault cells tuples."""
    (plan,) = observed_smoke_plans([f"robustness_{fault}"], ("record",))

    def traces():
        return [execute_unit(unit)[1]["record"][0]["data"] for unit in plan.units]

    generated = traces()
    with monkeypatch.context() as patch:
        patch.setattr("repro.telemetry.record.TraceWriter", OracleTraceWriter)
        probe = TraceRecorder().attach(TelemetryBus())
        assert isinstance(probe._writer, OracleTraceWriter)
        oracle = traces()
    assert generated == oracle
    for data in generated:
        reader = TraceReader(data)
        assert list(reader.events()) == list(oracle_events(reader))
