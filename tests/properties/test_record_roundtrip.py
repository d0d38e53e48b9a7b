"""Property: any telemetry event stream round-trips through RTVT exactly.

Strategies are derived from the same ``NamedTuple`` annotations the
codec table in :mod:`repro.telemetry.record` is built from, so every
event kind — and every field codec, including signed timestamp deltas,
interned strings, nested tuples with floats, and the tagged-scalar
``HypercallEvent.flag`` — is exercised with adversarial values.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import TraceReader
from repro.telemetry import events as T
from repro.telemetry.record import EVENT_CLASSES, KIND_IDS, TraceWriter

# Text drawn from a small alphabet so interning gets collisions, plus a
# few adversarial shapes (empty, unicode, long).
names = st.one_of(
    st.sampled_from(["", "vm0", "vm0.v0", "t", "§µ∆", "x" * 200]),
    st.text(max_size=8),
)

ints = st.integers(min_value=-(2**62), max_value=2**62)

# Tuple payload items mirror what _encode_item accepts; floats must
# round-trip bit-exactly (encoded as IEEE doubles, never repr'd).
detail_items = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        ints,
        names,
        st.floats(allow_nan=False),
    ),
    lambda children: st.tuples(children, children),
    max_leaves=6,
)

_FIELD_STRATEGIES = {
    "int": ints,
    "str": names,
    "Optional[str]": st.one_of(st.none(), names),
    "bool": st.booleans(),
    "Tuple": st.tuples(detail_items, detail_items),
}

#: The tagged-scalar field: runtime type varies between int and str.
_OVERRIDES = {("HypercallEvent", "flag"): st.one_of(ints, names)}


def _event_strategy(kind):
    cls = EVENT_CLASSES[kind]
    fields = []
    for name, annotation in cls.__annotations__.items():
        if not isinstance(annotation, str):
            annotation = getattr(annotation, "__forward_arg__", repr(annotation))
        strategy = _OVERRIDES.get((cls.__name__, name))
        if strategy is None:
            strategy = _FIELD_STRATEGIES[annotation]
        fields.append(strategy)
    return st.tuples(*fields).map(lambda values, c=cls: c(*values))


any_event = st.one_of(
    [
        st.tuples(st.just(kind), _event_strategy(kind))
        for kind in T.ALL_KINDS
    ]
)

event_streams = st.lists(any_event, max_size=60)


def record(events, header=None):
    writer = TraceWriter(header=header)
    for kind, event in events:
        writer.encoders[KIND_IDS[kind]](event)
    return writer.close()


@settings(max_examples=120, deadline=None)
@given(event_streams)
def test_any_stream_round_trips(events):
    reader = TraceReader(record(events))
    assert list(reader.events()) == events
    assert reader.event_count == len(events)


@settings(max_examples=60, deadline=None)
@given(event_streams)
def test_recording_is_deterministic(events):
    assert record(events) == record(events)


@settings(max_examples=60, deadline=None)
@given(event_streams)
def test_counts_agree_with_stream(events):
    reader = TraceReader(record(events))
    for kind in T.ALL_KINDS:
        want = sum(1 for k, _ in events if k == kind)
        assert reader.counts.get(kind, 0) == want


@settings(max_examples=60, deadline=None)
@given(event_streams, st.integers(min_value=-(2**62), max_value=2**62))
def test_start_time_filter_is_a_pure_filter(events, start):
    reader = TraceReader(record(events))
    want = [(k, e) for k, e in events if e.time >= start]
    assert list(reader.events(start_time=start)) == want
