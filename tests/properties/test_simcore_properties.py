"""Property-based tests on the simulation core."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore.engine import Engine
from repro.simcore.events import EventQueue
from repro.simcore.trace import Trace
from tests.simcore.trace_queries import vcpu_usage_between


@given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 90)), max_size=60))
def test_event_queue_pops_in_order(items):
    """Events always pop in (time, priority, insertion) order."""
    q = EventQueue()
    for time, priority in items:
        q.push(time, lambda: None, priority=priority)
    popped = []
    while q:
        e = q.pop()
        popped.append((e.time, e.priority, e.seq))
    assert popped == sorted(popped)


@given(
    st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 90)), max_size=60),
    st.sets(st.integers(0, 59)),
)
def test_cancelled_events_never_pop(items, cancel_idx):
    q = EventQueue()
    events = [q.push(t, lambda: None, priority=p) for t, p in items]
    for i in cancel_idx:
        if i < len(events):
            q.cancel(events[i])
    surviving = {id(e) for i, e in enumerate(events) if not e.cancelled}
    popped = set()
    while q:
        popped.add(id(q.pop()))
    assert popped == surviving


@given(st.lists(st.integers(0, 100_000), min_size=1, max_size=50))
def test_engine_executes_every_event_once(times):
    engine = Engine()
    hits = []
    for i, t in enumerate(times):
        engine.at(t, hits.append, i)
    engine.run_until(max(times))
    assert sorted(hits) == list(range(len(times)))


@given(st.lists(st.integers(0, 50_000), min_size=1, max_size=40))
@settings(max_examples=50)
def test_engine_clock_never_goes_backwards(times):
    engine = Engine()
    observed = []
    for t in times:
        engine.at(t, lambda: observed.append(engine.now))
    engine.run_until(max(times))
    assert observed == sorted(observed)


segment_spec = st.tuples(
    st.sampled_from(["v1", "v2"]), st.integers(0, 500), st.integers(1, 200)
)


@given(
    st.lists(segment_spec, max_size=30),
    st.integers(-50, 300),
    st.integers(0, 600),
    st.integers(1, 120),
)
def test_usage_series_matches_per_bucket_usage(segments, start, span, bucket):
    """The one-pass series equals vcpu_usage_between bucket by bucket,
    including segments that cross bucket boundaries or the window edges."""
    trace = Trace()
    for vcpu, begin, length in segments:
        trace.record_segment(0, vcpu, None, begin, begin + length)
    end = start + span
    expected = [
        (t, vcpu_usage_between(trace, "v1", t, min(t + bucket, end)))
        for t in range(start, end, bucket)
    ]
    assert trace.usage_series("v1", start, end, bucket) == expected
