"""Property tests for event-queue accounting and the incremental
host-EDF eligible structure.

Three families of invariants pinned here guard the hot-path rework:

- accounting: the pending count of either queue implementation never
  underflows, and ``live + dead`` always equals the number of stored
  entries, no matter how cancels, fires, stale-handle cancels, clears
  and compactions interleave;
- equivalence: the calendar queue and the reference binary heap pop the
  *same* events in the *same* order under arbitrary operation
  interleavings — including tie-break stability at equal timestamps and
  mass-cancellation compaction; and
- the incrementally-maintained eligible structure in
  :class:`EDFHostScheduler` always selects exactly the servers a
  from-scratch filter+sort of the full server table would select.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.rtxen import RTXenSystem
from repro.guest.task import Task
from repro.simcore.engine import Engine
from repro.simcore.events import EventQueue
from repro.simcore.time import MSEC, msec
from repro.workloads.periodic import PeriodicDriver
from tests.simcore.heap_queue import HeapEventQueue

BOTH_IMPLS = pytest.mark.parametrize(
    "impl", [HeapEventQueue, EventQueue], ids=["heap", "calendar"]
)


def _stored_entries(q) -> int:
    """Entries physically held by either implementation (live + dead)."""
    if isinstance(q, HeapEventQueue):
        return len(q._heap)
    return sum(len(bucket) for bucket in q._buckets.values())


# An op is (kind, arg): push at a time, cancel the index-th created
# event (possibly already fired — a stale handle), or fire the next one.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 1000)),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    max_size=80,
)

# Richer op stream for the differential suite: constrained times force
# same-instant collisions, explicit priorities force tie-breaks,
# pop_at/clear exercise the batch path and the reset path, and
# reserve/push_reserved take a sequence number now and push with it
# later, as a deferred completion timer does.
_diff_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"), st.integers(0, 12), st.sampled_from([0, 10, 20, 50])
        ),
        st.tuples(st.just("reserve"), st.just(0), st.just(0)),
        st.tuples(
            st.just("push_reserved"),
            st.integers(0, 12),
            st.sampled_from([0, 10, 20, 50]),
        ),
        st.tuples(st.just("cancel"), st.integers(0, 60), st.just(0)),
        st.tuples(st.just("pop"), st.just(0), st.just(0)),
        st.tuples(st.just("pop_at"), st.integers(0, 12), st.just(0)),
        st.tuples(st.just("peek"), st.just(0), st.just(0)),
        st.tuples(st.just("clear"), st.just(0), st.just(0)),
    ),
    max_size=120,
)


@BOTH_IMPLS
@given(_ops)
def test_queue_live_count_never_negative(impl, ops):
    """len(queue) stays exact under any cancel/fire interleaving."""
    q = impl()
    created = []
    expected_live = 0
    for kind, arg in ops:
        if kind == "push":
            created.append(q.push(arg, lambda: None))
            expected_live += 1
        elif kind == "cancel" and arg < len(created):
            event = created[arg]
            if event.active:
                expected_live -= 1
            q.cancel(event)
        elif kind == "pop" and expected_live:
            q.pop()
            expected_live -= 1
        assert len(q) == expected_live >= 0


@given(_ops)
def test_engine_pending_never_negative(ops):
    """engine.pending mirrors the queue under stale-handle cancels."""
    engine = Engine()
    created = []
    for kind, arg in ops:
        if kind == "push":
            created.append(engine.at(arg + engine.now, lambda: None))
        elif kind == "cancel" and arg < len(created):
            engine.cancel(created[arg])
            engine.cancel(created[arg])  # double-cancel must be free
        elif kind == "pop" and engine.pending:
            engine.run_until(engine.now + 1001)
        assert engine.pending >= 0


@BOTH_IMPLS
@given(_ops)
def test_stored_size_is_live_plus_dead(impl, ops):
    """The compaction invariant holds under any op interleaving.

    ``stored == _live + _dead`` is what makes the mass-cancellation
    compaction sound: cancel moves an entry live->dead, the lazy pop
    path discards dead entries one by one, and compaction drops them all
    at once.  Pop order must be unaffected throughout.  For the heap the
    stored count is the heap length; for the calendar queue it is the
    sum of all bucket sizes (the stale entries on the distinct-times
    heap carry no events and are excluded by construction).
    """
    q = impl()
    created = []
    for kind, arg in ops:
        if kind == "push":
            created.append(q.push(arg, lambda: None))
        elif kind == "cancel" and arg < len(created):
            q.cancel(created[arg])
        elif kind == "pop" and len(q):
            q.pop()
        assert _stored_entries(q) == q._live + q._dead
        assert q._dead >= 0 and q._live >= 0


def test_calendar_never_stores_empty_buckets():
    """Every drain path deletes its bucket (the structural invariant
    that keeps ``_buckets`` bounded by distinct pending instants)."""
    q = EventQueue()
    a = q.push(5, lambda: None)
    q.push(5, lambda: None, priority=10)
    q.push(7, lambda: None)
    q.cancel(a)
    while len(q):
        q.pop()
        assert all(q._buckets.values())
    assert q._buckets == {}
    # pop_at on a bucket whose only entry is cancelled must drop it too.
    b = q.push(3, lambda: None)
    q.cancel(b)
    assert q.pop_at(3) is None
    assert 3 not in q._buckets


@BOTH_IMPLS
@given(
    st.integers(EventQueue._COMPACT_MIN_DEAD + 1, 300),
    st.integers(0, 50),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_mass_cancellation_compacts_and_preserves_order(
    impl, cancelled, kept, rng_seed
):
    """Cancelling a big batch compacts the store; survivors pop in order.

    Mirrors a PCPU failure revoking hundreds of in-flight timers at
    once: once dead entries both exceed the compaction floor and
    outnumber the live ones, the store must shrink to exactly the live
    entries, and the surviving pop order must equal the sorted
    (time, priority, seq) order as if nothing had been cancelled.
    """
    import random

    rng = random.Random(rng_seed)
    q = impl()
    doomed = [q.push(rng.randrange(10_000), lambda: None) for _ in range(cancelled)]
    survivors = [q.push(rng.randrange(10_000), lambda: None) for _ in range(kept)]
    rng.shuffle(doomed)
    for event in doomed:
        q.cancel(event)
        # Compaction bound: dead entries never exceed both the floor
        # and the live count once the cancel has been processed.
        assert q._dead <= q._COMPACT_MIN_DEAD or q._dead <= q._live
        assert _stored_entries(q) == q._live + q._dead
    # More cancels than floor and than survivors: compaction must have
    # fired at least once, so the store cannot still hold every entry.
    if cancelled > kept:
        assert _stored_entries(q) < cancelled + kept
    expected = sorted(survivors, key=lambda e: (e.time, e.priority, e.seq))
    popped = [q.pop() for _ in range(len(q))]
    assert popped == expected
    assert len(q) == 0 and _stored_entries(q) == q._dead


@BOTH_IMPLS
def test_clear_resets_dead_count(impl):
    q = impl()
    events = [q.push(i, lambda: None) for i in range(100)]
    for event in events[:80]:
        q.cancel(event)
    q.clear()
    assert len(q) == 0 and q._dead == 0 and _stored_entries(q) == 0
    assert all(not e.active for e in events)


# -- calendar/heap differential equivalence ---------------------------------


@given(_diff_ops)
@settings(max_examples=200, deadline=None)
def test_calendar_heap_pop_equivalence(ops):
    """Both implementations observe identical results op for op.

    The same operation stream is applied to a calendar queue and to the
    reference heap; every observable — pop/pop_at results (by the
    (time, priority, seq) identity of the event), peek_time answers,
    live counts, and the live+dead accounting — must agree after every
    single step.  Sequence numbers are assigned in push order by both
    implementations, so identical streams produce identical keys; a
    reserved number is pushed with later, oldest first.
    """
    cal, heap = EventQueue(), HeapEventQueue()
    created = []  # (calendar event, heap event) pairs, in push order
    reserved = []  # sequence numbers taken but not yet pushed with

    def key(event):
        return (event.time, event.priority, event.seq)

    for kind, a, b in ops:
        if kind == "push" or (kind == "push_reserved" and reserved):
            seq = reserved.pop(0) if kind == "push_reserved" else None
            pair = (
                cal.push(a, lambda: None, priority=b, seq=seq),
                heap.push(a, lambda: None, priority=b, seq=seq),
            )
            assert key(pair[0]) == key(pair[1])
            created.append(pair)
        elif kind == "reserve":
            seq = cal.reserve_seq()
            assert heap.reserve_seq() == seq
            reserved.append(seq)
        elif kind == "cancel" and a < len(created):
            c, h = created[a]
            cal.cancel(c)
            heap.cancel(h)
        elif kind == "pop" and len(heap):
            assert key(cal.pop()) == key(heap.pop())
        elif kind == "pop_at":
            c, h = cal.pop_at(a), heap.pop_at(a)
            assert (c is None) == (h is None)
            if c is not None:
                assert key(c) == key(h)
        elif kind == "peek":
            assert cal.peek_time() == heap.peek_time()
        elif kind == "clear":
            cal.clear()
            heap.clear()
        assert len(cal) == len(heap)
        assert cal._live + cal._dead >= cal._live >= 0
    # Drain whatever is left: the full residual order must match.
    assert [key(cal.pop()) for _ in range(len(cal))] == [
        key(heap.pop()) for _ in range(len(heap))
    ]


@given(
    st.lists(st.sampled_from([0, 10, 20, 30, 50, 90]), min_size=1, max_size=40),
    st.integers(0, 5),
)
@settings(max_examples=100, deadline=None)
def test_tie_break_stability_at_equal_timestamps(priorities, time):
    """Same-instant events pop by (priority, insertion) in both impls.

    The tie-break contract the engine's determinism rests on: at one
    timestamp, lower priority wins, and equal priorities preserve push
    order exactly.
    """
    for impl in (HeapEventQueue, EventQueue):
        q = impl()
        pushed = [q.push(time, lambda: None, priority=p) for p in priorities]
        expected = sorted(pushed, key=lambda e: (e.priority, e.seq))
        popped = [q.pop_at(time) for _ in range(len(pushed))]
        assert popped == expected
        assert q.pop_at(time) is None


# Workload shapes for the eligible-structure check: (slice_ms, period_ms).
_server_specs = st.lists(
    st.tuples(st.integers(1, 6), st.integers(7, 30)),
    min_size=2,
    max_size=8,
)


@given(_server_specs, st.integers(1, 4), st.integers(1, 40))
@settings(max_examples=20, deadline=None)
def test_incremental_eligible_matches_from_scratch(specs, pcpus, probe_ms):
    """The ready index selects what a full re-sort would select.

    Runs a gEDF-DS system, stops at an arbitrary instant, and checks
    the incremental structures against brute force over the raw server
    table: the ready index holds exactly the budget-holding servers,
    and ``_choose()`` returns the first m of the eligible set sorted by
    (deadline, uid).
    """
    system = RTXenSystem(pcpu_count=pcpus)
    for i, (s, p) in enumerate(specs):
        vm = system.create_vm(f"vm{i}", interfaces=[(s * MSEC, p * MSEC)])
        task = Task(f"t{i}", s * MSEC, p * MSEC)
        system.register_rta(vm, task)
        PeriodicDriver(system.engine, vm, task, phase_ns=(i * p * MSEC) // 8).start()
    system.create_background_vm("bg", processes=1)
    scheduler = system.scheduler

    for _ in range(3):
        system.run(msec(probe_ms))
        # Brute force from the full server table.
        brute = sorted(
            (
                server
                for server in scheduler._servers.values()
                if server.remaining > 0
                and server.vcpu.vm.vcpu_has_work(server.vcpu)
            ),
            key=lambda server: (server.deadline, server.vcpu.uid),
        )
        assert sorted(scheduler._ready) == sorted(
            uid
            for uid, server in scheduler._servers.items()
            if server.remaining > 0
        )
        assert scheduler._eligible() == brute
        assert scheduler._choose() == brute[:pcpus]
        # _choose must leave the structure able to answer again.
        assert scheduler._choose() == brute[:pcpus]
