"""Event primitives for the discrete-event engine.

An :class:`Event` is a callback scheduled at an absolute simulated time.
Events are totally ordered by ``(time, priority, sequence)``: ties at the
same instant break first on an explicit priority (smaller runs first) and
then on insertion order, which keeps the simulation deterministic.

Cancellation is lazy: :meth:`EventQueue.cancel` marks the event and the
queue discards it when it surfaces, compacting only after mass
cancellation.

Event state machine: a pushed event is *pending* (``active``); it leaves
that state exactly once, either by being popped (*consumed*) or by being
cancelled.  The queue's live count is decremented on exactly that one
transition, so ``len(queue)`` can never underflow — cancelling an event
that already fired is a no-op, not a double decrement.

:class:`EventQueue` is a calendar-style queue: a dict of
``time -> bucket`` where each bucket is a small heap of
``(priority, seq, event)``, plus a heap of the distinct bucket times.
Pushing into an existing instant is O(log bucket) — effectively O(1),
buckets are tiny — and the engine's batch loop
(:meth:`~EventQueue.pop_at`) drains an instant with one dict lookup per
event instead of sifting a global heap.  Simulated entity count
therefore stops being heap depth: 10 000 co-pending timers at distinct
instants cost each instant only its own bucket.  A plain binary heap
over every pending event lives in the test suite as the reference
oracle the queue's pop order is diffed against.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from .errors import SimulationError

# Well-known priorities.  Work synchronization (charging elapsed CPU time)
# conceptually happens before any state change at an instant, scheduler
# decisions happen after releases/completions have been observed.
PRIORITY_RELEASE = 0
PRIORITY_COMPLETION = 10
PRIORITY_BUDGET = 20
PRIORITY_FAULT = 25
PRIORITY_SCHEDULE = 30
PRIORITY_DEFAULT = 50
PRIORITY_METRICS = 90


class Event:
    """A scheduled callback.

    Instances are created through :meth:`EventQueue.push` (or the engine's
    ``schedule_*`` helpers) rather than directly.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled", "consumed", "name")

    def __init__(
        self,
        time: int,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        name: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: True once the event has been popped (its callback ran or is
        #: about to run).  A consumed event can no longer be cancelled.
        self.consumed = False
        self.name = name or getattr(callback, "__name__", "event")

    def cancel(self) -> None:
        """Mark this event so the queue skips it when popped."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        """True while the event is still pending: neither cancelled nor fired."""
        return not self.cancelled and not self.consumed

    def _key(self) -> tuple:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self._key() < other._key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.cancelled:
            state = "cancelled"
        elif self.consumed:
            state = "consumed"
        else:
            state = "pending"
        return f"<Event {self.name} t={self.time} prio={self.priority} {state}>"


#: Calendar-bucket entry: the instant is the dict key, so only the
#: intra-instant key ``(priority, seq)`` travels with the event.
_BucketEntry = Tuple[int, int, Event]


class EventQueue:
    """Deterministic calendar/bucket priority queue of :class:`Event` objects.

    Structure: ``_buckets`` maps each distinct pending instant to a small
    heap of ``(priority, seq, event)``; ``_times`` is a heap of the
    instants themselves.  Global order ``(time, priority, seq)`` is
    recovered as "smallest bucket time, then smallest (priority, seq)
    within it" — sequence numbers are globally unique, so this is the
    exact total order a single heap over every event would produce.

    Why it is faster where it matters:

    * ``pop_at(time)`` — the engine's batch loop — is a dict hit plus a
      pop from a (usually single-digit) bucket heap; no traffic on the
      global time heap at all.  Same-instant cascades (release →
      schedule → budget at one ns) never sift past unrelated instants.
    * ``push`` into an instant that is already pending costs
      O(log bucket), independent of how many *other* events are queued.
      A new instant costs one push on the distinct-times heap, which is
      bounded by distinct pending timestamps, not by pending events.

    ``_times`` may hold stale entries (instants whose bucket has since
    drained) and, after an instant drains and is re-scheduled, duplicate
    entries; :meth:`peek_time` discards both lazily.  Empty buckets are
    never stored: every path that drains a bucket deletes it.
    """

    #: Compact the buckets once more than this many cancelled entries
    #: linger *and* they outnumber the live ones.  Mass cancellation (a
    #: PCPU failure revoking hundreds of in-flight timers at once) would
    #: otherwise leave the buckets dominated by dead entries that every
    #: subsequent pop still has to wade through.
    _COMPACT_MIN_DEAD = 64

    __slots__ = ("_buckets", "_times", "_seq", "_live", "_dead")

    def __init__(self) -> None:
        self._buckets: Dict[int, List[_BucketEntry]] = {}
        self._times: List[int] = []
        self._seq = 0
        self._live = 0
        #: Cancelled entries still sitting in buckets.  Invariant:
        #: ``sum(len(b) for b in _buckets.values()) == _live + _dead``.
        self._dead = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: int,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
        name: str = "",
        seq: Optional[int] = None,
    ) -> Event:
        """Schedule *callback(\\*args)* at absolute *time* and return the event.

        *seq* is a number taken earlier from :meth:`reserve_seq`; the
        event then orders exactly as if it had been pushed back then.
        """
        if time < 0:
            raise SimulationError(f"cannot schedule an event at negative time {time}")
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        event = Event(time, priority, seq, callback, args, name)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(priority, seq, event)]
            heappush(self._times, time)
        else:
            heappush(bucket, (priority, seq, event))
        self._live += 1
        return event

    def reserve_seq(self) -> int:
        """Take the next sequence number now for a later :meth:`push`.

        The caller must push at most once with it, and only at a time
        no event has been popped beyond.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.

        Idempotent, and a no-op on events that already fired: only the
        single pending→cancelled transition decrements the live count.
        """
        if not event.cancelled and not event.consumed:
            event.cancel()
            self._live -= 1
            self._dead += 1
            if (
                self._dead > self._COMPACT_MIN_DEAD
                and self._dead > self._live
            ):
                self._compact()

    def _compact(self) -> None:
        """Rebuild every bucket without its cancelled entries.

        Keys ``(priority, seq)`` are unique within a bucket, so
        re-heapifying the survivors yields exactly the pop order the lazy
        path would have produced — compaction is invisible to
        determinism.  Buckets left empty are dropped along with their
        time entries.
        """
        buckets = self._buckets
        for time in list(buckets):
            bucket = [entry for entry in buckets[time] if not entry[2].cancelled]
            if bucket:
                heapify(bucket)
                buckets[time] = bucket
            else:
                del buckets[time]
        self._times = list(buckets)
        heapify(self._times)
        self._dead = 0

    def _head(self) -> Optional[int]:
        """Earliest instant with a live event, discarding stale state.

        Pops drained/duplicate times off ``_times`` and cancelled heads
        off the front bucket until a live head (or emptiness) is reached.
        """
        buckets = self._buckets
        times = self._times
        while times:
            time = times[0]
            bucket = buckets.get(time)
            if bucket is None:
                heappop(times)
                continue
            while bucket and bucket[0][2].cancelled:
                heappop(bucket)
                self._dead -= 1
            if not bucket:
                del buckets[time]
                heappop(times)
                continue
            return time
        return None

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None if the queue is empty."""
        return self._head()

    def pop(self) -> Event:
        """Remove and return the next live event, marking it consumed.

        Raises :class:`SimulationError` when the queue is empty.
        """
        time = self._head()
        if time is None:
            raise SimulationError("pop from an empty event queue")
        bucket = self._buckets[time]
        event = heappop(bucket)[2]
        if not bucket:
            del self._buckets[time]
        event.consumed = True
        self._live -= 1
        return event

    def pop_at(self, time: int) -> Optional[Event]:
        """Pop the next live event iff it is scheduled at exactly *time*.

        The engine's batch-loop hot path.  *Iff the head is at time*: an
        event pending at an earlier instant must refuse the pop.  Every
        pending instant sits on the times heap, so when its top already
        reads *time* nothing earlier can be pending and a live bucket
        head is popped at once; only a stale top or a cancelled head
        takes the general :meth:`_head` walk.
        """
        buckets = self._buckets
        times = self._times
        bucket = buckets.get(time) if times and times[0] == time else None
        if bucket is None or bucket[0][2].cancelled:
            if self._head() != time:
                return None
            bucket = buckets[time]
        event = heappop(bucket)[2]
        if not bucket:
            del buckets[time]
        event.consumed = True
        self._live -= 1
        return event

    def clear(self) -> None:
        """Drop every pending event.

        Dropped events are marked cancelled so stale handles held by
        components (e.g. a scheduler's exhaust timer) read as inactive
        rather than forever-pending after a reset.
        """
        for bucket in self._buckets.values():
            for _, _, event in bucket:
                if not event.consumed:
                    event.cancelled = True
        self._buckets.clear()
        self._times.clear()
        self._live = 0
        self._dead = 0
