"""The reference binary-heap event queue — a test oracle.

The simulator's :class:`~repro.simcore.events.EventQueue` is a calendar
queue.  This single-heap queue implements the same contract the obvious
way and is kept only to check the calendar queue against: the
differential property suite diffs the two op for op, and the registry
oracle test reruns experiments with this queue patched into the engine
and compares row and trace hashes.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.simcore.errors import SimulationError
from repro.simcore.events import PRIORITY_DEFAULT, Event

#: Heap entry: the comparison key inline, the event payload last.  The
#: sequence number is unique, so comparisons never reach the event.
_Entry = Tuple[int, int, int, Event]


class HeapEventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    One binary heap of ``(time, priority, seq, event)`` tuples: every
    push and pop pays O(log n) in the total number of pending events.
    """

    #: Compact the heap once more than this many cancelled entries linger
    #: *and* they outnumber the live ones.  Mass cancellation (a PCPU
    #: failure revoking hundreds of in-flight timers at once) would
    #: otherwise leave the heap dominated by dead entries that every
    #: subsequent sift still has to wade through.
    _COMPACT_MIN_DEAD = 64

    __slots__ = ("_heap", "_seq", "_live", "_dead")

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._seq = 0
        self._live = 0
        #: Cancelled entries still sitting in the heap (not yet discarded
        #: by the lazy pop path).  Invariant: ``len(_heap) == _live + _dead``.
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

        *seq* is a number taken earlier from :meth:`reserve_seq`.
        """
        if time < 0:
            raise SimulationError(f"cannot schedule an event at negative time {time}")
        if seq is None:
            seq = self.reserve_seq()
        event = Event(time, priority, seq, callback, args, name)
        heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def reserve_seq(self) -> int:
        """Take the next sequence number now for a later :meth:`push`."""
        seq = self._seq
        self._seq += 1
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
        """Rebuild the heap without its cancelled entries.

        Keys ``(time, priority, seq)`` are unique, so heapifying the
        surviving entries yields exactly the pop order the lazy path
        would have produced — compaction is invisible to determinism.
        """
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapify(self._heap)
        self._dead = 0

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
            self._dead -= 1
        if not heap:
            return None
        return heap[0][0]

    def pop(self) -> Event:
        """Remove and return the next live event, marking it consumed.

        Raises :class:`SimulationError` when the queue is empty.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
            self._dead -= 1
        if not heap:
            raise SimulationError("pop from an empty event queue")
        event = heappop(heap)[3]
        event.consumed = True
        self._live -= 1
        return event

    def pop_at(self, time: int) -> Optional[Event]:
        """Pop the next live event iff it is scheduled at exactly *time*.

        One heap inspection serves both the "is there more work at this
        instant" test and the pop — the engine's batch loop hot path.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
            self._dead -= 1
        if not heap or heap[0][0] != time:
            return None
        event = heappop(heap)[3]
        event.consumed = True
        self._live -= 1
        return event

    def clear(self) -> None:
        """Drop every pending event.

        Dropped events are marked cancelled so stale handles held by
        components (e.g. a scheduler's exhaust timer) read as inactive
        rather than forever-pending after a reset.
        """
        for _, _, _, event in self._heap:
            if not event.consumed:
                event.cancelled = True
        self._heap.clear()
        self._live = 0
        self._dead = 0
