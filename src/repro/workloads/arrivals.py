"""Aggregated open-loop arrival processes.

High-rate open-loop clients (sporadic RTA triggers, Mutilate-style
memcached query streams) used to cost one engine event per simulated
request per client: an experiment with N clients paid N heap pushes and
N event dispatches per mean inter-arrival, so the simulated *client
count* — not the amount of scheduling work — dominated the event count.

:class:`ArrivalMux` compresses every client sharing an engine into one
arrival process.  Clients enqueue their next arrival into the mux's own
heap, ordered by ``(time, mux_seq)``; the mux keeps exactly one engine
event armed at the earliest pending arrival and drains every arrival due
at that instant when it fires.  The engine's event count then scales
with *distinct arrival instants*, not with client count.

Exactness
---------

The multiplexer is byte-identical to per-client engine events:

- Each client's arrival times are untouched — same RNG stream, same
  draws, same accumulation.  The mux only changes *how* the callback is
  dispatched, never *when*.
- Arrivals colliding at one instant dispatch in ``mux_seq`` order.
  ``mux_seq`` increments per ``schedule`` call exactly as the engine's
  event seq increments per push, and both worlds execute the callbacks
  that issue those calls in the same order, so ``mux_seq`` order equals
  the engine-seq order the per-client events would have had.
- The mux's engine event fires at ``PRIORITY_RELEASE`` like the
  per-client events it replaces, so arrivals keep their priority
  relative to completion/budget/scheduler events at the same instant.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Tuple

from ..simcore.engine import Engine
from ..simcore.errors import SimulationError
from ..simcore.events import PRIORITY_RELEASE


class ArrivalMux:
    """Multiplexes many open-loop arrival streams onto one event stream.

    Clients call :meth:`after` (or :meth:`at`) instead of the engine's
    methods; cancellation is not offered because open-loop drivers stop
    by flag, not by revoking in-flight requests (a drained arrival for a
    stopped client is a no-op in the driver).
    """

    __slots__ = (
        "engine",
        "name",
        "_heap",
        "_seq",
        "_event",
        "_draining",
        "scheduled",
        "fires",
    )

    def __init__(self, engine: Engine, name: str = "arrivals") -> None:
        self.engine = engine
        self.name = f"mux:{name}"
        #: Pending arrivals as ``(time, mux_seq, callback)``.
        self._heap: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self._event = None
        self._draining = False
        #: Total arrivals multiplexed through this mux.
        self.scheduled = 0
        #: Engine events actually consumed — ``scheduled - fires`` is
        #: the number of engine events the aggregation saved.
        self.fires = 0

    def __len__(self) -> int:
        return len(self._heap)

    def after(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule *callback* to run *delay* ns from now."""
        self.at(self.engine.now + delay, callback)

    def at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule *callback* to run at absolute *time*."""
        if time < self.engine.now:
            raise SimulationError(
                f"{self.name}: arrival scheduled in the past "
                f"({time} < {self.engine.now})"
            )
        heappush(self._heap, (time, self._seq, callback))
        self._seq += 1
        self.scheduled += 1
        if not self._draining:
            self._arm()

    # -- internal --------------------------------------------------------------

    def _arm(self) -> None:
        """Keep exactly one engine event armed at the earliest arrival."""
        if not self._heap:
            return
        head = self._heap[0][0]
        event = self._event
        if event is not None and event.active and event.time <= head:
            return
        if event is not None:
            self.engine.cancel(event)
        self._event = self.engine.at(
            head, self._fire, priority=PRIORITY_RELEASE, name=self.name
        )

    def _fire(self) -> None:
        self._event = None
        self.fires += 1
        heap = self._heap
        now = self.engine.now
        # Callbacks re-schedule their next arrival from inside the
        # drain; _draining defers re-arming so a burst costs one arming
        # instead of one per drained client.  A callback scheduling at
        # *now* (zero inter-arrival) lands behind the current head by
        # seq order and is picked up by this same loop.
        self._draining = True
        try:
            while heap and heap[0][0] == now:
                callback = heappop(heap)[2]
                callback()
        finally:
            self._draining = False
        self._arm()
