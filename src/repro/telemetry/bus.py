"""The telemetry bus: typed pub/sub with a zero-subscriber fast path.

Producers sit on the simulation hot path (``Machine.sync_pcpu`` runs on
every scheduling decision), so the bus is built around one invariant:
**when nothing subscribes to a kind, emitting that kind costs one
cached attribute test at the producer and nothing here.**  Two
mechanisms deliver that:

* ``has_subscribers(kind)`` is a plain dict-membership test — the
  subscriber table drops a kind's key the moment its last handler
  unsubscribes, so the check never scans lists.
* ``watch(callback)`` lets producers cache the answer: the callback
  fires on every (un)subscribe, and producers refresh plain boolean
  attributes (``machine._t_segment`` etc.) that their hot paths test
  directly.  The bus is not consulted at all between subscription
  changes.

Each kind's handlers are a tuple that (un)subscribe replace rather than
mutate (copy on write), so ``publish`` iterates the tuple it looked up
without copying it: a handler that (un)subscribes during a delivery
changes the next publish, never the current one.

Handlers run synchronously, in subscription order, on the simulated
timeline — a handler that mutates the system under test will perturb
it, so consumers should only record.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

Handler = Callable[[Any], None]
WatchCallback = Callable[["TelemetryBus"], None]


class TelemetryBus:
    """Per-kind synchronous pub/sub for telemetry events."""

    __slots__ = ("_subscribers", "_watchers", "_profile")

    def __init__(self) -> None:
        self._subscribers: Dict[str, Tuple[Handler, ...]] = {}
        self._watchers: List[WatchCallback] = []
        #: Optional self-profiler (see :mod:`repro.telemetry.profile`).
        #: Checked only after the zero-subscriber early return, so the
        #: fast path is untouched while nothing subscribes.
        self._profile = None

    # -- subscription -----------------------------------------------------------------

    def subscribe(self, kind: str, handler: Handler) -> Callable[[], None]:
        """Attach *handler* to *kind*; returns an unsubscribe callable.

        The unsubscribe callable is idempotent: calling it twice (or
        after the handler was removed another way) is a no-op.
        """
        self._subscribers[kind] = self._subscribers.get(kind, ()) + (handler,)
        self._notify_watchers()
        removed = False

        def unsubscribe() -> None:
            nonlocal removed
            if removed:
                return
            removed = True
            handlers = self._subscribers.get(kind)
            if handlers is None:
                return
            try:
                index = handlers.index(handler)
            except ValueError:
                return
            if len(handlers) > 1:
                self._subscribers[kind] = handlers[:index] + handlers[index + 1 :]
            else:
                # Drop the key so has_subscribers stays a membership test.
                del self._subscribers[kind]
            self._notify_watchers()

        return unsubscribe

    def subscribe_many(self, kinds, handler: Handler) -> Callable[[], None]:
        """Attach one handler to several kinds; one unsubscribe for all."""
        cancels = [self.subscribe(kind, handler) for kind in kinds]

        def unsubscribe() -> None:
            for cancel in cancels:
                cancel()

        return unsubscribe

    # -- interest tracking ------------------------------------------------------------

    def has_subscribers(self, kind: str) -> bool:
        """True when at least one handler listens for *kind*."""
        return kind in self._subscribers

    def watch(self, callback: WatchCallback) -> Callable[[], None]:
        """Run *callback* now and after every (un)subscribe.

        Producers use this to cache per-kind interest flags; the
        immediate invocation means a producer attached to a bus that
        already has subscribers starts with correct flags.
        """
        self._watchers.append(callback)
        callback(self)

        def unwatch() -> None:
            try:
                self._watchers.remove(callback)
            except ValueError:
                pass

        return unwatch

    def _notify_watchers(self) -> None:
        for callback in list(self._watchers):
            callback(self)

    # -- publication ------------------------------------------------------------------

    def publish(self, kind: str, event: Any) -> None:
        """Deliver *event* to every handler subscribed to *kind*.

        Producers normally guard this call behind a cached interest
        flag, but calling it with no subscribers is safe and cheap (one
        failed dict lookup).
        """
        handlers = self._subscribers.get(kind)
        if handlers is None:
            return
        profile = self._profile
        if profile is None:
            for handler in handlers:
                handler(event)
            return
        started = perf_counter()
        for handler in handlers:
            handler(event)
        profile.record_event(kind, len(handlers), perf_counter() - started)

    # -- self-profiling ---------------------------------------------------------------

    def set_profiler(self, profiler: Optional[Any]) -> None:
        """Install (or with ``None`` remove) a delivery profiler.

        While installed, every :meth:`publish` that reaches at least one
        handler reports ``(kind, deliveries, wall seconds)`` through the
        profiler's ``record_event``.  The zero-subscriber path never
        touches the profiler, so the instrumented-but-idle cost stays
        one attribute test.
        """
        self._profile = profiler
