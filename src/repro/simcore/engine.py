"""The discrete-event simulation engine.

The engine owns the clock and the event queue.  Components schedule
callbacks at absolute times or after delays; :meth:`Engine.run_until`
advances the clock from event to event.  Several events may share an
instant; they execute in ``(priority, insertion)`` order, and the clock
never moves backwards.

A *post-event hook* can be registered (the machine model uses it to let
the host scheduler re-evaluate after every batch of same-instant events).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, List, Optional

from .errors import SimulationError
from .events import PRIORITY_DEFAULT, Event, EventQueue


class Engine:
    """Deterministic discrete-event executor with an integer-ns clock."""

    __slots__ = (
        "_queue",
        "_now",
        "_running",
        "_in_batch",
        "_post_hooks",
        "_events_processed",
        "_profile",
        "_uid_counter",
    )

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0
        self._running = False
        self._in_batch = False
        self._post_hooks: List[Callable[[], None]] = []
        self._events_processed = 0
        self._uid_counter = 0
        #: Optional self-profiler (see :mod:`repro.telemetry.profile`).
        #: When unset the batch loop is the original untimed hot path.
        self._profile = None

    def next_uid(self) -> int:
        """Dense run-scoped entity ids (VCPU uids).

        Engine-owned so ids depend only on creation order within the
        run, never on process history — recorded traces hash
        identically across serial, parallel and replayed executions.
        """
        uid = self._uid_counter
        self._uid_counter += 1
        return uid

    def set_profiler(self, profiler: Optional[Any]) -> None:
        """Install (or with ``None`` remove) an event-phase profiler.

        While installed, every executed event reports ``(name, wall
        seconds)`` through the profiler's ``record_phase``; phases are
        derived from the event-name prefix before the first ``":"``
        (``"replenish:vm1.vcpu0"`` profiles as phase ``"replenish"``).
        """
        self._profile = profiler

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def in_batch(self) -> bool:
        """True while events of the current batch are being drained.

        Post-event hooks are guaranteed to run once the batch drains, so
        work requested from inside an event handler needs no extra
        trigger event; work requested from a post-hook (or from outside
        the engine) does.
        """
        return self._in_batch

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    def at(
        self,
        time: int,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
        name: str = "",
        seq: Optional[int] = None,
    ) -> Event:
        """Schedule *callback* at absolute *time* (>= now).

        *seq*, taken earlier from :meth:`reserve_seq`, gives the event
        the place in same-instant ties it would have had if pushed then.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule {name or callback!r} at {time} before now={self._now}"
            )
        return self._queue.push(
            time, callback, *args, priority=priority, name=name, seq=seq
        )

    def reserve_seq(self) -> int:
        """Take the next event sequence number now, to push with later.

        For timers armed lazily: the event is pushed through :meth:`at`
        with this number once it might fire, and orders exactly as if it
        had been pushed at reservation time.  The push must precede the
        clock reaching the event's time.
        """
        return self._queue.reserve_seq()

    def after(
        self,
        delay: int,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
        name: str = "",
    ) -> Event:
        """Schedule *callback* ``delay`` nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self._now + delay, callback, *args, priority=priority, name=name)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a pending event; None and already-cancelled are no-ops."""
        if event is not None:
            self._queue.cancel(event)

    def add_post_hook(self, hook: Callable[[], None]) -> None:
        """Run *hook* after each batch of same-instant events.

        Hooks are invoked once per distinct timestamp, after every event at
        that timestamp (including events the batch itself scheduled for the
        same instant) has executed.
        """
        self._post_hooks.append(hook)

    def peek_time(self) -> Optional[int]:
        """Time of the next pending event, if any."""
        return self._queue.peek_time()

    def run_until(self, end_time: int) -> int:
        """Execute events up to and including *end_time*.

        Returns the final clock value, which is ``end_time`` (the clock is
        advanced to the horizon even if the queue drains early, so metrics
        windows are well-defined).
        """
        if end_time < self._now:
            raise SimulationError(f"run_until({end_time}) is in the past (now={self._now})")
        if self._running:
            raise SimulationError("run_until() is not reentrant")
        self._running = True
        peek_time = self._queue.peek_time
        execute_batch = self._execute_batch
        try:
            while True:
                next_time = peek_time()
                if next_time is None or next_time > end_time:
                    break
                self._now = next_time
                execute_batch(next_time)
            self._now = end_time
        finally:
            self._running = False
        return self._now

    def _execute_batch(self, time: int) -> None:
        # Hot path: everything needed inside the loop is bound to locals
        # once per batch, and no per-batch scratch objects are allocated —
        # the same hook list is reused across every batch of the run.
        pop_at = self._queue.pop_at
        processed = 0
        profile = self._profile
        self._in_batch = True
        try:
            if profile is None:
                while True:
                    event = pop_at(time)
                    if event is None:
                        break
                    processed += 1
                    event.callback(*event.args)
            else:
                record_phase = profile.record_phase
                while True:
                    event = pop_at(time)
                    if event is None:
                        break
                    processed += 1
                    started = perf_counter()
                    event.callback(*event.args)
                    record_phase(event.name, perf_counter() - started)
        finally:
            self._in_batch = False
        self._events_processed += processed
        for hook in self._post_hooks:
            hook()
