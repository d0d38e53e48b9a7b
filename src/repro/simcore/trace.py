"""The in-memory execution timeline of one run.

A trace records what ran where and when: execution segments per PCPU,
context switches, job completions and injected faults.  It rebuilds
timelines without instrumenting the schedulers: Figure 4's
allocation-over-time series and the chrome://tracing file
:func:`repro.report.export.export_chrome_trace` writes.

A trace is a plain subscriber of the machine's
:class:`~repro.telemetry.bus.TelemetryBus`, attached like every other
consumer::

    trace = Trace().attach(system.machine.bus)

It turns the typed bus events into ``Segment``/``TraceEvent`` records
kept in two lists.  The ``record_*`` methods are public too, so tests
can build synthetic traces without a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple


@dataclass(frozen=True)
class Segment:
    """A contiguous stretch of one VCPU running on one PCPU."""

    pcpu: int
    vcpu: str
    task: Optional[str]
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class TraceEvent:
    """A point event of interest (switch, completion, fault...)."""

    time: int
    kind: str
    detail: Tuple = ()


@dataclass
class Trace:
    """Accumulated trace of one simulation run."""

    segments: List[Segment] = field(default_factory=list)
    events: List[TraceEvent] = field(default_factory=list)
    _cancel: Optional[Callable[[], None]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def record_segment(
        self, pcpu: int, vcpu: str, task: Optional[str], start: int, end: int
    ) -> None:
        """Record that *vcpu* (running *task*) occupied *pcpu* on [start, end)."""
        if end > start:
            self.segments.append(Segment(pcpu, vcpu, task, start, end))

    def record_event(self, time: int, kind: str, *detail) -> None:
        """Record a point event."""
        self.events.append(TraceEvent(time, kind, tuple(detail)))

    # -- telemetry-bus subscription ----------------------------------------

    def attach(self, bus) -> "Trace":
        """Subscribe to *bus*, replacing any previous attachment.

        Segments come from ``SEGMENT_END``; ``"switch"``, ``"complete"``
        and ``"fault"`` point events from their typed counterparts.
        """
        from ..telemetry import events as E

        self.detach()
        cancels = [
            bus.subscribe(E.SEGMENT_END, self._on_segment),
            bus.subscribe(E.CONTEXT_SWITCH, self._on_switch),
            bus.subscribe(E.JOB_COMPLETE, self._on_complete),
            bus.subscribe_many((E.FAULT_INJECTED, E.FAULT_RECOVERED), self._on_fault),
        ]

        def cancel() -> None:
            for unsubscribe in cancels:
                unsubscribe()

        self._cancel = cancel
        return self

    def detach(self) -> None:
        """Drop this trace's bus subscriptions (no-op when detached)."""
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    def _on_segment(self, event) -> None:
        self.record_segment(event.pcpu, event.vcpu, event.task, event.start, event.end)

    def _on_switch(self, event) -> None:
        # Only switches *to* a VCPU are recorded; idle transitions exist
        # solely as typed bus events.
        if event.vcpu is not None:
            self.record_event(
                event.time, "switch", event.pcpu, event.vcpu, event.migrated
            )

    def _on_complete(self, event) -> None:
        self.record_event(event.time, "complete", event.task, event.job)

    def _on_fault(self, event) -> None:
        self.record_event(event.time, "fault", event.fault, *event.detail)

    # -- queries -----------------------------------------------------------

    def segments_for_vcpu(self, vcpu: str) -> List[Segment]:
        """All segments in which *vcpu* ran, in time order."""
        return [s for s in self.segments if s.vcpu == vcpu]

    def usage_series(
        self, vcpu: str, start: int, end: int, bucket: int
    ) -> List[Tuple[int, int]]:
        """(bucket_start, usage) samples for *vcpu* over [start, end).

        Each bucket holds the time *vcpu* ran inside
        ``[bucket_start, min(bucket_start + bucket, end))``, computed in
        one pass over the segments.  Used to regenerate Figure 4's
        allocation-over-time curves.
        """
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        usage = [0] * -(-(end - start) // bucket)
        for s in self.segments:
            if s.vcpu != vcpu:
                continue
            lo = max(s.start, start)
            hi = min(s.end, end)
            index = (lo - start) // bucket
            while lo < hi:
                edge = min(start + (index + 1) * bucket, hi)
                usage[index] += edge - lo
                lo = edge
                index += 1
        return [(start + i * bucket, used) for i, used in enumerate(usage)]
