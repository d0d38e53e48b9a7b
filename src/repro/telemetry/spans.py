"""Causal per-job spans stitched from the flat telemetry event stream.

PR 4's bus tells us *what* happened (a deadline missed, a budget
drained); it cannot say *why* a particular job was late.  The
:class:`SpanBuilder` closes that gap: it subscribes to the existing
event kinds and stitches them into one **span** per released job —

    release → enqueue → dispatch segments → (preemptions, migrations,
    budget stalls) → completion

keyed by ``(vm, vcpu, task, job)``.  After :meth:`finalize`, every
span's window ``[release, completion]`` is tiled into labelled
intervals, each classified into exactly one bucket:

``run``
    the job itself executed (its ``SEGMENT_END`` charge windows);
``migrating``
    its carrier VCPU was paying a host migration penalty;
``preempted``
    its carrier VCPU held no PCPU (host-level preemption, budget
    depletion, admission throttling — :mod:`repro.telemetry.blame`
    subdivides this bucket by cause);
``wait``
    the carrier VCPU was on a PCPU but the guest scheduler ran a
    different job (guest queueing).

The classification is a *partition by priority* (run > migrating >
preempted > wait), so the four bucket totals sum **exactly** to the
job's response time — an integer-arithmetic invariant the property
suite pins for every synthetic workload.

The builder is a pure consumer: it subscribes like any other bus
client, so an unattached simulation pays nothing (the zero-subscriber
fast path), and an attached one pays only event fan-out.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from functools import partial
from typing import Dict, List, Optional, Tuple

from . import events as T

Interval = Tuple[int, int]

#: Bucket names, in classification priority order.
BUCKETS = ("run", "migrating", "preempted", "wait")


# -- integer interval arithmetic (sorted, disjoint, half-open [s, e)) ------------------


def merge_intervals(intervals: List[Interval]) -> List[Interval]:
    """Sort and coalesce overlapping/adjacent intervals; drops empties."""
    out: List[Interval] = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def clip_merged(
    intervals: List[Interval], ends: List[int], lo: int, hi: int
) -> List[Interval]:
    """The portion of a merged interval list inside ``[lo, hi)``.

    *ends* holds the list's end times (strictly increasing, since merged
    intervals are disjoint), so bisection skips to the intervals that
    meet ``[lo, hi)``: O(log n + k) instead of a scan of all n.
    """
    out: List[Interval] = []
    for index in range(bisect_right(ends, lo), len(intervals)):
        start, end = intervals[index]
        if start >= hi:
            break
        start, end = max(start, lo), min(end, hi)
        if end > start:
            out.append((start, end))
    return out


def subtract_intervals(base: List[Interval], cut: List[Interval]) -> List[Interval]:
    """``base`` minus ``cut``; both sorted and disjoint."""
    out: List[Interval] = []
    cut = merge_intervals(list(cut))
    for start, end in base:
        pos = start
        for c_start, c_end in cut:
            if c_end <= pos:
                continue
            if c_start >= end:
                break
            if c_start > pos:
                out.append((pos, c_start))
            pos = max(pos, c_end)
            if pos >= end:
                break
        if pos < end:
            out.append((pos, end))
    return out


def total(intervals: List[Interval]) -> int:
    return sum(end - start for start, end in intervals)


class Span:
    """One job's causal history, from release to completion (or horizon)."""

    __slots__ = (
        "vm",
        "vcpu",
        "task",
        "job",
        "release",
        "deadline",
        "enqueue_time",
        "enqueue_scope",
        "completed_at",
        "missed",
        "tardiness",
        "segments",
        "guest_migrations",
        "end",
        "incomplete",
        "intervals",
        "buckets",
    )

    def __init__(
        self,
        vm: str,
        vcpu: Optional[str],
        task: str,
        job: int,
        release: int,
        deadline: int,
    ) -> None:
        self.vm = vm
        self.vcpu = vcpu  # pinned VCPU at release time (may be None)
        self.task = task
        self.job = job
        self.release = release
        self.deadline = deadline
        self.enqueue_time: Optional[int] = None
        self.enqueue_scope: Optional[str] = None
        self.completed_at: Optional[int] = None
        self.missed = False
        self.tardiness = 0
        #: (start, end, pcpu, vcpu name) execution charge windows.
        self.segments: List[Tuple[int, int, int, str]] = []
        #: (time, source vcpu index, target vcpu index) gEDF claims.
        self.guest_migrations: List[Tuple[int, int, int]] = []
        # Filled by SpanBuilder.finalize() (``end`` already at the
        # shutdown instant for a job its churned VM abandoned):
        self.end: Optional[int] = None
        self.incomplete = False
        #: (start, end, bucket, vcpu, pcpu) tiling of [release, end].
        self.intervals: List[Tuple[int, int, str, Optional[str], Optional[int]]] = []
        self.buckets: Dict[str, int] = {}

    @property
    def key(self) -> Tuple[str, int]:
        return (self.task, self.job)

    @property
    def lateness(self) -> int:
        """Nanoseconds past the deadline (0 when met or undecided)."""
        if self.end is None or self.end <= self.deadline:
            return 0
        return self.end - self.deadline

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "incomplete" if self.incomplete else (
            "miss" if self.missed else "ok"
        )
        return f"<Span {self.task}#{self.job} rel={self.release} {state}>"


class SpanBuilder:
    """Stitches bus events into per-job :class:`Span` objects.

    Usage::

        builder = SpanBuilder().attach(system.machine)
        system.run(duration)
        builder.finalize()
        builder.spans  # every deadline-bearing job, in release order
    """

    def __init__(self, migration_ns: Optional[int] = None) -> None:
        self.spans: List[Span] = []
        self._open: Dict[str, deque] = {}  # task name -> FIFO of open spans
        self._by_key: Dict[Tuple[str, int], Span] = {}
        # Carrier-side interval sources, keyed by VCPU name (globally
        # unique, so they survive multi-machine attachment unscoped):
        self._oncpu: Dict[str, List[Interval]] = {}
        #: (scope, pcpu) -> (vcpu, since); the scope label separates
        #: equal PCPU indices of different hosts under multi-attach.
        self._pcpu_occupant: Dict[Tuple[str, int], Tuple[str, int]] = {}
        self._depleted: Dict[str, List[Interval]] = {}
        self._depleted_open: Dict[str, int] = {}
        self._throttled: Dict[str, List[Interval]] = {}
        self._throttled_open: Dict[str, int] = {}
        self._migrations: Dict[str, List[Interval]] = {}
        #: End times of the merged ``_oncpu``/``_migrations`` lists, set
        #: by :meth:`finalize` so each gap bisects instead of scanning.
        self._oncpu_ends: Dict[str, List[int]] = {}
        self._migration_ends: Dict[str, List[int]] = {}
        #: Blame windows, merged by :meth:`finalize`: (cause, vcpu) ->
        #: (intervals, their end times); see :meth:`windows`.
        self._windows: Dict[
            Tuple[str, Optional[str]], Tuple[List[Interval], List[int]]
        ] = {}
        #: Open cluster stop-and-copy blackouts: vcpu name -> pause time.
        self._blackout_open: Dict[str, int] = {}
        self._hypercall_faults: List[Interval] = []
        self._migration_ns = migration_ns
        self._machine = None
        self._unsubscribe = None
        self._finalized = False

    # -- wiring -----------------------------------------------------------------------

    def attach(self, machine, replace: bool = True, scope: str = "") -> "SpanBuilder":
        """Subscribe to *machine*'s bus.

        With ``replace=True`` (default) any previous attachment is
        dropped first — the single-host usage.  ``replace=False`` *adds*
        the machine to the subscription set instead, letting one builder
        observe every host of a cluster so a span survives live
        migration (its release may be published on one host's bus and
        its completion on another's; VCPU and task names are globally
        unique, so carrier timelines stitch across buses).  *scope*
        disambiguates PCPU indices between hosts — give each machine a
        distinct label (e.g. the host name) when multi-attaching.
        """
        if replace:
            self.detach()
            self._machine = machine
        elif self._machine is None:
            self._machine = machine
        return self.attach_bus(
            machine.bus, migration_ns=machine.costs.migration_ns, scope=scope
        )

    def attach_bus(
        self, bus, migration_ns: Optional[int] = None, scope: str = ""
    ) -> "SpanBuilder":
        """Subscribe to a bare bus (no machine).

        The offline path: ``repro trace inspect <trace> --blame`` pumps
        a recorded trace through a private bus and needs span assembly
        without a live machine.  *migration_ns* substitutes for the machine's cost
        model when the builder was constructed without one.
        """
        if self._migration_ns is None:
            self._migration_ns = migration_ns
        cancels = [
            bus.subscribe(T.JOB_RELEASE, self._on_release),
            bus.subscribe(T.ENQUEUE, self._on_enqueue),
            bus.subscribe(T.SEGMENT_END, self._on_segment),
            bus.subscribe(T.JOB_COMPLETE, self._on_complete),
            bus.subscribe(T.DEADLINE_HIT, self._on_hit),
            bus.subscribe(T.DEADLINE_MISS, self._on_miss),
            bus.subscribe(T.CONTEXT_SWITCH, partial(self._on_switch, scope)),
            bus.subscribe(T.MIGRATION, self._on_migration),
            bus.subscribe(T.BUDGET_DEPLETE, self._on_deplete),
            bus.subscribe(T.BUDGET_REPLENISH, self._on_replenish),
            bus.subscribe(T.ADMISSION_DECISION, self._on_admission),
            bus.subscribe(T.FAULT_INJECTED, self._on_fault),
            bus.subscribe(T.FAULT_RECOVERED, self._on_recovered),
        ]
        previous = self._unsubscribe

        def unsubscribe() -> None:
            for cancel in cancels:
                cancel()
            if previous is not None:
                previous()

        self._unsubscribe = unsubscribe
        return self

    def detach(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    # -- producers' event handlers ------------------------------------------------------

    def _on_release(self, event: T.JobReleaseEvent) -> None:
        span = Span(
            event.vm, event.vcpu, event.task, event.job,
            event.release, event.deadline,
        )
        self.spans.append(span)
        self._open.setdefault(event.task, deque()).append(span)
        self._by_key[span.key] = span

    def _on_enqueue(self, event: T.EnqueueEvent) -> None:
        span = self._by_key.get((event.task, event.job))
        if span is not None and span.enqueue_time is None:
            span.enqueue_time = event.time
            span.enqueue_scope = event.scope

    def _on_segment(self, event: T.SegmentEndEvent) -> None:
        # Within a task, jobs execute FIFO (``Task.head_job`` under both
        # pEDF and gEDF), so a charge window always belongs to the
        # oldest open span of its task.
        spans = self._open.get(event.task)
        if spans and event.end > event.start:
            spans[0].segments.append(
                (event.start, event.end, event.pcpu, event.vcpu)
            )

    def _on_complete(self, event: T.JobCompleteEvent) -> None:
        spans = self._open.get(event.task)
        if not spans:
            return
        # The completing job is almost always the FIFO front; scan
        # defensively in case an abandoned sibling lingers ahead of it.
        for i, span in enumerate(spans):
            if span.job == event.job:
                del spans[i]
                break
        else:
            return
        if not spans:
            del self._open[event.task]
        span.completed_at = event.time

    def _on_hit(self, event: T.DeadlineHitEvent) -> None:
        span = self._by_key.get((event.task, event.job))
        if span is not None:
            span.missed = False

    def _on_miss(self, event: T.DeadlineMissEvent) -> None:
        span = self._by_key.get((event.task, event.job))
        if span is not None:
            span.missed = True
            span.tardiness = event.tardiness

    def _on_switch(self, scope: str, event: T.ContextSwitchEvent) -> None:
        key = (scope, event.pcpu)
        previous = self._pcpu_occupant.pop(key, None)
        if previous is not None:
            name, since = previous
            if event.time > since:
                self._oncpu.setdefault(name, []).append((since, event.time))
        if event.vcpu is not None:
            self._pcpu_occupant[key] = (event.vcpu, event.time)

    def _on_migration(self, event: T.MigrationEvent) -> None:
        if event.layer == "guest":
            spans = self._open.get(event.entity)
            if spans:
                spans[0].guest_migrations.append(
                    (event.time, event.source, event.target)
                )
            return
        if event.layer == "cluster":
            # Live migration stop-and-copy began: the VCPU is paused
            # until the matching "cluster_end" on the destination bus.
            self._blackout_open.setdefault(event.entity, event.time)
            return
        if event.layer == "cluster_end":
            start = self._blackout_open.pop(event.entity, None)
            if start is not None and event.time > start:
                self._migrations.setdefault(event.entity, []).append(
                    (start, event.time)
                )
            return
        cost = self._migration_ns or 0
        if cost > 0:
            self._migrations.setdefault(event.entity, []).append(
                (event.time, event.time + cost)
            )

    def _on_deplete(self, event: T.BudgetDepleteEvent) -> None:
        self._depleted_open.setdefault(event.vcpu, event.time)

    def _on_replenish(self, event: T.BudgetReplenishEvent) -> None:
        start = self._depleted_open.pop(event.vcpu, None)
        if start is not None and event.time > start:
            self._depleted.setdefault(event.vcpu, []).append((start, event.time))

    def _on_admission(self, event: T.AdmissionDecisionEvent) -> None:
        if event.level != "host":
            return
        if event.op == "shed" and not event.granted:
            self._throttled_open.setdefault(event.subject, event.time)
        elif event.granted:
            start = self._throttled_open.pop(event.subject, None)
            if start is not None and event.time > start:
                self._throttled.setdefault(event.subject, []).append(
                    (start, event.time)
                )

    def _on_fault(self, event: T.FaultInjectedEvent) -> None:
        if event.fault == "hypercall_drop" and event.detail:
            duration = int(event.detail[0])
            self._hypercall_faults.append((event.time, event.time + duration))
        elif event.fault == "hypercall_delay" and len(event.detail) >= 2:
            duration = int(event.detail[1])
            self._hypercall_faults.append((event.time, event.time + duration))

    def _on_recovered(self, event: T.FaultRecoveredEvent) -> None:
        # A churned VM shut down: its open jobs end now, not at the run's
        # end, and miss only if already late (as ``Task.task_abandon``).
        if event.fault == "vm_churn" and event.detail[-1:] == ("shutdown",):
            vm = event.detail[0]
            for task in [t for t, spans in self._open.items() if spans[0].vm == vm]:
                for span in self._open.pop(task):
                    span.end = event.time

    # -- finalisation -------------------------------------------------------------------

    def finalize(self, end_time: Optional[int] = None) -> "SpanBuilder":
        """Close open state at *end_time* and tile every span's window.

        Idempotent; *end_time* defaults to the attached machine's clock.
        """
        if self._finalized:
            return self
        self._finalized = True
        if end_time is None:
            if self._machine is None:
                raise ValueError("finalize() needs end_time when unattached")
            end_time = self._machine.engine.now
        for _key, (name, since) in sorted(self._pcpu_occupant.items()):
            if end_time > since:
                self._oncpu.setdefault(name, []).append((since, end_time))
        self._pcpu_occupant.clear()
        for name, start in sorted(self._depleted_open.items()):
            if end_time > start:
                self._depleted.setdefault(name, []).append((start, end_time))
        self._depleted_open.clear()
        for name, start in sorted(self._throttled_open.items()):
            if end_time > start:
                self._throttled.setdefault(name, []).append((start, end_time))
        self._throttled_open.clear()
        for name, start in sorted(self._blackout_open.items()):
            if end_time > start:
                self._migrations.setdefault(name, []).append((start, end_time))
        self._blackout_open.clear()
        for name in self._oncpu:
            merged = self._oncpu[name] = merge_intervals(self._oncpu[name])
            self._oncpu_ends[name] = [end for _, end in merged]
        for name in self._migrations:
            merged = self._migrations[name] = merge_intervals(self._migrations[name])
            self._migration_ends[name] = [end for _, end in merged]
        for cause, table in (
            ("admission_throttle", self._throttled),
            ("budget_exhaustion", self._depleted),
            ("hypercall_fault", {None: self._hypercall_faults}),
        ):
            for name, windows in table.items():
                merged = merge_intervals(windows)
                self._windows[(cause, name)] = (merged, [end for _, end in merged])
        for span in self.spans:
            self._tile(span, end_time)
        return self

    def _tile(self, span: Span, horizon: int) -> None:
        """Partition ``[release, end]`` into run/migrating/preempted/wait."""
        if span.completed_at is not None:
            span.end = span.completed_at
        else:
            if span.end is None:  # else abandoned when its VM shut down
                span.end = horizon
            span.incomplete = True
            if span.deadline < span.end:
                # Abandoned past its deadline: a miss the completion-side
                # events never report (no JOB_COMPLETE was published).
                span.missed = True
                span.tardiness = span.end - span.deadline
        window_lo, window_hi = span.release, span.end
        intervals: List[Tuple[int, int, str, Optional[str], Optional[int]]] = []
        pos = window_lo
        last_vcpu: Optional[str] = span.vcpu
        for start, end, pcpu, vcpu in span.segments:
            start, end = max(start, window_lo), min(end, window_hi)
            if end <= start:
                continue
            if start > pos:
                # The carrier that eventually ran the job is the one it
                # was queued behind during the gap.
                intervals.extend(self._classify_gap(pos, start, vcpu))
            intervals.append((start, end, "run", vcpu, pcpu))
            pos = max(pos, end)
            last_vcpu = vcpu
        if pos < window_hi:
            intervals.extend(self._classify_gap(pos, window_hi, last_vcpu))
        span.intervals = intervals
        buckets = dict.fromkeys(BUCKETS, 0)
        for start, end, bucket, _vcpu, _pcpu in intervals:
            buckets[bucket] += end - start
        span.buckets = buckets

    def _classify_gap(
        self, lo: int, hi: int, carrier: Optional[str]
    ) -> List[Tuple[int, int, str, Optional[str], Optional[int]]]:
        """Split a non-run gap into migrating / preempted / wait pieces."""
        if carrier is None:
            # The job never ran and its task had no pin at release: no
            # carrier timeline exists, so the whole gap is guest wait.
            return [(lo, hi, "wait", None, None)]
        gap = [(lo, hi)]
        out: List[Tuple[int, int, str, Optional[str], Optional[int]]] = []
        migrating = clip_merged(
            self._migrations.get(carrier, []),
            self._migration_ends.get(carrier, []),
            lo,
            hi,
        )
        for start, end in migrating:
            out.append((start, end, "migrating", carrier, None))
        rest = subtract_intervals(gap, migrating)
        oncpu = self._oncpu.get(carrier, [])
        oncpu_ends = self._oncpu_ends.get(carrier, [])
        for start, end in rest:
            queued = clip_merged(oncpu, oncpu_ends, start, end)
            for q_start, q_end in queued:
                out.append((q_start, q_end, "wait", carrier, None))
            for p_start, p_end in subtract_intervals([(start, end)], queued):
                out.append((p_start, p_end, "preempted", carrier, None))
        out.sort(key=lambda item: (item[0], item[1]))
        return out

    # -- queries ------------------------------------------------------------------------

    def spans_for(self, task: str) -> List[Span]:
        return [s for s in self.spans if s.task == task]

    def windows(
        self, cause: str, vcpu: Optional[str], lo: int, hi: int
    ) -> List[Interval]:
        """The merged *cause* windows of *vcpu* inside ``[lo, hi)``.

        *cause* is ``"admission_throttle"`` (host admission shed the
        VCPU), ``"budget_exhaustion"`` (its budget was depleted) or
        ``"hypercall_fault"`` (a dropped or delayed hypercall; host-wide,
        so *vcpu* is None).  Bisects the lists :meth:`finalize` merged.
        """
        intervals, ends = self._windows.get((cause, vcpu), ((), ()))
        return clip_merged(intervals, ends, lo, hi)
