"""The RTA (real-time application) task model.

Follows the paper's task model exactly: a task requires a CPU-time slice
``s`` every period ``p``; the deadline of each job is the end of its
period.  Periodic tasks release a job every ``p``; sporadic tasks are
released by an external arrival process with a minimum inter-arrival of
``p``.  Background tasks model non-time-sensitive CPU-bound processes:
they always have work and no deadlines.

Tasks do not schedule themselves — a workload driver releases jobs
through :meth:`Task.release_job`, and the guest scheduler decides which
pending job a VCPU executes.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from typing import Callable, List, Optional

from ..metrics.deadlines import DeadlineStats
from ..simcore.errors import ConfigurationError, SimulationError
from ..simcore.time import bandwidth

#: Effectively-infinite work for background tasks (≈ 292 simulated years).
_BACKGROUND_WORK = 2**63


class TaskKind(enum.Enum):
    """How jobs of a task arrive."""

    PERIODIC = "periodic"
    SPORADIC = "sporadic"
    BACKGROUND = "background"


class Job:
    """One activation of a task: a unit of CPU work with a deadline."""

    __slots__ = (
        "task",
        "index",
        "release",
        "deadline",
        "work",
        "remaining",
        "completed_at",
        "on_complete",
    )

    def __init__(
        self,
        task: "Task",
        index: int,
        release: int,
        deadline: Optional[int],
        work: int,
        on_complete: Optional[Callable[["Job"], None]] = None,
    ) -> None:
        if work <= 0:
            raise ConfigurationError(f"job work must be positive, got {work}")
        self.task = task
        self.index = index
        self.release = release
        self.deadline = deadline
        self.work = work
        self.remaining = work
        self.completed_at: Optional[int] = None
        self.on_complete = on_complete

    @property
    def done(self) -> bool:
        return self.remaining == 0

    def charge(self, amount: int) -> None:
        """Consume *amount* ns of this job's remaining work."""
        if amount < 0:
            raise SimulationError(f"negative charge {amount}")
        if amount > self.remaining:
            raise SimulationError(
                f"job {self.task.name}#{self.index} overcharged: "
                f"{amount} > remaining {self.remaining}"
            )
        self.remaining -= amount

    def complete(self, now: int) -> None:
        """Mark the job finished at *now* and record its outcome."""
        if not self.done:
            raise SimulationError(
                f"completing job {self.task.name}#{self.index} with "
                f"{self.remaining} ns of work left"
            )
        if self.completed_at is not None:
            raise SimulationError(f"job {self.task.name}#{self.index} completed twice")
        self.completed_at = now
        if self.deadline is not None:
            self.task.stats.record_completion(self.deadline, now)
        if self.on_complete is not None:
            self.on_complete(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Job {self.task.name}#{self.index} rel={self.release} "
            f"dl={self.deadline} rem={self.remaining}/{self.work}>"
        )


class Task:
    """A guest-level application thread with timeliness requirements."""

    _ids = itertools.count()

    def __init__(
        self,
        name: str,
        slice_ns: int,
        period_ns: int,
        kind: TaskKind = TaskKind.PERIODIC,
    ) -> None:
        if kind is not TaskKind.BACKGROUND:
            if slice_ns <= 0 or period_ns <= 0:
                raise ConfigurationError(
                    f"task {name}: slice and period must be positive "
                    f"(got {slice_ns}, {period_ns})"
                )
            if slice_ns > period_ns:
                raise ConfigurationError(
                    f"task {name}: slice {slice_ns} exceeds period {period_ns}"
                )
        self.name = name
        #: Completion-event name, formatted once instead of per arming.
        self.completion_name = f"complete:{name}"
        self.seq = next(Task._ids)
        self.slice_ns = slice_ns
        self.period_ns = period_ns
        self.kind = kind
        self.stats = DeadlineStats()
        self.pending: List[Job] = []  # released, unfinished jobs, FIFO by release
        self._job_counter = itertools.count()
        self.vcpu = None  # set by the guest scheduler when the task is pinned
        self.vm = None  # set on VM.add_task / registration
        self.last_release: Optional[int] = None

    # -- parameters --------------------------------------------------------

    @property
    def bandwidth(self) -> Fraction:
        """Required CPU bandwidth s/p (0 for background tasks)."""
        if self.kind is TaskKind.BACKGROUND:
            return Fraction(0)
        return bandwidth(self.slice_ns, self.period_ns)

    def set_requirement(self, slice_ns: int, period_ns: int) -> None:
        """Change the task's (slice, period).

        Takes effect for jobs released afterwards; the registration layer
        is responsible for re-negotiating bandwidth with the schedulers.
        """
        if slice_ns <= 0 or period_ns <= 0 or slice_ns > period_ns:
            raise ConfigurationError(
                f"task {self.name}: invalid requirement ({slice_ns}, {period_ns})"
            )
        self.slice_ns = slice_ns
        self.period_ns = period_ns

    # -- job lifecycle ------------------------------------------------------

    def release_job(
        self,
        now: int,
        work: Optional[int] = None,
        relative_deadline: Optional[int] = None,
        on_complete: Optional[Callable[[Job], None]] = None,
    ) -> Job:
        """Release a new job at *now*.

        *work* defaults to the task's slice; *relative_deadline* defaults
        to the period (the standard implicit-deadline model).  Sporadic
        releases earlier than the minimum inter-arrival raise.
        """
        if self.kind is TaskKind.SPORADIC and self.last_release is not None:
            if now - self.last_release < self.period_ns:
                raise SimulationError(
                    f"sporadic task {self.name} released {now - self.last_release} ns "
                    f"after previous release (minimum {self.period_ns})"
                )
        if self.kind is TaskKind.BACKGROUND:
            job_work = work if work is not None else _BACKGROUND_WORK
            deadline = None
        else:
            job_work = work if work is not None else self.slice_ns
            rel = relative_deadline if relative_deadline is not None else self.period_ns
            deadline = now + rel
            self.stats.record_release()
        job = Job(self, next(self._job_counter), now, deadline, job_work, on_complete)
        self.pending.append(job)
        self.last_release = now
        self._notify_pending(1)
        return job

    def head_job(self) -> Optional[Job]:
        """The earliest pending job in release order (FIFO within a task)."""
        return self.pending[0] if self.pending else None

    def retire_job(self, job: Job, now: int) -> None:
        """Complete *job* and drop it from the pending queue."""
        job.complete(now)
        self.pending.remove(job)
        self._notify_pending(-1)

    def _notify_pending(self, delta: int) -> None:
        """Keep the VCPU/VM pending-job counters in step with this queue.

        The counters make ``has_work`` O(1) on the scheduler hot path;
        every mutation of :attr:`pending` must route through here (or
        through the pin/registration transfer paths).
        """
        vcpu = self.vcpu
        if vcpu is not None:
            vcpu._pending_jobs += delta
        vm = self.vm
        if vm is not None:
            vm._pending_jobs += delta

    @property
    def has_work(self) -> bool:
        return bool(self.pending)

    def earliest_pending_deadline(self) -> Optional[int]:
        """Earliest deadline among pending jobs, None when idle/undeadlined."""
        best: Optional[int] = None
        for job in self.pending:
            deadline = job.deadline
            if deadline is not None and (best is None or deadline < best):
                best = deadline
        return best

    def next_worst_case_deadline(self, now: int) -> Optional[int]:
        """The next *scheduling boundary* a future job of this task imposes.

        Deadline partitioning requires global slices to end wherever a
        task's demand changes.  For a periodic task that is the next
        release instant itself: the job released there has a deadline one
        period later and must receive its proportional share from the
        release onward, so no slice may span the release.  (While a job
        is pending, the next release coincides with its deadline in the
        implicit-deadline model, so this is exactly "the union of all the
        tasks' deadlines" from the paper; once a job completes early, the
        release boundary must still be respected.)

        For a sporadic task the release time is unknown; the paper's
        worst-case rule applies: the next activation may occur as soon as
        one period after the previous one (or immediately, if that point
        has passed), and the host reserves for a deadline one period
        after that instant.  Background tasks impose no boundaries.
        """
        if self.kind is TaskKind.BACKGROUND:
            return None
        if self.last_release is None:
            next_release = now
        elif self.kind is TaskKind.PERIODIC:
            return self.last_release + self.period_ns
        else:  # sporadic: minimum inter-arrival
            next_release = max(now, self.last_release + self.period_ns)
        return next_release + self.period_ns

    def finalize(self, end_time: int) -> None:
        """Account jobs still unfinished when the simulation ends."""
        for job in self.pending:
            if job.deadline is not None:
                self.task_abandon(job, end_time)

    def task_abandon(self, job: Job, end_time: int) -> None:
        self.stats.record_abandoned(deadline_passed=job.deadline < end_time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name} ({self.slice_ns}, {self.period_ns}) {self.kind.value}>"


def make_background_task(name: str) -> Task:
    """A CPU-bound task with unbounded work and no deadline."""
    task = Task(name, slice_ns=0, period_ns=1, kind=TaskKind.BACKGROUND)
    return task
