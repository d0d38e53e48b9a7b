"""Virtual CPUs.

A VCPU is the unit the host scheduler reasons about.  It carries:

- the set of guest tasks currently pinned to it (pEDF pins tasks),
- host-visible scheduling parameters (budget, period — i.e. bandwidth),
- the local EDF dispatch logic that chooses which pending job runs when
  the host gives this VCPU physical CPU time.

The host never looks inside the task list; under RTVirt it sees only the
parameters and the next-earliest-deadline word the guest publishes via
shared memory, which is the paper's minimal-information-sharing design.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import List, Optional

from ..simcore.errors import ConfigurationError
from ..telemetry import events as T
from .task import Job, Task, TaskKind


class VCPU:
    """One virtual CPU of a VM."""

    _ids = itertools.count()

    def __init__(self, vm, index: int) -> None:
        self.vm = vm
        self.index = index
        # Provisional process-global uid; machine attach replaces it
        # with a dense engine-scoped one (see Machine.attach_vm) so
        # recorded telemetry is reproducible across processes.
        self.uid = next(VCPU._ids)
        self.uid_final = False
        self.name = f"{vm.name}.vcpu{index}"
        #: Idle-report event name, formatted once instead of per report.
        self.idle_name = f"idle:{self.name}"
        #: Reservation-piece event name (DP-WRAP), formatted once instead
        #: of per slice — the layout arms one event per piece.
        self.piece_name = f"piece:{self.name}"
        self.tasks: List[Task] = []
        # Host-visible reservation parameters (set via the cross-layer
        # interface under RTVirt, or statically for the baselines).
        self.budget_ns: int = 0
        self.period_ns: int = 0
        #: True once the host scheduler has admitted this VCPU.
        self.admitted = False
        #: Pending jobs across pinned tasks (kept exact by the task layer
        #: so :attr:`has_work` is O(1) on the scheduler hot path).
        self._pending_jobs = 0

    # -- host-visible parameters --------------------------------------------

    @property
    def bandwidth(self) -> Fraction:
        """Reserved bandwidth budget/period (0 when unconfigured)."""
        if self.period_ns <= 0:
            return Fraction(0)
        return Fraction(self.budget_ns, self.period_ns)

    def set_params(self, budget_ns: int, period_ns: int) -> None:
        """Set the host-visible (budget, period) reservation."""
        if budget_ns < 0 or period_ns <= 0:
            raise ConfigurationError(
                f"{self.name}: invalid params budget={budget_ns} period={period_ns}"
            )
        self.budget_ns = budget_ns
        self.period_ns = period_ns
        machine = getattr(self.vm, "machine", None)
        if machine is not None and machine.bus.has_subscribers(T.VCPU_PARAMS):
            machine.bus.publish(
                T.VCPU_PARAMS,
                T.VcpuParamsEvent(
                    machine.engine.now, self.name, self.uid, budget_ns, period_ns
                ),
            )

    # -- task management ------------------------------------------------------

    def pin_task(self, task: Task) -> None:
        """Pin *task* to this VCPU (pEDF placement)."""
        if task.vcpu is not None:
            task.vcpu.unpin_task(task)
        task.vcpu = self
        self.tasks.append(task)
        self._pending_jobs += len(task.pending)

    def unpin_task(self, task: Task) -> None:
        """Remove *task* from this VCPU."""
        self.tasks.remove(task)
        task.vcpu = None
        self._pending_jobs -= len(task.pending)

    def rt_tasks(self) -> List[Task]:
        """Pinned tasks that have deadlines (periodic or sporadic)."""
        return [t for t in self.tasks if t.kind is not TaskKind.BACKGROUND]

    # -- dispatch --------------------------------------------------------------

    def pick_job(self, now: int) -> Optional[Job]:
        """EDF dispatch: the pending job with the earliest deadline.

        Jobs without deadlines (background) run only when no deadline job
        is pending.  Ties break on task registration order then job index,
        keeping the simulation deterministic.
        """
        best: Optional[Job] = None
        best_key = None
        for task in self.tasks:
            job = task.head_job()
            if job is None:
                continue
            key = (
                0 if job.deadline is not None else 1,
                job.deadline if job.deadline is not None else 0,
                task.seq,
                job.index,
            )
            if best_key is None or key < best_key:
                best = job
                best_key = key
        return best

    @property
    def has_work(self) -> bool:
        """True when any pinned task has a pending job.  O(1)."""
        return self._pending_jobs > 0

    # -- cross-layer information ------------------------------------------------

    def next_earliest_deadline(self, now: int) -> Optional[int]:
        """The value the guest publishes to the host via shared memory.

        The minimum over (a) deadlines of already-released jobs and
        (b) the worst-case earliest deadline of each task's next job
        (paper §3.3: exact for periodic tasks, the minimum-inter-arrival
        bound for sporadic tasks).  None when no RT task is pinned.
        """
        best: Optional[int] = None
        for task in self.tasks:
            if task.kind is TaskKind.BACKGROUND:
                continue
            pending = task.earliest_pending_deadline()
            if pending is not None and (best is None or pending < best):
                best = pending
            upcoming = task.next_worst_case_deadline(now)
            if upcoming is not None and (best is None or upcoming < best):
                best = upcoming
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VCPU {self.name} bw={self.bandwidth} tasks={len(self.tasks)}>"
