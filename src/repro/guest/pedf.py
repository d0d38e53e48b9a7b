"""Partitioned-EDF guest scheduler (RTVirt's guest side, paper §3.2).

Responsibilities:

1. **Admission + placement.** When an RTA registers, find a VCPU with
   enough bandwidth (first-fit).  Before pinning, request the increased
   bandwidth from the host through the cross-layer port (the
   ``sched_rtvirt()`` hypercall with INC_BW).  Only pin once granted.
2. **Adjustment.** Bandwidth increases are handled like registration; if
   the task must move to a different VCPU, both VCPUs' parameters change
   in one INC_DEC_BW request.  Decreases always succeed (DEC_BW).
3. **Reshuffling.** If the VM has enough total bandwidth but it is
   fragmented across VCPUs, re-pack the RTAs (first-fit decreasing).
4. **CPU hotplug.** When even reshuffling cannot fit the task, add a
   VCPU online (if the VM's limit allows) and place the task there.
5. **Dispatch.** Within a VCPU, pending jobs run in EDF order — the
   dispatch itself lives on :meth:`repro.guest.vcpu.VCPU.pick_job`;
   pEDF never migrates jobs between VCPUs.
"""

from __future__ import annotations

from typing import List, Optional

from ..control.actions import DecBandwidth, IncBandwidth
from ..simcore.errors import AdmissionError, ConfigurationError
from ..telemetry import events as T
from .params import derive_vcpu_params, fits_on_vcpu
from .port import ParamUpdate
from .task import Job, Task, TaskKind
from .vcpu import VCPU


class PEDFGuestScheduler:
    """Partitioned EDF over the VM's VCPUs with cross-layer admission."""

    name = "pEDF"
    #: How released jobs queue for dispatch: pEDF keeps one local queue
    #: per VCPU (jobs never migrate); gEDF overrides with ``"global"``.
    enqueue_scope = "local"

    def __init__(self, vm, slack_ns: int = 0) -> None:
        if slack_ns < 0:
            raise ConfigurationError(f"negative slack {slack_ns}")
        self.vm = vm
        self.slack_ns = slack_ns
        #: Cached interest flag for the release-path events, refreshed
        #: by the bus watcher installed in :meth:`bind_telemetry` (the
        #: same zero-subscriber guard every other producer site uses).
        self._t_release = False
        self._unwatch = None

    # -- telemetry wiring ----------------------------------------------------

    def bind_telemetry(self, bus) -> None:
        """Watch *bus* so the release hot path pays one attribute test.

        Called when the VM attaches to a machine; churn-booted VMs bind
        here too, so a consumer subscribed before the boot still sees
        their release events.
        """
        self.unbind_telemetry()
        self._unwatch = bus.watch(self._on_telemetry_change)

    def unbind_telemetry(self) -> None:
        if self._unwatch is not None:
            self._unwatch()
            self._unwatch = None
        self._t_release = False

    def _on_telemetry_change(self, bus) -> None:
        has = bus.has_subscribers
        self._t_release = has(T.JOB_RELEASE) or has(T.ENQUEUE)

    def on_job_released(self, task: Task, job: Job, now: int) -> None:
        """Announce a released job (span producers; zero cost unwatched).

        Background jobs carry no deadline and are not announced — spans
        trace timeliness, and background work has none.
        """
        if not self._t_release or job.deadline is None:
            return
        machine = self.vm.machine
        if machine is None:
            return
        bus = machine.bus
        vcpu_name = task.vcpu.name if task.vcpu is not None else None
        if bus.has_subscribers(T.JOB_RELEASE):
            bus.publish(
                T.JOB_RELEASE,
                T.JobReleaseEvent(
                    now,
                    self.vm.name,
                    vcpu_name,
                    task.name,
                    job.index,
                    job.release,
                    job.deadline,
                ),
            )
        if bus.has_subscribers(T.ENQUEUE):
            bus.publish(
                T.ENQUEUE,
                T.EnqueueEvent(
                    now,
                    self.vm.name,
                    vcpu_name,
                    task.name,
                    job.index,
                    self.enqueue_scope,
                ),
            )

    # -- cross-layer actuation ------------------------------------------------

    def _request_increase(self, updates: List[ParamUpdate]) -> bool:
        """INC_BW/INC_DEC_BW through the host's actuation port.

        A VM that sits on no machine has no host to ask, so it calls its
        cross-layer port directly.
        """
        machine = self.vm.machine
        if machine is None:
            return self.vm.port.request_increase(updates)
        return machine.control.submit(IncBandwidth(self.vm.port, tuple(updates)))

    def _notify_decrease(self, updates: List[ParamUpdate]) -> None:
        """DEC_BW through the host's actuation port (never rejected)."""
        machine = self.vm.machine
        if machine is None:
            self.vm.port.notify_decrease(updates)
        else:
            machine.control.submit(DecBandwidth(self.vm.port, tuple(updates)))

    # -- placement helpers ---------------------------------------------------

    def _params_update(self, vcpu: VCPU, tasks: List[Task]) -> ParamUpdate:
        params = derive_vcpu_params(tasks, self.slack_ns)
        return (vcpu, params.budget_ns, params.period_ns)

    def _first_fit(self, task: Task, exclude: Optional[VCPU] = None) -> Optional[VCPU]:
        for vcpu in self.vm.vcpus:
            if vcpu is exclude:
                continue
            if fits_on_vcpu(vcpu.rt_tasks(), task, self.slack_ns):
                return vcpu
        return None

    def _emit_admission(self, op: str, task: Task, granted: bool, detail: str) -> None:
        """Publish a guest-level admission decision (when anyone listens)."""
        machine = getattr(self.vm, "machine", None)
        if machine is None:
            return
        bus = machine.bus
        if not bus.has_subscribers(T.ADMISSION_DECISION):
            return
        bus.publish(
            T.ADMISSION_DECISION,
            T.AdmissionDecisionEvent(
                machine.engine.now,
                "guest",
                op,
                task.name,
                granted,
                detail,
                self.vm.name,
            ),
        )

    # -- registration (paper §3.2 case 1) --------------------------------------

    def register(self, task: Task) -> VCPU:
        """Admit *task*; returns the VCPU it was pinned to.

        Raises :class:`AdmissionError` when neither placement, reshuffling
        nor hotplug can accommodate the task.
        """
        try:
            vcpu = self._register(task)
        except AdmissionError as exc:
            self._emit_admission("register", task, False, exc.level)
            raise
        self._emit_admission("register", task, True, vcpu.name)
        return vcpu

    def _register(self, task: Task) -> VCPU:
        if task.kind is TaskKind.BACKGROUND:
            # Background processes need no reservation; spread round-robin.
            vcpu = self.vm.vcpus[len(self.vm.background_tasks) % len(self.vm.vcpus)]
            vcpu.pin_task(task)
            return vcpu
        vcpu = self._first_fit(task)
        if vcpu is not None:
            update = self._params_update(vcpu, vcpu.rt_tasks() + [task])
            if self._request_increase([update]):
                vcpu.pin_task(task)
                return vcpu
            raise AdmissionError(
                f"host rejected bandwidth for {task.name} on {vcpu.name}", level="host"
            )
        placed = self._try_reshuffle(new_task=task)
        if placed is not None:
            return placed
        placed = self._try_hotplug(task)
        if placed is not None:
            return placed
        raise AdmissionError(
            f"VM {self.vm.name} has no VCPU bandwidth for {task.name} "
            f"(needs {float(task.bandwidth):.3f})",
            level="guest",
        )

    # -- adjustment (paper §3.2 cases 2-3) ---------------------------------------

    def adjust(self, task: Task, slice_ns: int, period_ns: int) -> VCPU:
        """Change *task*'s requirement; returns the (possibly new) VCPU."""
        if task.vcpu is None:
            raise ConfigurationError(f"task {task.name} is not registered")
        old = (task.slice_ns, task.period_ns)
        current = task.vcpu
        task.set_requirement(slice_ns, period_ns)
        others = [t for t in current.rt_tasks() if t is not task]
        if fits_on_vcpu(others, task, self.slack_ns):
            update = self._params_update(current, others + [task])
            increase = task.bandwidth > 0 and (
                update[1] * current.period_ns > current.budget_ns * update[2]
            )
            if increase:
                if self._request_increase([update]):
                    return current
                task.set_requirement(*old)
                raise AdmissionError(
                    f"host rejected increased bandwidth for {task.name}", level="host"
                )
            self._notify_decrease([update])
            return current
        # Must move to another VCPU: INC_DEC_BW over both VCPUs at once.
        # CPU hotplug provides a fresh VCPU when none has room (§3.2).
        target = self._first_fit(task, exclude=current)
        if target is None and fits_on_vcpu([], task, self.slack_ns):
            target = self.vm.hotplug_vcpu()
        if target is not None:
            updates = [
                self._params_update(target, target.rt_tasks() + [task]),
                self._decrease_update(current, others),
            ]
            if self._request_increase(updates):
                target.pin_task(task)
                return target
            task.set_requirement(*old)
            raise AdmissionError(
                f"host rejected INC_DEC_BW move of {task.name}", level="host"
            )
        placed = self._try_reshuffle(new_task=None)
        if placed is not None and fits_on_vcpu(
            [t for t in task.vcpu.rt_tasks() if t is not task], task, self.slack_ns
        ):
            return self.adjust(task, slice_ns, period_ns)
        task.set_requirement(*old)
        raise AdmissionError(
            f"VM {self.vm.name} cannot satisfy new requirement of {task.name}",
            level="guest",
        )

    def _decrease_update(self, vcpu: VCPU, tasks: List[Task]) -> ParamUpdate:
        if tasks:
            return self._params_update(vcpu, tasks)
        return (vcpu, 0, max(vcpu.period_ns, 1))

    # -- unregistration (paper §3.2 case 4) ----------------------------------------

    def unregister(self, task: Task) -> None:
        """Remove *task* and release its bandwidth (DEC_BW)."""
        vcpu = task.vcpu
        if vcpu is None:
            raise ConfigurationError(f"task {task.name} is not registered")
        vcpu.unpin_task(task)
        if task.kind is TaskKind.BACKGROUND:
            return
        remaining = vcpu.rt_tasks()
        self._notify_decrease([self._decrease_update(vcpu, remaining)])

    # -- reshuffling and hotplug ------------------------------------------------

    def _try_reshuffle(self, new_task: Optional[Task]) -> Optional[VCPU]:
        """Re-pack all RTAs first-fit-decreasing; returns new_task's VCPU.

        Only attempted when registration/adjustment fails with fragmented
        bandwidth (paper §3.2).  The whole new layout is submitted to the
        host as a single atomic update batch.
        """
        tasks = [t for v in self.vm.vcpus for t in v.rt_tasks()]
        if new_task is not None:
            tasks.append(new_task)
        layout = self._pack(tasks, len(self.vm.vcpus))
        if layout is None:
            return None
        updates: List[ParamUpdate] = []
        for vcpu, assigned in zip(self.vm.vcpus, layout):
            if assigned:
                updates.append(self._params_update(vcpu, assigned))
            else:
                updates.append(self._decrease_update(vcpu, []))
        if not self._request_increase(updates):
            return None
        target = None
        for vcpu, assigned in zip(self.vm.vcpus, layout):
            for t in assigned:
                vcpu.pin_task(t)
                if t is new_task:
                    target = vcpu
        return target if new_task is not None else self.vm.vcpus[0]

    def _pack(self, tasks: List[Task], bins: int) -> Optional[List[List[Task]]]:
        """First-fit-decreasing bin packing; None when it does not fit."""
        layout: List[List[Task]] = [[] for _ in range(bins)]
        for task in sorted(tasks, key=lambda t: (-t.bandwidth, t.seq)):
            placed = False
            for assigned in layout:
                if fits_on_vcpu(assigned, task, self.slack_ns):
                    assigned.append(task)
                    placed = True
                    break
            if not placed:
                return None
        return layout

    def _try_hotplug(self, task: Task) -> Optional[VCPU]:
        """Add a VCPU online (paper §3.2) and place *task* on it."""
        vcpu = self.vm.hotplug_vcpu()
        if vcpu is None:
            return None
        update = self._params_update(vcpu, [task])
        if self._request_increase([update]):
            vcpu.pin_task(task)
            return vcpu
        return None

    # -- dispatch hooks -----------------------------------------------------------

    def pick_job(self, vcpu: VCPU, now: int) -> Optional[Job]:
        """pEDF dispatch: delegate to the VCPU's local EDF queue."""
        return vcpu.pick_job(now)

    def on_vcpu_descheduled(self, vcpu: VCPU) -> None:
        """pEDF has no cross-VCPU state to release."""
