"""The physical host model and simulation driver.

The machine owns the PCPUs and enforces the two-level execution
discipline:

- the **host scheduler** decides which VCPU occupies each PCPU, through
  :meth:`set_running`;
- the **guest scheduler** of the occupying VM decides which job that
  VCPU executes, re-evaluated by the machine's refresh pass after every
  event batch;
- the machine charges elapsed CPU time to the running job between
  events, maintains overhead windows from the :class:`CostModel`, and
  fires exact job-completion events.

Invariant: the (PCPU → VCPU → job) mapping only changes inside event
handlers, and every handler that changes it synchronizes charged work
first.  Work charging is exact integer arithmetic, so completion events
land precisely when the job's remaining work reaches zero.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..control import actions as A
from ..control.port import ActuationPort
from ..guest.task import Job
from ..guest.vcpu import VCPU
from ..guest.vm import VM
from ..metrics.overhead import HostMetrics
from ..simcore.engine import Engine
from ..simcore.errors import ConfigurationError, SchedulingError
from ..simcore.events import PRIORITY_COMPLETION, PRIORITY_SCHEDULE
from ..telemetry import events as T
from ..telemetry.bus import TelemetryBus
from .costs import DEFAULT_COSTS, CostModel
from .pcpu import PCPU


def _noop() -> None:
    """Placeholder callback for refresh-kick events."""


class Machine:
    """A multiprocessor host executing VMs under a host scheduler."""

    def __init__(
        self,
        engine: Engine,
        pcpu_count: int,
        cost_model: CostModel = DEFAULT_COSTS,
    ) -> None:
        if pcpu_count < 1:
            raise ConfigurationError("a machine needs at least one PCPU")
        self.engine = engine
        self.pcpus: List[PCPU] = [PCPU(i) for i in range(pcpu_count)]
        self.costs = cost_model
        #: Every producer on this host publishes typed events here; the
        #: watcher below caches per-kind interest flags so the hot paths
        #: pay one attribute test when nothing subscribes.
        self.bus = TelemetryBus()
        self.bus.watch(self._on_telemetry_change)
        self.metrics = HostMetrics()
        #: The actuation port every bandwidth/placement mutation on this
        #: host flows through.  Guest schedulers reach it through the
        #: machine they are attached to, the same way they reach the bus.
        #: The machine executes the cross-layer port calls; systems
        #: register their own mechanisms (admission, PCPU faults).
        self.control = ActuationPort()
        self.control.register(
            A.IncBandwidth.kind, lambda a: a.port.request_increase(a.updates)
        )
        self.control.register(
            A.DecBandwidth.kind, lambda a: a.port.notify_decrease(a.updates)
        )
        self.vms: List[VM] = []
        self.host_scheduler = None
        self._vcpu_pcpu: Dict[int, int] = {}  # vcpu uid -> pcpu index
        self._vcpu_last_pcpu: Dict[int, int] = {}  # for migration detection
        self._started = False
        self._kick = None
        #: PCPUs whose guest dispatch must be re-evaluated by the next
        #: refresh pass.  Every state change that can alter a PCPU's
        #: pick_job() answer, its completion target, or its idleness
        #: marks it here; untouched PCPUs are skipped entirely.
        self._dirty_pcpus: set = set(range(pcpu_count))
        #: gEDF guests couple their VCPUs through the claim table, so a
        #: refresh of one PCPU can change another's pick; fall back to
        #: scanning every occupied PCPU when such a VM is attached.
        self._has_gedf_vm = False
        #: Timestamp of the last full sync sweep (sync_all memoisation:
        #: a second sweep at the same instant is always a no-op).
        self._all_synced_at = -1
        #: Online-PCPU count, maintained by fail/recover instead of
        #: being recounted on every scheduling decision.
        self._available = pcpu_count
        #: Live completion-event targets (time -> count): host
        #: schedulers probe "does a running job finish at this very
        #: instant" with one membership test when deciding whether a
        #: pre-decision charge sweep can be skipped.
        self._completions_due: Dict[int, int] = {}
        engine.add_post_hook(self._refresh)

    def _on_telemetry_change(self, bus: TelemetryBus) -> None:
        """Refresh the cached per-kind interest flags (bus watcher)."""
        has = bus.has_subscribers
        self._t_segment = has(T.SEGMENT_END)
        self._t_switch = has(T.CONTEXT_SWITCH) or has(T.MIGRATION)
        self._t_complete = has(T.JOB_COMPLETE)
        self._t_deadline = (
            has(T.DEADLINE_HIT) or has(T.DEADLINE_MISS) or has(T.JOB_LATENCY)
        )
        self._t_fault = has(T.FAULT_INJECTED) or has(T.FAULT_RECOVERED)
        self._t_account = has(T.CPU_ACCOUNT)

    def _request_refresh(self) -> None:
        """Guarantee a refresh pass runs at the current instant.

        State changes made outside event handlers (e.g. a scheduler's
        synchronous start-up) would otherwise wait for the next event.
        Inside a batch no event is needed: the post-event refresh hook
        runs when the batch drains.
        """
        if self.engine.in_batch:
            return
        if self._kick is None or not self._kick.active:
            self._kick = self.engine.at(
                self.engine.now, _noop, priority=PRIORITY_SCHEDULE, name="refresh-kick"
            )

    # -- wiring -----------------------------------------------------------------

    @property
    def pcpu_count(self) -> int:
        return len(self.pcpus)

    @property
    def available_count(self) -> int:
        """Number of online PCPUs (cached; updated on fail/recover)."""
        return self._available

    def set_host_scheduler(self, scheduler) -> None:
        """Install the VMM-level scheduler."""
        self.host_scheduler = scheduler
        scheduler.attach(self)

    def attach_vm(self, vm: VM) -> None:
        """Bring *vm* under this machine's control."""
        if vm.machine is not None:
            raise ConfigurationError(f"VM {vm.name} is already attached")
        vm.machine = self
        for vcpu in vm.vcpus:
            # Replace the provisional process-global uid with a dense
            # engine-scoped one (stable across re-attach on migration).
            if not vcpu.uid_final:
                vcpu.uid = self.engine.next_uid()
                vcpu.uid_final = True
        self.vms.append(vm)
        vm.guest_scheduler.bind_telemetry(self.bus)
        if vm._is_gedf:
            self._has_gedf_vm = True

    def pcpu_of(self, vcpu: VCPU) -> Optional[int]:
        """PCPU currently running *vcpu*, or None."""
        return self._vcpu_pcpu.get(vcpu.uid)

    # -- work charging -------------------------------------------------------------

    def sync_pcpu(self, pcpu: PCPU) -> None:
        """Charge execution on *pcpu* from its last sync point to now."""
        now = self.engine._now
        last = pcpu.last_sync
        if last == now:
            return
        elapsed = now - last
        if elapsed < 0:  # pragma: no cover - engine invariant
            raise SchedulingError(f"PCPU {pcpu.index} synced into the past")
        until = pcpu.overhead_until
        if until > last:
            overhead = (until if until < now else now) - last
        else:
            overhead = 0
        effective = elapsed - overhead
        usage = pcpu.usage
        if usage is None:
            usage = pcpu.usage = self.metrics.pcpu(pcpu.index)
        usage.overhead += overhead
        vcpu = pcpu.running_vcpu
        job = pcpu.current_job
        if vcpu is not None and job is not None and effective > 0:
            job.charge(effective)
            usage.busy += effective
            if self._t_segment:
                self.bus.publish(
                    T.SEGMENT_END,
                    T.SegmentEndEvent(
                        now,
                        pcpu.index,
                        vcpu.name,
                        job.task.name,
                        max(last, now - effective),
                        now,
                    ),
                )
            if job.remaining == 0:
                # Retire immediately: a preemption at this exact instant
                # would otherwise cancel the pending completion event and
                # leave the finished job clogging the guest queue.
                self._retire(pcpu, job)
        if vcpu is not None and self.host_scheduler is not None:
            if self._t_account:
                self.bus.publish(
                    T.CPU_ACCOUNT,
                    T.CpuAccountEvent(now, vcpu.name, vcpu.uid, pcpu.index, elapsed),
                )
            self.host_scheduler.account(vcpu, pcpu.index, elapsed)
        pcpu.last_sync = now

    def sync_all(self) -> None:
        """Charge execution on every PCPU up to now.

        Memoised per instant: once every PCPU has been synced at the
        current time a repeat sweep is a no-op (``sync_pcpu`` with zero
        elapsed does nothing), so callers on the hot path can invoke
        this freely without paying O(pcpus) more than once per batch.
        """
        now = self.engine._now
        if self._all_synced_at == now:
            return
        for pcpu in self.pcpus:
            if pcpu.last_sync != now:
                self.sync_pcpu(pcpu)
        self._all_synced_at = now

    def sync_running(self, vcpu: VCPU) -> None:
        """Sync only the PCPU occupied by *vcpu* (no-op when not running).

        Targeted alternative to :meth:`sync_all` for scheduler paths that
        touch a single VCPU's accounting (budget replenish/exhaust).
        """
        index = self._vcpu_pcpu.get(vcpu.uid)
        if index is not None:
            self.sync_pcpu(self.pcpus[index])

    # -- overhead windows -------------------------------------------------------------

    def _extend_overhead(self, pcpu: PCPU, cost: int) -> None:
        if cost <= 0:
            return
        now = self.engine._now
        pcpu.overhead_until = max(pcpu.overhead_until, now) + cost
        # The overhead window pushes the PCPU's effective start, so any
        # armed completion target is stale until the next refresh.
        self._dirty_pcpus.add(pcpu.index)

    def charge_schedule(self, pcpu_index: int, elements: int = 0) -> None:
        """Charge one host schedule() invocation on *pcpu_index*.

        Host schedulers call this at every decision point; the cost both
        extends the PCPU's overhead window and feeds Table 6's accounting.
        """
        cost = self.costs.schedule_cost(elements)
        pcpu = self.pcpus[pcpu_index]
        if pcpu.last_sync != self.engine._now:
            self.sync_pcpu(pcpu)
        self._extend_overhead(pcpu, cost)
        self.metrics.overhead.record_schedule(cost)

    def charge_extra(self, pcpu_index: int, cost: int) -> None:
        """Charge an arbitrary scheduler-specific overhead (wake path etc.).

        Recorded under schedule() time in the overhead accounting.
        """
        if cost <= 0:
            return
        pcpu = self.pcpus[pcpu_index]
        self.sync_pcpu(pcpu)
        self._extend_overhead(pcpu, cost)
        self.metrics.overhead.record_schedule(cost)

    def charge_hypercall(self, pcpu_index: int = 0) -> None:
        """Charge one guest->host hypercall."""
        cost = self.costs.hypercall_ns
        pcpu = self.pcpus[pcpu_index]
        self.sync_pcpu(pcpu)
        self._extend_overhead(pcpu, cost)
        self.metrics.overhead.record_hypercall(cost)

    # -- host scheduler actions ----------------------------------------------------------

    def set_running(self, pcpu_index: int, vcpu: Optional[VCPU]) -> None:
        """Place *vcpu* (or nothing) on PCPU *pcpu_index*.

        Charges context-switch (and migration) overhead when the occupant
        changes.  A VCPU may occupy at most one PCPU; schedulers must
        vacate it first when moving it.
        """
        pcpu = self.pcpus[pcpu_index]
        old = pcpu.running_vcpu
        if old is vcpu:
            return
        if pcpu.last_sync != self.engine._now:
            self.sync_pcpu(pcpu)
        if old is not None:
            del self._vcpu_pcpu[old.uid]
            self._vcpu_last_pcpu[old.uid] = pcpu_index
            old.vm.on_vcpu_descheduled(old)
        if vcpu is not None:
            if pcpu.failed:
                raise SchedulingError(
                    f"cannot place {vcpu.name} on failed PCPU {pcpu_index}"
                )
            holder = self._vcpu_pcpu.get(vcpu.uid)
            if holder is not None:
                raise SchedulingError(
                    f"{vcpu.name} is already running on PCPU {holder}, "
                    f"cannot also run on {pcpu_index}"
                )
            self._vcpu_pcpu[vcpu.uid] = pcpu_index
            cost = self.costs.context_switch_ns
            migrated = (
                vcpu.uid in self._vcpu_last_pcpu
                and self._vcpu_last_pcpu[vcpu.uid] != pcpu_index
            )
            if cost > 0:
                self.metrics.overhead.record_context_switch(cost)
            if migrated and self.costs.migration_ns > 0:
                self.metrics.overhead.record_migration(self.costs.migration_ns)
                cost += self.costs.migration_ns
            self._extend_overhead(pcpu, cost)
            if self._t_switch:
                now = self.engine.now
                self.bus.publish(
                    T.CONTEXT_SWITCH,
                    T.ContextSwitchEvent(now, pcpu_index, vcpu.name, migrated),
                )
                if migrated:
                    self.bus.publish(
                        T.MIGRATION,
                        T.MigrationEvent(
                            now,
                            vcpu.name,
                            self._vcpu_last_pcpu[vcpu.uid],
                            pcpu_index,
                        ),
                    )
        elif self._t_switch:
            self.bus.publish(
                T.CONTEXT_SWITCH,
                T.ContextSwitchEvent(self.engine.now, pcpu_index, None, False),
            )
        pcpu.running_vcpu = vcpu
        pcpu.current_job = None
        pcpu.idle_notified = False
        self._cancel_completion(pcpu)
        self._dirty_pcpus.add(pcpu_index)
        self._request_refresh()

    # -- fault injection ------------------------------------------------------------------

    def fail_pcpu(self, pcpu_index: int) -> Optional[VCPU]:
        """Take PCPU *pcpu_index* offline (fault injection).

        Charges work up to now, evicts the current occupant (the victim
        is returned so callers/schedulers can migrate it), marks the
        PCPU failed and notifies the host scheduler.  Idempotent: failing
        an already-failed PCPU returns None and changes nothing.
        """
        pcpu = self.pcpus[pcpu_index]
        if pcpu.failed:
            return None
        victim = pcpu.running_vcpu
        if victim is not None:
            self.set_running(pcpu_index, None)
        pcpu.failed = True
        self._available -= 1
        # The eviction above already synced; an idle PCPU needs it still.
        self.sync_pcpu(pcpu)
        self._cancel_completion(pcpu)
        self._dirty_pcpus.discard(pcpu_index)
        if self._t_fault:
            self.bus.publish(
                T.FAULT_INJECTED,
                T.FaultInjectedEvent(
                    self.engine.now,
                    "pcpu_fail",
                    (pcpu_index, victim.name if victim is not None else None),
                ),
            )
        if self.host_scheduler is not None:
            self.host_scheduler.on_pcpu_failed(pcpu_index, victim)
        self._request_refresh()
        return victim

    def recover_pcpu(self, pcpu_index: int) -> None:
        """Bring a failed PCPU back online.  Idempotent."""
        pcpu = self.pcpus[pcpu_index]
        if not pcpu.failed:
            return
        pcpu.failed = False
        self._available += 1
        pcpu.last_sync = self.engine.now
        pcpu.overhead_until = self.engine.now
        pcpu.idle_notified = False
        # A promise made before the failure binds no one any more.
        pcpu.horizon = None
        self._dirty_pcpus.add(pcpu_index)
        if self._t_fault:
            self.bus.publish(
                T.FAULT_RECOVERED,
                T.FaultRecoveredEvent(
                    self.engine.now, "pcpu_recover", (pcpu_index, None)
                ),
            )
        if self.host_scheduler is not None:
            self.host_scheduler.on_pcpu_recovered(pcpu_index)
        self._request_refresh()

    def detach_vm(self, vm: VM) -> None:
        """Remove *vm* from this machine (VM shutdown churn).

        The caller (``BaseSystem.shutdown_vm``) is responsible for first
        unregistering the VM's tasks and removing its VCPUs from the
        host scheduler; this only severs the machine link.
        """
        if vm.machine is not self:
            raise ConfigurationError(f"VM {vm.name} is not attached to this machine")
        vm.machine = None
        self.vms.remove(vm)
        vm.guest_scheduler.unbind_telemetry()
        self._has_gedf_vm = any(v._is_gedf for v in self.vms)

    # -- notifications --------------------------------------------------------------------

    def notify_wake(self, vcpu: VCPU) -> None:
        """A job was released that *vcpu* may run (called by the VM)."""
        pcpu_index = self._vcpu_pcpu.get(vcpu.uid)
        if pcpu_index is not None:
            self.pcpus[pcpu_index].idle_notified = False
            # A running VCPU's guest pick may change with the new job.
            self._dirty_pcpus.add(pcpu_index)
        if self.host_scheduler is not None:
            self.host_scheduler.on_vcpu_wake(vcpu)

    def notify_dispatch_change(self, vm: VM) -> None:
        """Task churn in *vm* (register/adjust/unregister) may change the
        guest pick of any of its running VCPUs; re-evaluate them."""
        for pcpu in self.pcpus:
            occupant = pcpu.running_vcpu
            if occupant is not None and occupant.vm is vm:
                self._dirty_pcpus.add(pcpu.index)
        self._request_refresh()

    # -- completion management ----------------------------------------------------------------

    def _drop_completion_due(self, time: int) -> None:
        due = self._completions_due
        count = due.get(time, 0)
        if count <= 1:
            due.pop(time, None)
        else:
            due[time] = count - 1

    def set_horizon(self, pcpu_index: int, time: int) -> None:
        """The host scheduler promises to act on PCPU *pcpu_index* by *time*.

        Acting means running again on this PCPU at or before *time* and
        renewing the promise here.  Until then a completion whose target
        lies beyond *time* is not pushed: it keeps the sequence number
        it would have been pushed with, and is pushed by the renewal
        whose horizon reaches it — strictly before its target, so it
        fires with the same ``(time, priority, seq)`` key as an eagerly
        pushed one (DESIGN.md §6, "Deferred completions").
        """
        pcpu = self.pcpus[pcpu_index]
        pcpu.horizon = time
        deferred = pcpu.deferred_completion
        if deferred is not None and deferred[0] <= time:
            pcpu.deferred_completion = None
            self._push_completion(pcpu, *deferred)

    def _cancel_completion(self, pcpu: PCPU) -> None:
        pcpu.deferred_completion = None
        event = pcpu.completion_event
        if event is not None:
            if not event.cancelled and not event.consumed:
                self._drop_completion_due(event.time)
            self.engine.cancel(event)
            pcpu.completion_event = None

    def _schedule_completion(self, pcpu: PCPU, job: Job) -> None:
        target = pcpu.effective_start(self.engine._now) + job.remaining
        event = pcpu.completion_event
        if event is not None and event.active and event.time == target and event.args[1] is job:
            return
        deferred = pcpu.deferred_completion
        if deferred is not None and deferred[0] == target and deferred[1] is job:
            return
        self._cancel_completion(pcpu)
        horizon = pcpu.horizon
        if horizon is not None and target > horizon:
            pcpu.deferred_completion = (target, job, self.engine.reserve_seq())
        else:
            self._push_completion(pcpu, target, job, None)

    def _push_completion(
        self, pcpu: PCPU, target: int, job: Job, seq: Optional[int]
    ) -> None:
        pcpu.completion_event = self.engine.at(
            target,
            self._on_completion,
            pcpu,
            job,
            priority=PRIORITY_COMPLETION,
            name=job.task.completion_name,
            seq=seq,
        )
        due = self._completions_due
        due[target] = due.get(target, 0) + 1

    def _on_completion(self, pcpu: PCPU, job: Job) -> None:
        self._drop_completion_due(self.engine.now)
        pcpu.completion_event = None
        self.sync_pcpu(pcpu)  # retires the job as a side effect
        if job.completed_at is None:
            raise SchedulingError(
                f"completion event fired for {job!r} with work remaining "
                f"on PCPU {pcpu.index}"
            )

    def _retire(self, pcpu: PCPU, job: Job) -> None:
        now = self.engine.now
        job.task.retire_job(job, now)
        if pcpu.current_job is job:
            pcpu.current_job = None
        self._cancel_completion(pcpu)
        self._dirty_pcpus.add(pcpu.index)
        vcpu = pcpu.running_vcpu
        if vcpu is not None and self.host_scheduler is not None:
            self.host_scheduler.on_work_drained(vcpu)
        if self._t_complete:
            self.bus.publish(
                T.JOB_COMPLETE, T.JobCompleteEvent(now, job.task.name, job.index)
            )
        if self._t_deadline and job.deadline is not None:
            # Same outcome rule as DeadlineStats.record_completion.
            if now <= job.deadline:
                self.bus.publish(
                    T.DEADLINE_HIT,
                    T.DeadlineHitEvent(
                        now, job.task.name, job.index, job.release, job.deadline
                    ),
                )
            else:
                self.bus.publish(
                    T.DEADLINE_MISS,
                    T.DeadlineMissEvent(
                        now,
                        job.task.name,
                        job.index,
                        job.release,
                        job.deadline,
                        now - job.deadline,
                    ),
                )
            self.bus.publish(
                T.JOB_LATENCY,
                T.JobLatencyEvent(now, job.task.name, job.index, now - job.release),
            )

    # -- the refresh pass ----------------------------------------------------------------------

    def _refresh(self) -> None:
        """Re-evaluate guest dispatch after every event batch.

        Only PCPUs in the dirty set are touched: a PCPU whose dispatch
        inputs did not change since its last refresh picks the same job,
        keeps the same completion target (the target is invariant under
        elapsed time while the job runs), and reports no new idleness —
        so skipping it is an exact no-op.  The scan runs in ascending
        PCPU order; marks added *behind* the scan position during the
        pass are deferred to a kicked follow-up batch at the same
        instant, which is precisely when the former full scan would have
        handled them.

        gEDF guests couple VCPUs through the claim table (one VCPU's
        pick can change another's), so while such a VM is attached we
        fall back to the full scan.
        """
        if self.host_scheduler is None:
            return
        now = self.engine._now
        if self._has_gedf_vm:
            self.sync_all()
            self._dirty_pcpus.clear()
            for pcpu in self.pcpus:
                self._refresh_pcpu(pcpu, now)
            return
        dirty = self._dirty_pcpus
        if not dirty:
            return
        last = -1
        while True:
            # Min of the marks ahead of the scan front, in one pass and
            # without a scratch list (this runs after every event batch).
            index = -1
            for i in dirty:
                if i > last and (index < 0 or i < index):
                    index = i
            if index < 0:
                break
            dirty.discard(index)
            last = index
            self._refresh_pcpu(self.pcpus[index], now)
            # Marks the processing itself put on this PCPU (a retire
            # during its sync, a guest-switch overhead extension) are
            # consumed by the pick/re-arm that follows them; drop them
            # so they do not trigger a pointless kicked follow-up.
            dirty.discard(index)
        if dirty:
            # Marks at or behind the scan front: handle next batch.
            self._request_refresh()

    def _refresh_pcpu(self, pcpu: PCPU, now: int) -> None:
        """Re-evaluate guest dispatch on one PCPU (see :meth:`_refresh`)."""
        if pcpu.last_sync != now:
            self.sync_pcpu(pcpu)
        vcpu = pcpu.running_vcpu
        if vcpu is None:
            return
        job = vcpu.vm.pick_job(vcpu, now)
        if job is not None and job.done:
            job = None
        if job is not pcpu.current_job:
            if (
                pcpu.current_job is not None
                and job is not None
                and self.costs.guest_switch_ns > 0
            ):
                self._extend_overhead(pcpu, self.costs.guest_switch_ns)
            pcpu.current_job = job
        if job is not None:
            pcpu.idle_notified = False
            self._schedule_completion(pcpu, job)
        else:
            self._cancel_completion(pcpu)
            if not pcpu.idle_notified:
                pcpu.idle_notified = True
                self.engine.at(
                    now,
                    self._report_idle,
                    pcpu,
                    vcpu,
                    priority=PRIORITY_SCHEDULE,
                    name=vcpu.idle_name,
                )

    def _report_idle(self, pcpu: PCPU, vcpu: VCPU) -> None:
        if pcpu.running_vcpu is not vcpu:
            return  # assignment changed in the meantime
        if vcpu.vm.vcpu_has_work(vcpu):
            return  # work arrived at the same instant
        self.host_scheduler.on_vcpu_idle(vcpu, pcpu.index)

    # -- run ------------------------------------------------------------------------------------

    def start(self) -> None:
        """Start the host scheduler (idempotent)."""
        if self.host_scheduler is None:
            raise ConfigurationError("no host scheduler installed")
        if not self._started:
            self._started = True
            self.host_scheduler.start()

    def run(self, until: int) -> None:
        """Run the simulation up to absolute time *until*."""
        self.start()
        self.engine.run_until(until)
        self.sync_all()

    def finalize(self) -> None:
        """Close out end-of-run accounting on every VM."""
        self.sync_all()
        for vm in self.vms:
            vm.finalize(self.engine.now)

    def total_cpu_time(self) -> int:
        """Wall time elapsed times the number of PCPUs (Table 6 denominator)."""
        return self.engine.now * len(self.pcpus)
