"""Xen's Credit scheduler (the default Xen scheduler; paper §4.4 baseline).

A behavioural model of credit1 with the features the paper's
experiments exercise:

- **weights** — each VCPU earns credits every accounting period in
  proportion to its weight;
- **UNDER/OVER priorities** — positive credits run before exhausted ones;
- **BOOST on wake** — a blocked VCPU that wakes while UNDER is boosted
  above everyone and preempts, subject to the **ratelimit** (a running
  VCPU cannot be preempted before ``ratelimit_us``);
- **timeslice** — round-robin rotation within a priority class (the
  paper sets the global timeslice to 1 ms and ratelimit to 500 µs);
- **tick-sampled accounting** — credit1 debits a *full tick* of credits
  from whichever VCPU happens to be running when the 10 ms tick fires.
  A mostly idle, latency-critical VCPU that is unlucky enough to be
  sampled is driven into OVER and loses its boost until the next
  accounting period, during which its requests wait behind the whole
  round-robin of CPU-bound VMs.  This sampling artifact — well known in
  the Xen literature — is what produces Credit's multi-millisecond
  99.9th-percentile latency in Figure 5 while its average stays low.

Simplification (documented): one global run queue instead of per-PCPU
queues with work stealing; with the paper's workloads (CPU-bound
background VMs plus latency-critical VCPUs) the load balancer would keep
the queues effectively merged anyway.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from ..guest.vcpu import VCPU
from ..host.base_system import BaseSystem
from ..host.costs import DEFAULT_COSTS, CostModel
from ..host.scheduler import HostScheduler
from ..simcore.engine import Engine
from ..simcore.errors import ConfigurationError
from ..simcore.events import PRIORITY_BUDGET, PRIORITY_SCHEDULE, Event
from ..simcore.time import MSEC
from ..telemetry import events as T

BOOST = 0
UNDER = 1
OVER = 2

#: Xen's accepted credit1 weight range (``xl sched-credit -w``).
MIN_WEIGHT = 1
MAX_WEIGHT = 65535


class _CreditVCPU:
    """Per-VCPU credit state."""

    __slots__ = ("vcpu", "weight", "credits", "priority", "queued", "active", "consumed")

    def __init__(self, vcpu: VCPU, weight: int) -> None:
        self.vcpu = vcpu
        self.weight = weight
        self.credits = 0
        self.priority = UNDER
        self.queued = False
        # credit1's active/parked distinction: a VCPU that persistently
        # earns more than it burns is parked with zero credits and stops
        # earning until it consumes again.
        self.active = True
        self.consumed = 0


class CreditScheduler(HostScheduler):
    """Weight-based proportional-share scheduling with BOOST."""

    name = "credit"

    def __init__(
        self,
        timeslice_ns: int = 30 * MSEC,
        ratelimit_ns: int = MSEC,
        tick_ns: int = 10 * MSEC,
        accounting_ns: int = 30 * MSEC,
        wake_overhead_ns: int = 0,
    ) -> None:
        super().__init__()
        if timeslice_ns <= 0 or tick_ns <= 0 or accounting_ns <= 0:
            raise ConfigurationError("credit timing parameters must be positive")
        if ratelimit_ns < 0 or wake_overhead_ns < 0:
            raise ConfigurationError("ratelimit and wake overhead must be non-negative")
        self.timeslice_ns = timeslice_ns
        self.ratelimit_ns = ratelimit_ns
        self.tick_ns = tick_ns
        self.accounting_ns = accounting_ns
        self.wake_overhead_ns = wake_overhead_ns
        self._info: Dict[int, _CreditVCPU] = {}
        self._queues: Dict[int, Deque[_CreditVCPU]] = {
            BOOST: deque(),
            UNDER: deque(),
            OVER: deque(),
        }
        self._run_start: Dict[int, int] = {}  # pcpu -> time occupant started
        self._slice_events: Dict[int, Optional[Event]] = {}
        #: Diagnostics: how often tick sampling demoted a boosted/idle VCPU.
        self.tick_samples: Dict[str, int] = {}

    # -- population ---------------------------------------------------------------

    def add_vcpu(self, vcpu: VCPU, weight: int = 256) -> None:
        """Schedule *vcpu* with the given weight (Xen default 256)."""
        if not MIN_WEIGHT <= weight <= MAX_WEIGHT:
            raise ConfigurationError(
                f"weight must be in {MIN_WEIGHT}..{MAX_WEIGHT}, got {weight}"
            )
        if vcpu.uid in self._info:
            raise ConfigurationError(f"{vcpu.name} is already scheduled")
        self._info[vcpu.uid] = _CreditVCPU(vcpu, weight)

    def add_background_vcpu(self, vcpu: VCPU, weight: int = 256) -> None:
        """Credit makes no RT/background distinction; same as add_vcpu."""
        self.add_vcpu(vcpu, weight)

    def remove_vcpu(self, vcpu: VCPU) -> None:
        info = self._info.pop(vcpu.uid, None)
        if info is None:
            return
        self._dequeue(info)
        pcpu_index = self.machine.pcpu_of(vcpu)
        if pcpu_index is not None:
            self.machine.set_running(pcpu_index, None)
            self._pick_next(pcpu_index)

    @property
    def total_weight(self) -> int:
        return sum(i.weight for i in self._info.values()) or 1

    # -- queue helpers ---------------------------------------------------------------

    def _enqueue(self, info: _CreditVCPU, front: bool = False) -> None:
        if info.queued:
            return
        queue = self._queues[info.priority]
        if front:
            queue.appendleft(info)
        else:
            queue.append(info)
        info.queued = True

    def _dequeue(self, info: _CreditVCPU) -> None:
        if not info.queued:
            return
        # A queued VCPU always sits in the queue of its current priority:
        # every priority change dequeues first (accounting, idle) or
        # happens while the VCPU runs unqueued (timeslice de-boost).
        try:
            self._queues[info.priority].remove(info)
        except ValueError:  # pragma: no cover - invariant violation guard
            for queue in self._queues.values():
                try:
                    queue.remove(info)
                    break
                except ValueError:
                    continue
        info.queued = False

    def _runnable(self, info: _CreditVCPU) -> bool:
        return info.vcpu.vm.vcpu_has_work(info.vcpu)

    # -- accounting ----------------------------------------------------------------------

    def _tick(self) -> None:
        """credit1's per-tick debit: charge whoever is running right now."""
        self.machine.sync_all()
        for pcpu in self.machine.pcpus:
            occupant = pcpu.running_vcpu
            if occupant is None:
                continue
            info = self._info.get(occupant.uid)
            if info is None:
                continue
            was_solvent = info.credits >= 0
            info.credits -= self.tick_ns
            if self._t_budget and was_solvent and info.credits < 0:
                self.machine.bus.publish(
                    T.BUDGET_DEPLETE,
                    T.BudgetDepleteEvent(
                        self.engine.now, occupant.name, info.credits
                    ),
                )
            self.tick_samples[occupant.name] = self.tick_samples.get(occupant.name, 0) + 1
        delay = self.tick_ns
        if self._jitter_source is not None:
            # Fault injection: a sloppy tick timer samples late.
            delay += self.timer_jitter()
        self.engine.after(delay, self._tick, priority=PRIORITY_BUDGET, name="credit-tick")

    def _accounting(self) -> None:
        """Replenish credits by weight, park idlers, recompute priorities.

        Follows credit1's ``csched_acct``: only *active* VCPUs earn
        credits; one whose balance exceeds a full share (it earns more
        than tick sampling burns) is parked — credits zeroed, earning
        stopped — until it consumes CPU again.  A parked latency-critical
        VCPU sits at zero credits, so a single unlucky tick sample drives
        it into OVER and suspends its BOOST until the next accounting
        period; its requests then wait behind every UNDER VCPU.  This is
        the mechanism behind Credit's multi-millisecond tail in Figure 5.
        """
        self.machine.sync_all()
        total = self.total_weight
        grant_pool = self.machine.pcpu_count * self.accounting_ns
        for info in self._info.values():
            if not info.active and info.consumed > 0:
                info.active = True  # it ran: resume earning
            share = grant_pool * info.weight // total
            if info.active:
                info.credits += share
                if self._t_budget and share > 0:
                    self.machine.bus.publish(
                        T.BUDGET_REPLENISH,
                        T.BudgetReplenishEvent(
                            self.engine.now, info.vcpu.name, share, info.credits
                        ),
                    )
                if info.credits > share:
                    info.credits = 0
                    info.active = False
            info.consumed = 0
            new_priority = UNDER if info.credits >= 0 else OVER
            if info.priority != new_priority or info.priority == BOOST:
                was_queued = info.queued
                self._dequeue(info)
                info.priority = new_priority
                if was_queued:
                    self._enqueue(info)  # tail: de-boosted VCPUs requeue last
        self.engine.after(
            self.accounting_ns, self._accounting, priority=PRIORITY_BUDGET, name="credit-acct"
        )
        self._preempt_scan()

    def account(self, vcpu: VCPU, pcpu_index: int, elapsed: int) -> None:
        # credit1 debits only via tick sampling; continuous usage is just
        # recorded to drive the active/parked transitions.
        info = self._info.get(vcpu.uid)
        if info is not None:
            info.consumed += elapsed

    # -- dispatch ---------------------------------------------------------------------------

    def _pick_next(self, pcpu_index: int) -> None:
        """Run the head of the highest non-empty priority queue."""
        machine = self.machine
        if machine.pcpus[pcpu_index].failed:
            return
        examined = 0
        chosen: Optional[_CreditVCPU] = None
        for priority in (BOOST, UNDER, OVER):
            queue = self._queues[priority]
            for _ in range(len(queue)):
                info = queue[0]
                examined += 1
                if not self._runnable(info):
                    queue.popleft()
                    info.queued = False
                    continue
                if machine.pcpu_of(info.vcpu) is not None:
                    queue.rotate(-1)
                    continue
                chosen = queue.popleft()
                chosen.queued = False
                break
            if chosen is not None:
                break
        machine.charge_schedule(pcpu_index, elements=examined)
        old = machine.pcpus[pcpu_index].running_vcpu
        if old is not None and chosen is None:
            # Nothing better; keep the occupant but restart its timeslice
            # so the rotation continues once competitors appear.
            self._arm_timeslice(pcpu_index)
            return
        if old is not None:
            old_info = self._info.get(old.uid)
            if old_info is not None and self._runnable(old_info):
                self._enqueue(old_info, front=False)
        machine.set_running(pcpu_index, chosen.vcpu if chosen else None)
        self._run_start[pcpu_index] = self.engine.now
        self._arm_timeslice(pcpu_index)

    def _arm_timeslice(self, pcpu_index: int) -> None:
        previous = self._slice_events.get(pcpu_index)
        if previous is not None:
            self.engine.cancel(previous)
        if self.machine.pcpus[pcpu_index].running_vcpu is None:
            self._slice_events[pcpu_index] = None
            return
        self._slice_events[pcpu_index] = self.engine.after(
            self.timeslice_ns,
            self._timeslice_expired,
            pcpu_index,
            priority=PRIORITY_SCHEDULE,
            name="credit-slice",
        )

    def _timeslice_expired(self, pcpu_index: int) -> None:
        occupant = self.machine.pcpus[pcpu_index].running_vcpu
        if occupant is None:
            return
        info = self._info.get(occupant.uid)
        if info is not None and info.priority == BOOST:
            # A boosted VCPU that consumed a whole timeslice is de-boosted.
            info.priority = UNDER if info.credits >= 0 else OVER
        self._pick_next(pcpu_index)

    # -- notifications ------------------------------------------------------------------------

    def on_vcpu_wake(self, vcpu: VCPU) -> None:
        info = self._info.get(vcpu.uid)
        if info is None:
            return
        if self.machine.pcpu_of(vcpu) is not None or info.queued:
            return  # running or already runnable: no boost (credit1 rule)
        if info.priority == UNDER and info.credits >= 0:
            info.priority = BOOST
            self._enqueue(info, front=True)
        else:
            self._enqueue(info, front=False)
        self._preempt_scan()

    def on_vcpu_idle(self, vcpu: VCPU, pcpu_index: int) -> None:
        info = self._info.get(vcpu.uid)
        if info is not None:
            self._dequeue(info)
            if info.priority == BOOST:
                info.priority = UNDER if info.credits >= 0 else OVER
        self.machine.set_running(pcpu_index, None)
        self._pick_next(pcpu_index)

    # -- preemption ------------------------------------------------------------------------------

    def _preempt_scan(self) -> None:
        """Let queued BOOST VCPUs preempt lower-priority occupants.

        The ratelimit protects an occupant that started running less than
        ``ratelimit_ns`` ago; a re-check is scheduled for when its window
        expires.
        """
        if not self._queues[BOOST]:
            self._fill_idle_pcpus()
            return
        now = self.engine.now
        machine = self.machine
        for pcpu in machine.pcpus:
            if not self._queues[BOOST]:
                break
            if pcpu.failed:
                continue
            occupant = pcpu.running_vcpu
            if occupant is None:
                if self.wake_overhead_ns:
                    machine.charge_extra(pcpu.index, self.wake_overhead_ns)
                self._pick_next(pcpu.index)
                continue
            occ_info = self._info.get(occupant.uid)
            if occ_info is not None and occ_info.priority == BOOST:
                continue
            started = self._run_start.get(pcpu.index, 0)
            if now - started < self.ratelimit_ns:
                self.engine.at(
                    started + self.ratelimit_ns,
                    self._ratelimit_recheck,
                    pcpu.index,
                    priority=PRIORITY_SCHEDULE,
                    name="credit-ratelimit",
                )
                continue
            if self.wake_overhead_ns:
                machine.charge_extra(pcpu.index, self.wake_overhead_ns)
            self._pick_next(pcpu.index)
        self._fill_idle_pcpus()

    def _ratelimit_recheck(self, pcpu_index: int) -> None:
        if self._queues[BOOST]:
            if self.wake_overhead_ns:
                self.machine.charge_extra(pcpu_index, self.wake_overhead_ns)
            self._pick_next(pcpu_index)

    def _fill_idle_pcpus(self) -> None:
        for pcpu in self.machine.pcpus:
            if pcpu.running_vcpu is None and not pcpu.failed:
                has_waiter = any(
                    self._runnable(i) and self.machine.pcpu_of(i.vcpu) is None
                    for q in self._queues.values()
                    for i in q
                )
                if not has_waiter:
                    # Skipping this PCPU changes nothing a later idle
                    # PCPU's scan could observe, so the answer stays
                    # "no waiter" for the rest of the loop.
                    return
                self._pick_next(pcpu.index)

    # -- fault hooks ---------------------------------------------------------------------------------

    def on_pcpu_failed(self, pcpu_index: int, victim: Optional[VCPU]) -> None:
        """Requeue the evicted occupant and let it preempt elsewhere."""
        previous = self._slice_events.get(pcpu_index)
        if previous is not None:
            self.engine.cancel(previous)
            self._slice_events[pcpu_index] = None
        if victim is not None:
            info = self._info.get(victim.uid)
            if info is not None and self._runnable(info):
                self._enqueue(info, front=False)
        self._preempt_scan()

    def on_pcpu_recovered(self, pcpu_index: int) -> None:
        self._pick_next(pcpu_index)

    # -- lifecycle -----------------------------------------------------------------------------------

    def start(self) -> None:
        total = self.total_weight
        grant_pool = self.machine.pcpu_count * self.accounting_ns
        for info in self._info.values():
            info.credits = grant_pool * info.weight // total
            info.priority = UNDER
            if self._runnable(info):
                self._enqueue(info)
        self.engine.after(self.tick_ns, self._tick, priority=PRIORITY_BUDGET, name="credit-tick")
        self.engine.after(
            self.accounting_ns, self._accounting, priority=PRIORITY_BUDGET, name="credit-acct"
        )
        for pcpu in self.machine.pcpus:
            self._pick_next(pcpu.index)


class CreditSystem(BaseSystem):
    """A host running the Credit scheduler."""

    def __init__(
        self,
        pcpu_count: int,
        engine: Optional[Engine] = None,
        cost_model: CostModel = DEFAULT_COSTS,
        timeslice_ns: int = 30 * MSEC,
        ratelimit_ns: int = MSEC,
        wake_overhead_ns: int = 0,
    ) -> None:
        super().__init__(pcpu_count, engine, cost_model)
        self.scheduler = CreditScheduler(
            timeslice_ns=timeslice_ns,
            ratelimit_ns=ratelimit_ns,
            wake_overhead_ns=wake_overhead_ns,
        )
        self.machine.set_host_scheduler(self.scheduler)

    def create_vm(self, name: str, weight: int = 256, vcpu_count: int = 1):
        """Create a VM whose VCPUs are credit-scheduled with *weight*."""
        from ..guest.vm import VM

        vm = VM(name, vcpu_count=vcpu_count, slack_ns=0)
        vm.credit_weight = weight  # travels with the VM across migrations
        self._attach(vm)
        for vcpu in vm.vcpus:
            self.scheduler.add_vcpu(vcpu, weight)
        return vm

    def _enter_host_scheduler(self, vm) -> None:
        """Credit has no reservations; every VCPU re-enters by weight."""
        weight = getattr(vm, "credit_weight", 256)
        for vcpu in vm.vcpus:
            self.scheduler.add_vcpu(vcpu, weight)

    def create_background_vm(self, name: str, weight: int = 256, processes: int = 1):
        vm = self.create_vm(name, weight=weight)
        for _ in range(processes):
            vm.add_background_process()
        return vm
