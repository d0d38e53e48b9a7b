"""Host-level (global) EDF scheduler with deferrable-server VCPUs.

Each RT VCPU is a *deferrable server* with a (budget, period) interface:
the budget is replenished to its full value at every period boundary,
the server's deadline is the end of the current period, and unused
budget is retained while the VCPU idles (but never carried across a
replenishment).  Among servers with budget and runnable work, the m
earliest deadlines run on the m PCPUs.

Two systems in the paper use exactly this scheduler:

- the **motivating example** (Figure 1): VMs scheduled by EDF according
  to their (slice, period), with no cross-layer information; and
- **RT-Xen 2.0's best configuration** (§4.1): gEDF with deferrable
  server at the host level, with the interfaces computed offline by CSA.

PCPUs not needed by RT servers run background VCPUs.

Hot-path structure (see DESIGN.md for the full argument):

- the eligible set is maintained **incrementally**: ``_ready`` indexes
  servers with budget left (updated on replenish and on the drain-to-
  zero crossing in :meth:`account`); selection sweeps only that index
  and sorts it at C level, so each decision costs O(ready log ready)
  comparisons over the ready set instead of every registered server;
- **exhaust timers are armed only when a target can have moved**: at
  placement, and on a replenish that lands on an already-placed server.
  While a server runs continuously its budget drains at wall rate, so
  ``now + remaining`` — the timer target — is invariant and the timer
  stays exact without per-pass re-arming;
- **same-instant no-op passes are skipped**: a (time, mutation-counter)
  stamp taken after each completed pass detects repeated ``_reschedule``
  requests at one instant with no intervening state change (e.g. an
  idle-report storm after the first pass already vacated every idle
  server); such a pass provably makes no placement, charge, or timer
  change, so it is elided.  Requests coalesce through a dirty flag that
  an :meth:`Engine.add_post_hook` hook re-checks once per event batch;
- budget timers use **targeted sync** (:meth:`Machine.sync_running` on
  the one PCPU whose accounting they touch) instead of ``sync_all``; a
  pass that actually runs still syncs every PCPU once per instant via
  the memoised :meth:`Machine.sync_all`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple

from ..guest.vcpu import VCPU
from ..simcore.errors import ConfigurationError, SchedulingError
from ..simcore.events import PRIORITY_BUDGET, Event
from ..telemetry import events as T
from .scheduler import HostScheduler


class _Server:
    """Deferrable-server state for one RT VCPU."""

    __slots__ = (
        "vcpu",
        "budget",
        "period",
        "remaining",
        "deadline",
        "key",
        "replenish_event",
        "exhaust_event",
        "replenish_name",
        "exhaust_name",
    )

    def __init__(self, vcpu: VCPU, budget: int, period: int) -> None:
        self.vcpu = vcpu
        self.budget = budget
        self.period = period
        self.remaining = 0
        self.deadline = 0
        #: Cached EDF sort key (deadline, vcpu uid); rebuilt on replenish
        #: so selection never constructs per-server tuples in a loop.
        self.key: Tuple[int, int] = (0, vcpu.uid)
        self.replenish_event: Optional[Event] = None
        self.exhaust_event: Optional[Event] = None
        #: Event names, formatted once instead of per timer arm.
        self.replenish_name = f"replenish:{vcpu.name}"
        self.exhaust_name = f"exhaust:{vcpu.name}"


_SERVER_KEY = attrgetter("key")


def _has_work(vcpu: VCPU) -> bool:
    """Inlined ``vcpu.vm.vcpu_has_work(vcpu)`` for the selection loops."""
    vm = vcpu.vm
    return (vm._pending_jobs if vm._is_gedf else vcpu._pending_jobs) > 0


class EDFHostScheduler(HostScheduler):
    """Global EDF over deferrable-server VCPUs."""

    name = "host-edf-ds"

    def __init__(self) -> None:
        super().__init__()
        self._servers: Dict[int, _Server] = {}  # vcpu uid -> server
        self._started = False
        #: Servers with remaining budget (the incrementally-maintained
        #: half of the eligibility predicate; the other half, "has
        #: runnable work", is an O(1) counter check at use time).
        self._ready: Dict[int, _Server] = {}
        #: Eligible count computed by the last :meth:`_choose` (equals
        #: ``_eligible_count()`` at that point); reused by the placement
        #: loop's schedule-cost charge instead of a second sweep.
        self._last_eligible = 0
        #: Bumped on every change that can alter the scheduling
        #: decision: replenish, exhaust, a VCPU gaining its first job,
        #: a VCPU draining its last job, idling, add/remove.  A pass
        #: requested while the counter still equals its value at the
        #: last completed pass is provably a no-op and is elided.
        self._mutations = 0
        self._pass_mutations = -1
        #: Dirty flag for reschedule requests coalesced at one instant;
        #: re-checked by the engine post-hook once per event batch.
        self._resched_pending = False
        #: Servers holding a live exhaust timer (uid -> server), so the
        #: disarm sweep in :meth:`_reschedule` visits at most m servers
        #: instead of every registered one.
        self._exhaust_armed: Dict[int, _Server] = {}
        #: Uids replenished while placed since the last pass: the only
        #: already-placed servers whose exhaust target moved, hence the
        #: only ones the pass must re-arm (placement arms the rest).
        self._rearm: Set[int] = set()
        #: Live exhaust-timer targets (time -> count), so "does a budget
        #: drain to zero at this very instant" — the probe both the
        #: elision test and the pre-decision sync ask — is one dict
        #: membership test instead of a sweep over the armed registry.
        self._exhaust_due: Dict[int, int] = {}

    # -- wiring ----------------------------------------------------------------

    def attach(self, machine) -> None:
        super().attach(machine)
        machine.engine.add_post_hook(self._flush_reschedule)

    # -- population ----------------------------------------------------------------

    def add_vcpu(self, vcpu: VCPU) -> None:
        """Schedule *vcpu* as a server using its (budget, period) params."""
        if vcpu.uid in self._servers:
            raise ConfigurationError(f"{vcpu.name} is already scheduled")
        if vcpu.period_ns <= 0 or vcpu.budget_ns <= 0:
            raise ConfigurationError(
                f"{vcpu.name} has no (budget, period) interface configured"
            )
        server = _Server(vcpu, vcpu.budget_ns, vcpu.period_ns)
        self._servers[vcpu.uid] = server
        vcpu.admitted = True
        if self._started:
            self._replenish(server)

    def remove_vcpu(self, vcpu: VCPU) -> None:
        server = self._servers.pop(vcpu.uid, None)
        if server is None:
            return
        self._ready.pop(vcpu.uid, None)
        self._rearm.discard(vcpu.uid)
        self._mutations += 1
        self.engine.cancel(server.replenish_event)
        self._disarm_exhaust(server)
        pcpu_index = self.machine.pcpu_of(vcpu)
        if pcpu_index is not None:
            self.machine.set_running(pcpu_index, None)
            self.fill_with_background(pcpu_index)

    # -- server lifecycle -----------------------------------------------------------

    def _replenish(self, server: _Server) -> None:
        # Sync first: time consumed before this instant must drain the old
        # budget, not the fresh one.  Only this server's PCPU needs the
        # sync — its budget is the only accounting the refill overwrites.
        self.machine.sync_running(server.vcpu)
        now = self.machine.engine._now
        server.remaining = server.budget
        server.deadline = now + server.period
        uid = server.vcpu.uid
        server.key = (server.deadline, uid)
        self._ready[uid] = server
        self._mutations += 1
        if uid in self.machine._vcpu_pcpu:
            # Refill landed on a placed server: its exhaust target just
            # moved, so the pass this replenish forces must re-arm it.
            self._rearm.add(uid)
        if self._t_budget:
            self.machine.bus.publish(
                T.BUDGET_REPLENISH,
                T.BudgetReplenishEvent(
                    now, server.vcpu.name, server.budget, server.remaining
                ),
            )
        # Fault injection: a sloppy hypervisor clock fires the next
        # replenishment late by up to the configured jitter.  The
        # deadline stays nominal — the server simply keeps its stale
        # budget/deadline for the jittered interval.
        delay = server.period
        if self._jitter_source is not None:
            delay += self.timer_jitter()
        server.replenish_event = self.machine.engine.after(
            delay,
            self._replenish,
            server,
            priority=PRIORITY_BUDGET,
            name=server.replenish_name,
        )
        self._request_reschedule()

    def _exhaust(self, server: _Server) -> None:
        self._drop_due(self.machine.engine._now)
        server.exhaust_event = None
        self._exhaust_armed.pop(server.vcpu.uid, None)
        # account() on the occupied PCPU drains the budget exactly (and
        # publishes the BUDGET_DEPLETE event at the crossing).
        self.machine.sync_running(server.vcpu)
        if server.remaining > 0:  # raced with a preemption; timer is stale
            if server.vcpu.uid in self.machine._vcpu_pcpu:
                # Defensive: a placed server must always hold a live
                # timer (placement and replenish-on-placed arm it, so
                # this re-arm is not expected to trigger).
                self._arm_exhaust(server)
            return
        self._mutations += 1
        self._request_reschedule()

    def account(self, vcpu: VCPU, pcpu_index: int, elapsed: int) -> None:
        server = self._servers.get(vcpu.uid)
        if server is not None and server.remaining > 0:
            server.remaining = max(0, server.remaining - elapsed)
            if server.remaining == 0:
                del self._ready[vcpu.uid]
                # Publish at the drain crossing itself, not in the
                # exhaust timer: a preemption-race drain (the timer sees
                # ``remaining > 0`` stale and bails) previously emitted
                # nothing, leaving depletion windows open-ended for
                # span/blame consumers.
                if self._t_budget:
                    self.machine.bus.publish(
                        T.BUDGET_DEPLETE,
                        T.BudgetDepleteEvent(self.engine.now, vcpu.name, 0),
                    )

    # -- notifications ------------------------------------------------------------------

    def on_vcpu_wake(self, vcpu: VCPU) -> None:
        server = self._servers.get(vcpu.uid)
        if server is not None:
            vm = vcpu.vm
            pending = vm._pending_jobs if vm._is_gedf else vcpu._pending_jobs
            if pending == 1:
                # First job after an empty queue: the server just became
                # eligible again — a decision-input change.  A wake on
                # top of existing work changes nothing the decision
                # reads — the drain-at-now probe in
                # :meth:`_request_reschedule` covers the one hidden
                # input (budget hitting zero at this very instant,
                # ahead of its exhaust timer).
                self._mutations += 1
            self._request_reschedule()
        elif vcpu in self._background:
            free = self._free_pcpus()
            if free:
                self.fill_with_background(free[0])

    def on_vcpu_idle(self, vcpu: VCPU, pcpu_index: int) -> None:
        # Deferrable behaviour: the server keeps its budget; the PCPU is
        # handed to the next eligible server or a background VCPU.
        self._mutations += 1
        self._request_reschedule()

    def on_work_drained(self, vcpu: VCPU) -> None:
        server = self._servers.get(vcpu.uid)
        if server is not None and not vcpu.vm.vcpu_has_work(vcpu):
            # The server's last job retired: it left the eligible set.
            self._mutations += 1

    # -- reschedule coalescing -----------------------------------------------------------

    def _request_reschedule(self) -> None:
        """Run a scheduling pass unless it would provably be a no-op.

        If no decision input changed since the last completed pass
        (mutation counter unchanged), the pass makes no placement, no
        vacate, no charge, and no timer change — the eligible set and
        its deadline order are exactly as the last pass left them, every
        chosen server is still placed, and every exhaust re-arm dedups
        because a *running* server's target ``now + remaining`` is
        invariant while it runs.  Such requests stay coalesced in the
        dirty flag; the engine post-hook clears (or, defensively,
        flushes) them once per batch.

        One decision input changes *without* a mutation bump: a running
        server's budget draining to exactly zero at the current instant.
        Its exhaust timer fires at the same instant but at BUDGET
        priority, *after* any RELEASE-priority wake — and the old
        eager-pass code observed the drain early through ``sync_all``'s
        accounting and vacated the server one event earlier.  Exhaust
        timers are exact while a server runs, so that case is precisely
        "some armed exhaust timer has ``time == now``"; probe for it and
        force the pass then.
        """
        self._resched_pending = True
        if self._mutations == self._pass_mutations:
            if self.machine.engine._now not in self._exhaust_due:
                return
            # else: a budget drains to zero right now — must pass.
        self._run_reschedule()

    def _run_reschedule(self) -> None:
        self._resched_pending = False
        self._reschedule()
        self._pass_mutations = self._mutations

    def _flush_reschedule(self) -> None:
        """Engine post-hook: settle requests coalesced during the batch.

        A request elided by :meth:`_request_reschedule` was a no-op *at
        request time*; every later decision-input change arrives with
        its own request (wake/replenish/exhaust/idle all request
        immediately, and a drained queue is followed by the machine's
        idle report).  So elided requests are simply retired here — the
        hook is the coalescing point, not a second decision site.
        """
        self._resched_pending = False

    # -- the scheduling decision -----------------------------------------------------------

    def _eligible(self) -> List[_Server]:
        """Eligible servers sorted by (deadline, uid).

        Iterates only the ready (budget-holding) index, not every
        server; used by the partitioned variant and diagnostics.  The
        global variant selects through the deadline heap instead.
        """
        servers = [s for s in self._ready.values() if _has_work(s.vcpu)]
        servers.sort(key=_SERVER_KEY)
        return servers

    def _choose(self) -> List[_Server]:
        """The m earliest-deadline eligible servers.

        One sweep over the ready (budget-holding) index filters for
        runnable work — the eligibility predicate inlined from
        ``_has_work`` — then a C-level sort picks the winners.
        Equivalent to ``self._eligible()[:m]``; also caches the eligible
        count for the placement loop's schedule-cost charge.
        """
        m = self.machine.available_count
        eligible = [
            server
            for server in self._ready.values()
            if (
                vm._pending_jobs
                if (vm := server.vcpu.vm)._is_gedf
                else server.vcpu._pending_jobs
            )
            > 0
        ]
        self._last_eligible = len(eligible)
        # Timsort + trim beats heapq.nsmallest at this size (~3x measured
        # at 48 servers / m=16); keys are unique so both agree exactly.
        eligible.sort(key=_SERVER_KEY)
        if len(eligible) > m:
            del eligible[m:]
        return eligible

    def _free_pcpus(self) -> List[int]:
        return [
            p.index
            for p in self.machine.pcpus
            if p.running_vcpu is None and not p.failed
        ]

    # -- fault hooks -----------------------------------------------------------------------

    def on_pcpu_failed(self, pcpu_index: int, victim: Optional[VCPU]) -> None:
        """The machine evicted *victim*; re-run selection over the
        surviving PCPUs so the victim migrates if it still wins."""
        self._mutations += 1
        self._request_reschedule()

    def on_pcpu_recovered(self, pcpu_index: int) -> None:
        self._mutations += 1
        self._request_reschedule()

    def _sync_if_boundary(self) -> None:
        """Full pre-decision sync, only at instants where it can matter.

        The decision (:meth:`_choose`) reads the ready index and the
        pending-job counters.  Both are maintained exactly by targeted
        syncs *except* at two kinds of instant, where the old
        unconditional ``sync_all`` observed a change ahead of the event
        that reports it:

        - a running server's budget drains to exactly zero now — its
          BUDGET-priority exhaust timer has not fired yet, but
          ``account()``'s zero-crossing must drop it from the ready
          index before the decision; and
        - a running job's work reaches exactly zero now — its
          COMPLETION-priority event has not fired yet, but the sweep's
          charge retires it, draining the queue before the decision.

        Exhaust and completion timers are exact while their target runs
        (the target ``now + remaining`` is invariant under wall-rate
        draining), so "can matter" is precisely "some armed timer is due
        at this very instant" — and only the PCPU hosting that timer can
        cross.  Charging on every other PCPU is additive (splitting an
        execution span at an extra instant charges the same totals), so
        instead of a full ``sync_all`` sweep only the due PCPUs are
        synced, in ascending index order like the sweep they replace.
        """
        machine = self.machine
        now = machine.engine._now
        exhaust_due = now in self._exhaust_due
        completion_due = now in machine._completions_due
        if not exhaust_due and not completion_due:
            return
        pcpus = machine.pcpus
        due_indices = []
        if exhaust_due:
            locations = machine._vcpu_pcpu
            for uid, server in self._exhaust_armed.items():
                event = server.exhaust_event
                if event is not None and event.time == now:
                    index = locations.get(uid)
                    if index is not None:
                        due_indices.append(index)
        if completion_due:
            for pcpu in pcpus:
                event = pcpu.completion_event
                if event is not None and event.time == now:
                    due_indices.append(pcpu.index)
        due_indices.sort()
        for index in due_indices:
            machine.sync_pcpu(pcpus[index])

    def _reschedule(self) -> None:
        """Run the m earliest-deadline eligible servers; fill the rest."""
        machine = self.machine
        self._sync_if_boundary()
        chosen = self._choose()
        chosen_uids: Set[int] = {s.vcpu.uid for s in chosen}

        # Vacate PCPUs whose RT occupant is no longer chosen.  The
        # placement map is iterated instead of the PCPU array: it lists
        # exactly the occupied PCPUs, and the snapshot makes the vacating
        # mutation safe.
        locations = machine._vcpu_pcpu
        servers = self._servers
        vacate = [
            index
            for uid, index in locations.items()
            if uid in servers and uid not in chosen_uids
        ]
        for index in vacate:
            machine.set_running(index, None)

        # Place chosen servers, preferring their current PCPU (no migration).
        pending_uids: Set[int] = set()
        pending = [s for s in chosen if s.vcpu.uid not in locations]
        if pending:
            elements = self._last_eligible
            for server in pending:
                pending_uids.add(server.vcpu.uid)
                target = self._pick_pcpu_for(server, chosen_uids)
                if target is None:
                    raise SchedulingError(
                        f"no PCPU available for chosen server {server.vcpu.name}"
                    )
                machine.charge_schedule(target, elements=elements)
                machine.set_running(target, server.vcpu)
                self._arm_exhaust(server)

        # Servers that kept their PCPU keep an exact timer for free —
        # while a server runs, budget drains at wall rate, so its target
        # ``now + remaining`` never moves.  The one exception is a
        # replenish that landed on a placed server (tracked in
        # ``_rearm``): its remaining jumped, so re-arm it here, in
        # chosen order, exactly where the old arm-every-pass sweep
        # would have pushed the fresh timer.
        rearm = self._rearm
        if rearm:
            for server in chosen:
                uid = server.vcpu.uid
                if uid in rearm and uid not in pending_uids:
                    self._arm_exhaust(server)
            rearm.clear()
        # Only servers in the armed registry can hold a live timer, so
        # de-scheduled servers outside it need no visit.
        stale = [s for u, s in self._exhaust_armed.items() if u not in chosen_uids]
        for server in stale:
            self._disarm_exhaust(server)

        self.fill_free_pcpus()

    def _pick_pcpu_for(self, server: _Server, chosen_uids: Set[int]) -> Optional[int]:
        free = self._free_pcpus()
        if free:
            return free[0]
        # Preempt a background VCPU if one holds a PCPU.
        for pcpu in self.machine.pcpus:
            occupant = pcpu.running_vcpu
            if occupant is not None and occupant.uid not in self._servers:
                return pcpu.index
        return None

    def _arm_exhaust(self, server: _Server) -> None:
        engine = self.machine.engine
        target = engine._now + server.remaining
        event = server.exhaust_event
        if (
            event is not None
            and not event.cancelled
            and not event.consumed
            and event.time == target
        ):
            return
        self._disarm_exhaust(server)
        if server.remaining <= 0:
            return
        server.exhaust_event = engine.at(
            target,
            self._exhaust,
            server,
            priority=PRIORITY_BUDGET,
            name=server.exhaust_name,
        )
        self._exhaust_armed[server.vcpu.uid] = server
        due = self._exhaust_due
        due[target] = due.get(target, 0) + 1

    def _drop_due(self, time: int) -> None:
        due = self._exhaust_due
        count = due.get(time, 0)
        if count <= 1:
            due.pop(time, None)
        else:
            due[time] = count - 1

    def _disarm_exhaust(self, server: _Server) -> None:
        event = server.exhaust_event
        if event is not None:
            if not event.cancelled and not event.consumed:
                self._drop_due(event.time)
            self.machine.engine.cancel(event)
            server.exhaust_event = None
        self._exhaust_armed.pop(server.vcpu.uid, None)

    # -- lifecycle ------------------------------------------------------------------------

    def start(self) -> None:
        self._started = True
        for server in self._servers.values():
            self._replenish(server)
        if not self._servers:
            for index in self._free_pcpus():
                self.fill_with_background(index)


class PartitionedEDFHostScheduler(EDFHostScheduler):
    """RT-Xen's partitioned configuration: pEDF + deferrable server.

    Each VCPU server is statically bound to one PCPU — first-fit
    **decreasing** by bandwidth when a batch is placed via
    :meth:`add_vcpus` (or explicitly via *pcpu*); single additions
    through :meth:`add_vcpu` first-fit in arrival order, which is only
    FFD when callers add VCPUs in decreasing-bandwidth order.  Each PCPU
    runs EDF over its own servers with no migration.  The paper compares
    against RT-Xen's *best* configuration (gEDF); this variant completes
    the RT-Xen 2.0 design space for ablations.
    """

    name = "host-pedf-ds"

    def __init__(self) -> None:
        super().__init__()
        self._home: Dict[int, int] = {}  # vcpu uid -> pcpu index
        # Exact rational loads: no float drift across add/remove cycles.
        self._loads: Dict[int, Fraction] = {}

    def add_vcpu(self, vcpu: VCPU, pcpu: Optional[int] = None) -> None:
        """Bind *vcpu* to a PCPU (first-fit by current load when unspecified)."""
        if pcpu is None:
            bw = vcpu.bandwidth
            pcpu = self._first_fit(bw)
            if pcpu is None:
                raise ConfigurationError(
                    f"no PCPU has {float(bw):.3f} bandwidth free for {vcpu.name} "
                    "(partitioned placement)"
                )
        elif not 0 <= pcpu < self.machine.pcpu_count:
            raise ConfigurationError(f"no PCPU {pcpu}")
        super().add_vcpu(vcpu)
        self._home[vcpu.uid] = pcpu
        self._loads[pcpu] = self._loads.get(pcpu, Fraction(0)) + vcpu.bandwidth

    def add_vcpus(self, vcpus: List[VCPU]) -> None:
        """Place a batch first-fit **decreasing** by bandwidth.

        Sorting the batch by decreasing bandwidth (ties broken by uid
        for determinism) before first-fit is the classic FFD bin-packing
        heuristic the docstring promises; arrival-order packing can
        strand large servers that FFD would fit.
        """
        for vcpu in sorted(vcpus, key=lambda v: (-v.bandwidth, v.uid)):
            self.add_vcpu(vcpu)

    def _first_fit(self, bw: Fraction) -> Optional[int]:
        for pcpu in self.machine.pcpus:
            if pcpu.failed:
                continue
            index = pcpu.index
            if self._loads.get(index, Fraction(0)) + bw <= 1:
                return index
        return None

    def remove_vcpu(self, vcpu: VCPU) -> None:
        home = self._home.pop(vcpu.uid, None)
        if home is not None:
            load = self._loads.get(home, Fraction(0)) - vcpu.bandwidth
            # Exact arithmetic cannot go negative unless bookkeeping is
            # broken elsewhere; clamp defensively all the same.
            self._loads[home] = load if load > 0 else Fraction(0)
        super().remove_vcpu(vcpu)

    def _reschedule(self) -> None:
        """Per-PCPU EDF: each PCPU independently runs its earliest server."""
        machine = self.machine
        self._sync_if_boundary()
        # The per-PCPU sweep below re-arms every chosen server, so the
        # global variant's placed-replenish re-arm set is moot here.
        self._rearm.clear()
        eligible = self._eligible()
        for pcpu in machine.pcpus:
            if pcpu.failed:
                # Servers still homed here are parked until recovery.
                continue
            local = [s for s in eligible if self._home.get(s.vcpu.uid) == pcpu.index]
            chosen = local[0] if local else None
            occupant = pcpu.running_vcpu
            occupant_is_rt = occupant is not None and occupant.uid in self._servers
            if chosen is None:
                if occupant_is_rt:
                    machine.set_running(pcpu.index, None)
                if pcpu.running_vcpu is None:
                    self.fill_with_background(pcpu.index)
                continue
            if occupant is not chosen.vcpu:
                machine.charge_schedule(pcpu.index, elements=len(local))
                if occupant is not None:
                    machine.set_running(pcpu.index, None)
                machine.set_running(pcpu.index, chosen.vcpu)
            self._arm_exhaust(chosen)
            for server in local[1:]:
                self._disarm_exhaust(server)

    # -- fault hooks -----------------------------------------------------------------------

    def on_pcpu_failed(self, pcpu_index: int, victim: Optional[VCPU]) -> None:
        """Re-home the failed PCPU's servers first-fit onto survivors.

        Servers that fit nowhere stay homed on the failed PCPU (parked:
        the per-PCPU pass skips failed PCPUs, so they simply do not run)
        and resume when it recovers.  Re-homing iterates uid order so
        the outcome is deterministic.
        """
        displaced = sorted(
            uid for uid, home in self._home.items() if home == pcpu_index
        )
        for uid in displaced:
            server = self._servers.get(uid)
            if server is None:
                continue
            bw = server.vcpu.bandwidth
            target = self._first_fit(bw)
            if target is None:
                continue  # parked on the failed PCPU
            self._home[uid] = target
            load = self._loads.get(pcpu_index, Fraction(0)) - bw
            self._loads[pcpu_index] = load if load > 0 else Fraction(0)
            self._loads[target] = self._loads.get(target, Fraction(0)) + bw
        super().on_pcpu_failed(pcpu_index, victim)
