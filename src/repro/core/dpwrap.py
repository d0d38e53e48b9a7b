"""The DP-WRAP host-level scheduler (paper §3.3).

DP-WRAP (Levin et al., ECRTS'10) is an optimal multiprocessor scheduler
based on *deadline partitioning*: time is divided into global slices at
the union of all tasks' deadlines, and within each slice every task
receives CPU time proportional to its bandwidth, laid out across the
processors with McNaughton's wrap-around rule (at most m−1 migrations
per slice).

RTVirt applies DP-WRAP at VCPU granularity: the guest publishes each
VCPU's total bandwidth (via the hypercall) and next earliest deadline
(via shared memory); the host computes the next global deadline as the
minimum over all published deadlines, clamped to the minimum global
slice (250 µs in the paper) to bound overhead.

Work conservation (paper §3.4): reserved time a VCPU does not use is
donated — first to RT VCPUs with pending work that are not running
(this is what gives sporadic RTAs their low wake-up latency), then to
background VCPUs round-robin.  A reservation owner that wakes during
its own piece always reclaims it.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Optional, Tuple

from ..guest.task import TaskKind
from ..guest.vcpu import VCPU
from ..host.scheduler import HostScheduler
from ..simcore.errors import ConfigurationError, SchedulingError
from ..simcore.events import PRIORITY_SCHEDULE, Event
from ..simcore.time import MSEC, USEC
from ..telemetry import events as T
from .shared_memory import SharedMemoryPage

#: A reservation piece: the interval [start, end) on one PCPU.
Piece = Tuple[int, int, VCPU]


class DPWrapScheduler(HostScheduler):
    """Deadline-partitioned wrap-around scheduling of VCPUs."""

    name = "dp-wrap"

    def __init__(
        self,
        shared_memory: Optional[SharedMemoryPage] = None,
        min_global_slice_ns: int = 250 * USEC,
        idle_slice_ns: int = 10 * MSEC,
        repartition_on_wake: bool = True,
    ) -> None:
        super().__init__()
        #: Re-partition immediately when a wake-up publishes a deadline
        #: earlier than the current slice end.  Disabled only by the
        #: sporadic-reservation ablation.
        self.repartition_on_wake = repartition_on_wake
        if min_global_slice_ns <= 0:
            raise ConfigurationError("minimum global slice must be positive")
        if idle_slice_ns < min_global_slice_ns:
            raise ConfigurationError("idle slice must be >= the minimum global slice")
        self.shared_memory = shared_memory if shared_memory is not None else SharedMemoryPage()
        self.min_global_slice_ns = min_global_slice_ns
        self.idle_slice_ns = idle_slice_ns
        self._active: Dict[int, VCPU] = {}  # uid -> RT VCPU
        # The active VCPUs sorted by uid as (uid, vcpu, holder), rebuilt
        # lazily after population changes.  Every slice and every
        # donation scan walks this list; caching it removes a sorted() +
        # dict-lookup pass per call.  *holder* owns the VCPU's pending-job
        # counter (the VM for gEDF guests, else the VCPU itself), so the
        # donation scan tests for work without a method call.
        self._sorted_vcpus: Optional[List[Tuple[int, VCPU, object]]] = None
        # CPU affinity (paper §6): uid -> pinned PCPU; these VCPUs are
        # excluded from wrap-around migration.
        self._affinity: Dict[int, int] = {}
        # Fractional nanoseconds of entitlement carried between slices so
        # cumulative allocation tracks cumulative entitlement within 1 ns.
        # Stored as exact (numerator, denominator) integer pairs with a
        # positive denominator — same values a Fraction would hold, without
        # the per-operation normalization cost on the slice hot path.
        self._carry: Dict[int, Tuple[int, int]] = {}
        # Wall-clock instant up to which each VCPU's entitlement has been
        # accrued.  Re-partitions refund unexecuted pieces and accrue only
        # the *new* window, so no interval is ever granted twice.
        self._granted_until: Dict[int, int] = {}
        # Budget preservation for sleeping (sporadic) VCPUs: allocation
        # laid out minus CPU time actually received.  A positive balance
        # (the VCPU idled through its pieces and they were donated) can be
        # redeemed on wake-up, capped at one VCPU budget.
        self._laid: Dict[int, int] = {}
        self._received: Dict[int, int] = {}
        self._owner: Dict[int, Tuple[Optional[VCPU], int]] = {}  # pcpu -> (reserved vcpu, end)
        self._slice_end = 0
        self._slice_events: List[Event] = []
        self._reslice_event: Optional[Event] = None
        # The current slice's planned pieces (start, end, vcpu uid), kept so
        # a mid-slice re-partition can refund unexecuted entitlement.
        self._piece_plan: List[Tuple[int, int, int]] = []
        self._started = False
        #: Number of global slices computed (diagnostics).
        self.slices_computed = 0

    # -- population -------------------------------------------------------------

    def add_vcpu(self, vcpu: VCPU) -> None:
        """Start scheduling *vcpu*; its bandwidth comes from its params."""
        self._active[vcpu.uid] = vcpu
        self._sorted_vcpus = None
        self.shared_memory.map_vcpu(vcpu)
        vcpu.admitted = True
        if self._started:
            self._new_slice()

    def remove_vcpu(self, vcpu: VCPU) -> None:
        self._active.pop(vcpu.uid, None)
        self._sorted_vcpus = None
        self._carry.pop(vcpu.uid, None)
        self._granted_until.pop(vcpu.uid, None)
        self._laid.pop(vcpu.uid, None)
        self._received.pop(vcpu.uid, None)
        self._affinity.pop(vcpu.uid, None)
        self.shared_memory.unmap_vcpu(vcpu)
        if self._started:
            self._new_slice()

    def set_affinity(self, vcpu: VCPU, pcpu_index: int) -> None:
        """Pin *vcpu*'s reservation to one PCPU (paper §6).

        The VCPU is excluded from wrap-around migration: its allocation
        is placed unsplit on *pcpu_index* every slice.  Useful for VMs
        sensitive to processor cache locality.
        """
        if not 0 <= pcpu_index < self.machine.pcpu_count:
            raise ConfigurationError(f"no PCPU {pcpu_index}")
        self._affinity[vcpu.uid] = pcpu_index
        if self._started:
            self._new_slice()

    def update_vcpu(self, vcpu: VCPU) -> None:
        """A hypercall changed *vcpu*'s bandwidth: re-partition now."""
        if vcpu.uid not in self._active:
            self.add_vcpu(vcpu)
            return
        if self._started:
            self._new_slice()

    # -- the deadline-partitioning step ----------------------------------------------

    def _active_sorted(self) -> List[Tuple[int, VCPU, object]]:
        """``(uid, vcpu, holder)`` of every active RT VCPU in uid order
        (cached between population changes)."""
        entries = self._sorted_vcpus
        if entries is None:
            active = self._active
            entries = self._sorted_vcpus = [
                (uid, vcpu, vcpu.vm if vcpu.vm._is_gedf else vcpu)
                for uid, vcpu in sorted(active.items())
            ]
        return entries

    def _carry_add(self, uid: int, amount: int) -> None:
        """Add *amount* whole nanoseconds to a VCPU's fractional carry."""
        num, den = self._carry.get(uid, (0, 1))
        self._carry[uid] = (num + amount * den, den)

    def _rt_entries(self) -> List[VCPU]:
        """RT VCPUs with a positive bandwidth grant, in deterministic order."""
        return [
            v
            for _, v, _ in self._active_sorted()
            if v.period_ns > 0 and v.budget_ns > 0
        ]

    def _next_global_deadline(self, now: int) -> int:
        """min over shared-memory deadlines, clamped to the slice bounds."""
        earliest = self.shared_memory.earliest(now)
        if earliest is None:
            deadline = now + self.idle_slice_ns
        else:
            deadline = min(earliest, now + self.idle_slice_ns)
            deadline = max(deadline, now + self.min_global_slice_ns)
        if self._jitter_source is not None:
            # Fault injection: the slice-boundary timer (DP-WRAP's budget
            # replenishment point) fires late by up to the jitter bound.
            deadline += self.timer_jitter()
        return deadline

    def _new_slice(self) -> None:
        """Compute the next global deadline and wrap allocations (one DP step)."""
        now = self.engine.now
        if now < self._slice_end:
            # Mid-slice re-partition (parameter change or an earlier
            # boundary appeared): refund the part of each planned piece
            # that will no longer execute, so cumulative allocation still
            # tracks cumulative entitlement.
            for start, end, uid in self._piece_plan:
                if uid in self._active:
                    lost = end - max(start, now)
                    if lost > 0:
                        self._carry_add(uid, lost)
                        self._laid[uid] = self._laid.get(uid, 0) - lost
        # At a slice boundary every event of the ending slice has fired;
        # only a mid-slice re-partition finds some still pending.
        engine = self.engine
        for event in self._slice_events:
            if not event.consumed:
                engine.cancel(event)
        self._slice_events.clear()
        self._owner.clear()
        self._piece_plan = []

        entries = self._rt_entries()
        machine = self.machine
        # Failed PCPUs are excluded from the layout: slot k of the wrap
        # maps to the k-th *available* PCPU.
        avail = [p.index for p in machine.pcpus if not p.failed]
        if not avail:
            # Total outage: nothing to lay out; retry at the idle horizon.
            self._slice_end = now + self.idle_slice_ns
            self._slice_events.append(
                self.engine.at(
                    self._slice_end,
                    self._new_slice,
                    priority=PRIORITY_SCHEDULE,
                    name="global-deadline",
                )
            )
            return
        # The paper: one PCPU computes the global deadline (O(log n)) and
        # the per-VCPU partitions (O(n) over all PCPUs).
        machine.charge_schedule(avail[0], elements=len(entries))
        deadline = self._next_global_deadline(now)
        self._slice_end = deadline
        slice_len = deadline - now
        self.slices_computed += 1

        if self._affinity:
            pieces = self._layout_with_affinity(entries, now, slice_len, avail)
        else:
            pieces = self._layout_wrap(entries, now, slice_len, avail)

        for slot, plist in enumerate(pieces):
            k = avail[slot]
            cursor = now
            for start, end, vcpu in plist:
                if start > cursor:
                    # A gap before this piece: donate it.
                    self._slice_events.append(
                        self.engine.at(
                            cursor,
                            self._start_tail,
                            k,
                            priority=PRIORITY_SCHEDULE,
                            name="tail",
                        )
                    )
                self._slice_events.append(
                    self.engine.at(
                        start,
                        self._start_piece,
                        k,
                        vcpu,
                        end,
                        priority=PRIORITY_SCHEDULE,
                        name=vcpu.piece_name,
                    )
                )
                cursor = end
            if cursor < deadline:
                self._slice_events.append(
                    self.engine.at(
                        cursor,
                        self._start_tail,
                        k,
                        priority=PRIORITY_SCHEDULE,
                        name="tail",
                    )
                )
        self._slice_events.append(
            self.engine.at(
                deadline,
                self._new_slice,
                priority=PRIORITY_SCHEDULE,
                name="global-deadline",
            )
        )

    # -- layout strategies ----------------------------------------------------------------

    def _allocation_for(
        self, vcpu: VCPU, now: int, deadline: int, slice_len: int, available: int
    ) -> int:
        """This slice's allocation with wall-clock-keyed carry bookkeeping.

        Entitlement accrues exactly once per wall-clock interval: the new
        grant covers only the window beyond ``granted_until`` (which may
        be negative when a re-partition shortens the horizon), and the
        carry absorbs every rounding/clipping/refund correction.

        The arithmetic is exact rational math over integer pairs —
        value-for-value what ``Fraction`` computes, with the same floor
        (floor of a rational is representation-independent for positive
        denominators), minus the normalization cost.  In the steady state
        the carry's denominator equals the VCPU's period, so one slice
        costs two multiplications and one floor division per VCPU.
        """
        uid = vcpu.uid
        granted_until = self._granted_until.get(uid, now)
        self._granted_until[uid] = deadline
        span = deadline - granted_until
        period = vcpu.period_ns
        cnum, cden = self._carry.get(uid, (0, 1))
        # entitlement = budget/period * span + cnum/cden
        if period <= 0:
            ent_num, ent_den = cnum, cden
        elif cden == period:
            ent_num = vcpu.budget_ns * span + cnum
            ent_den = period
        elif period % cden == 0:
            ent_num = vcpu.budget_ns * span + cnum * (period // cden)
            ent_den = period
        else:
            ent_num = vcpu.budget_ns * span * cden + cnum * period
            ent_den = period * cden
        alloc = ent_num // ent_den
        alloc = min(alloc, slice_len)  # one VCPU never exceeds one PCPU
        # Carried remainders can push the total a few ns past capacity;
        # clip and keep the shortfall owed for the next slice.
        alloc = max(0, min(alloc, available))
        carry_num = ent_num - alloc * ent_den
        if ent_den != period and ent_den > 1:
            # Off the steady-state path (a parameter change mixed two
            # denominators): reduce, as Fraction normalization would.
            g = gcd(carry_num, ent_den)
            if g > 1:
                carry_num //= g
                ent_den //= g
        self._carry[uid] = (carry_num, ent_den)
        self._laid[uid] = self._laid.get(uid, 0) + alloc
        if self._t_budget and alloc > 0:
            # DP-WRAP has no deplete moment: entitlement is laid out per
            # slice and unused pieces are donated, so only grants exist.
            self.machine.bus.publish(
                T.BUDGET_REPLENISH,
                T.BudgetReplenishEvent(
                    now,
                    vcpu.name,
                    alloc,
                    self._laid[vcpu.uid] - self._received.get(vcpu.uid, 0),
                ),
            )
        return alloc

    def account(self, vcpu: VCPU, pcpu_index: int, elapsed: int) -> None:
        if vcpu.uid in self._active:
            self._received[vcpu.uid] = self._received.get(vcpu.uid, 0) + elapsed

    def _layout_wrap(
        self, entries: List[VCPU], now: int, slice_len: int, avail: List[int]
    ) -> List[List[Piece]]:
        """McNaughton wrap-around: contiguous fill across the PCPUs.

        *avail* lists the online PCPU indices; the returned piece lists
        are slot-indexed (slot k -> PCPU ``avail[k]``).
        """
        m = len(avail)
        pieces: List[List[Piece]] = [[] for _ in avail]
        offset = 0
        for vcpu in entries:
            alloc = self._allocation_for(
                vcpu, now, now + slice_len, slice_len, m * slice_len - offset
            )
            while alloc > 0:
                k = offset // slice_len
                if k >= m:  # pragma: no cover - guarded by the clip above
                    raise SchedulingError("DP-WRAP overload")
                local = offset - k * slice_len
                take = min(alloc, slice_len - local)
                pieces[k].append((now + local, now + local + take, vcpu))
                self._piece_plan.append((now + local, now + local + take, vcpu.uid))
                offset += take
                alloc -= take
        return pieces

    def _layout_with_affinity(
        self, entries: List[VCPU], now: int, slice_len: int, avail: List[int]
    ) -> List[List[Piece]]:
        """Affinity-aware layout (paper §6).

        Affine VCPUs are stacked unsplit at the start of their pinned
        PCPU's slice — they never migrate.  Flexible VCPUs then wrap
        over the remaining free windows; a split that would make a VCPU's
        two parts overlap in time is avoided by skipping to the next
        PCPU, leaving a donated gap.  Allocation that finds no room
        (affine overload of one PCPU, or a pin to a failed PCPU) is
        refunded to the VCPU's carry.  Slot k maps to PCPU ``avail[k]``.
        """
        m = len(avail)
        slot_of = {index: slot for slot, index in enumerate(avail)}
        pieces: List[List[Piece]] = [[] for _ in avail]
        fill = [0] * m

        def place(k: int, start_local: int, length: int, vcpu: VCPU) -> None:
            pieces[k].append((now + start_local, now + start_local + length, vcpu))
            self._piece_plan.append(
                (now + start_local, now + start_local + length, vcpu.uid)
            )

        flexible: List[Tuple[VCPU, int]] = []
        for vcpu in entries:
            alloc = self._allocation_for(
                vcpu, now, now + slice_len, slice_len, m * slice_len - sum(fill)
            )
            if alloc <= 0:
                continue
            target = self._affinity.get(vcpu.uid)
            if target is None:
                flexible.append((vcpu, alloc))
                continue
            slot = slot_of.get(target)
            if slot is None:  # pinned to a failed PCPU: owe it all
                self._carry_add(vcpu.uid, alloc)
                continue
            take = min(alloc, slice_len - fill[slot])
            if take > 0:
                place(slot, fill[slot], take, vcpu)
                fill[slot] += take
            if take < alloc:  # affine PCPU full: owe the rest
                self._carry_add(vcpu.uid, alloc - take)

        k = 0
        pos = fill[0] if m else 0
        for vcpu, alloc in flexible:
            while alloc > 0 and k < m:
                avail = slice_len - pos
                if avail <= 0:
                    k += 1
                    pos = fill[k] if k < m else 0
                    continue
                take = min(alloc, avail)
                rest = alloc - take
                if rest > 0 and k + 1 < m:
                    # Split safety: the continuation must finish before
                    # this part starts, or the VCPU would run twice.
                    if fill[k + 1] + rest > pos:
                        k += 1
                        pos = fill[k]
                        continue
                place(k, pos, take, vcpu)
                pos += take
                alloc = rest
                if alloc > 0:
                    k += 1
                    pos = fill[k] if k < m else 0
            if alloc > 0:  # no room left: refund
                self._carry_add(vcpu.uid, alloc)
        for plist in pieces:
            plist.sort()
        return pieces

    # -- piece execution ------------------------------------------------------------------

    def _start_piece(self, pcpu_index: int, vcpu: VCPU, end: int) -> None:
        """A VCPU's reserved piece begins on *pcpu_index*."""
        self._owner[pcpu_index] = (vcpu, end)
        machine = self.machine
        machine.charge_schedule(pcpu_index, elements=0)  # O(1) pick-next
        displaced = machine.pcpus[pcpu_index].running_vcpu
        if vcpu.vm.vcpu_has_work(vcpu):
            current = machine.pcpu_of(vcpu)
            if current is not None and current != pcpu_index:
                # The owner was borrowing slack elsewhere; bring it home.
                machine.set_running(current, None)
                self._backfill(current)
            if machine.pcpu_of(vcpu) is None:
                machine.set_running(pcpu_index, vcpu)
        else:
            self._donate(pcpu_index, exclude=vcpu)
        # An RT borrower bumped off this PCPU looks for slack elsewhere.
        if (
            displaced is not None
            and displaced is not vcpu
            and displaced.uid in self._active
            and machine.pcpu_of(displaced) is None
            and displaced.vm.vcpu_has_work(displaced)
        ):
            self.on_vcpu_wake(displaced)
        # The piece's end has this PCPU's next tail, piece or slice event.
        machine.set_horizon(pcpu_index, end)

    def _start_tail(self, pcpu_index: int) -> None:
        """Unreserved time at the end of a PCPU's slice begins."""
        self._owner[pcpu_index] = (None, self._slice_end)
        self._donate(pcpu_index, exclude=None)
        self.machine.set_horizon(pcpu_index, self._slice_end)

    # -- donation / work conservation --------------------------------------------------------

    def _waiting_rt_vcpu(
        self, exclude: Optional[VCPU], pcpu_index: Optional[int] = None
    ) -> Optional[VCPU]:
        """The earliest-deadline RT VCPU with work that is not running.

        Affine VCPUs are only eligible for their pinned PCPU.
        """
        now = self.engine.now
        best = None
        best_key = None
        # Read the machine's placement map in place (no copy): this scan
        # runs on every donation decision and only tests membership.
        # The cheap tests go first: most VCPUs have no pending work or
        # are already placed.  Shared memory is read only for the few
        # that pass every test.
        locations = self.machine._vcpu_pcpu
        affinity = self._affinity
        shared_memory = self.shared_memory
        for uid, vcpu, holder in self._active_sorted():
            if holder._pending_jobs <= 0 or uid in locations or vcpu is exclude:
                continue
            if affinity:
                pinned = affinity.get(uid)
                if (
                    pinned is not None
                    and pcpu_index is not None
                    and pinned != pcpu_index
                ):
                    continue
            deadline = shared_memory.read(vcpu, now)
            key = (deadline if deadline is not None else 2**63, uid)
            if best_key is None or key < best_key:
                best = vcpu
                best_key = key
        return best

    def _donate(self, pcpu_index: int, exclude: Optional[VCPU]) -> None:
        """Hand *pcpu_index* to a waiting RT VCPU, else to background.

        An RT occupant that is still working keeps the PCPU: donated or
        unreserved time serves time-sensitive work before background VMs
        (paper §3.4 — RT requirements are satisfied first, the remainder
        goes to the guests' non-time-sensitive processes).
        """
        occupant = self.machine.pcpus[pcpu_index].running_vcpu
        if (
            occupant is not None
            and occupant is not exclude
            and occupant.uid in self._active
            and occupant.vm.vcpu_has_work(occupant)
        ):
            return
        loaner = self._waiting_rt_vcpu(exclude, pcpu_index)
        if loaner is not None:
            self.machine.set_running(pcpu_index, loaner)
            return
        self.fill_with_background(pcpu_index)

    def _backfill(self, pcpu_index: int) -> None:
        """Re-populate a PCPU vacated mid-piece (owner pulled home)."""
        owner, end = self._owner.get(pcpu_index, (None, self._slice_end))
        if owner is not None and self.engine.now < end:
            if (
                owner.vm.vcpu_has_work(owner)
                and self.machine.pcpu_of(owner) is None
            ):
                self.machine.set_running(pcpu_index, owner)
                return
        self._donate(pcpu_index, exclude=owner)

    # -- notifications ----------------------------------------------------------------------------

    def on_vcpu_wake(self, vcpu: VCPU) -> None:
        machine = self.machine
        if machine.pcpu_of(vcpu) is not None:
            return  # already running somewhere
        now = self.engine.now
        is_rt = vcpu.uid in self._active
        if is_rt:
            # A release that creates a boundary before the planned slice
            # end (a late first release, or a sporadic arrival whose
            # deadline precedes another VCPU's) forces a re-partition so
            # the slice aligns with it.  Only a *future* deadline is a
            # boundary: a tardy VCPU publishes its oldest pending (past)
            # deadline, which no slice end can align with — repartitioning
            # on it would churn the plan on every wake for as long as the
            # backlog persists (each re-laid piece displaces a borrower,
            # whose wake repartitions again), with the overhead of each
            # switch consuming the very capacity the backlog needs.
            published = self.shared_memory.read(vcpu, now)
            if (
                self.repartition_on_wake
                and published is not None
                and now < published < self._slice_end
            ):
                self._new_slice()
            # Reclaim the VCPU's own active reservation piece, if any.
            for pcpu_index, (owner, end) in self._owner.items():
                if owner is vcpu and now < end:
                    machine.set_running(pcpu_index, vcpu)
                    return
        # Borrow slack: a PCPU whose current time is donated or unreserved.
        # RT wakers may preempt background occupants; background wakers
        # only take idle PCPUs.  Affine VCPUs borrow only on their pin.
        pinned = self._affinity.get(vcpu.uid)
        for pcpu_index, (owner, end) in sorted(self._owner.items()):
            if pinned is not None and pcpu_index != pinned:
                continue
            if now >= end:
                continue
            occupant = machine.pcpus[pcpu_index].running_vcpu
            if occupant is None:
                machine.set_running(pcpu_index, vcpu)
                return
            occupant_is_rt = occupant.uid in self._active
            if occupant_is_rt or not is_rt:
                continue
            machine.set_running(pcpu_index, vcpu)
            return
        if is_rt and self.repartition_on_wake and vcpu.vm.vcpu_has_work(vcpu):
            # If the VCPU still has a reservation piece coming in the
            # current plan, its supply is already on the way: wait for it
            # (repartitioning here would churn everyone else's pieces).
            upcoming = any(
                uid == vcpu.uid and end > now
                for _, end, uid in self._piece_plan
            )
            if upcoming:
                return
            # Otherwise the piece already passed — donated while the VCPU
            # idled — and there is no slack to borrow.  For VCPUs hosting
            # sporadic RTAs (whose arrivals the plan cannot anticipate),
            # redeem the reservation slept through: the positive balance
            # between allocation laid out and CPU actually received,
            # capped at one VCPU budget (the sporadic-server budget
            # preservation DP-Fair prescribes), returns to the carry, and
            # a re-partition aligns supply with the arrival — "allocating
            # CPU bandwidth to the VM when the tasks actually need it"
            # (§3.3).  Periodic-only VCPUs never redeem: their releases
            # coincide with slice boundaries, so the next plan already
            # serves them exactly.  The re-partition is deferred to the
            # end of the current instant so a batch of simultaneous
            # releases is planned exactly once.
            if not any(
                t.kind is TaskKind.SPORADIC for t in vcpu.rt_tasks()
            ):
                return
            self.machine.sync_all()  # bring `received` up to date
            bank = self._laid.get(vcpu.uid, 0) - self._received.get(vcpu.uid, 0)
            bank = max(0, min(bank, vcpu.budget_ns))
            if bank > 0:
                self._carry_add(vcpu.uid, bank)
                self._laid[vcpu.uid] = self._laid.get(vcpu.uid, 0) - bank
                self._request_repartition()

    def _request_repartition(self) -> None:
        """Schedule one re-partition at the end of the current instant."""
        now = self.engine.now
        # One repartition per instant: suppress when one is pending at
        # `now` *or already ran* at `now` (a consumed event still counts —
        # re-running the partition step would double-charge schedule()).
        if (
            self._reslice_event is not None
            and not self._reslice_event.cancelled
            and self._reslice_event.time == now
        ):
            return
        self._reslice_event = self.engine.at(
            now,
            self._new_slice,
            priority=PRIORITY_SCHEDULE + 5,
            name="repartition",
        )

    def on_vcpu_idle(self, vcpu: VCPU, pcpu_index: int) -> None:
        owner, end = self._owner.get(pcpu_index, (None, self._slice_end))
        if (
            owner is not None
            and owner is not vcpu
            and self.engine.now < end
            and owner.vm.vcpu_has_work(owner)
            and self.machine.pcpu_of(owner) is None
        ):
            self.machine.set_running(pcpu_index, owner)
            return
        self._donate(pcpu_index, exclude=vcpu)

    # -- fault hooks --------------------------------------------------------------------------------

    def on_pcpu_failed(self, pcpu_index: int, victim: Optional[VCPU]) -> None:
        """Re-partition over the surviving PCPUs (forced migration).

        The mid-slice refund in :meth:`_new_slice` returns the victim's
        (and everyone's) unexecuted entitlement to their carries, and the
        fresh wrap lays it back out over the online PCPUs only — the
        victim's reservation migrates in the same instant.
        """
        if self._started:
            self._new_slice()
        if victim is not None and victim.vm.vcpu_has_work(victim):
            self.on_vcpu_wake(victim)

    def on_pcpu_recovered(self, pcpu_index: int) -> None:
        if self._started:
            self._new_slice()

    # -- lifecycle ----------------------------------------------------------------------------------

    def start(self) -> None:
        self._started = True
        self._new_slice()
