"""Online scheduling-invariant checking.

:class:`InvariantChecker` hooks into the engine as a post-event hook —
it runs after every same-instant event batch, once the machine has
synced charges and the host scheduler has flushed its pending pass, so
it observes exactly the committed scheduling decisions.  Rules are
selected by introspecting the system under test:

- ``placement`` (every system): no PCPU runs two VCPUs, the machine's
  location index agrees with PCPU occupancy, nothing runs on a failed
  PCPU;
- ``budget`` (deferrable-server schedulers): no server's remaining
  budget is negative or above its replenishment budget, and a placed
  server still holds budget;
- ``edf_order`` (deferrable-server schedulers): no eligible waiting
  server has an earlier (deadline, uid) key than a placed competing
  server that still has work and budget (compared per-home under
  partitioned EDF);
- ``capacity`` (systems with admission control): total granted
  bandwidth never exceeds the surviving capacity.

A violated rule raises :class:`InvariantViolation` carrying the rule
name, the simulated time, and the trailing window of placement
snapshots so the offending decision sequence is attached to the error.

The checker is opt-in (nothing attaches it by default), so benchmark
and experiment hot paths pay nothing unless a robustness run asks for
it.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

from ..host.edf import EDFHostScheduler, PartitionedEDFHostScheduler
from ..simcore.errors import InvariantViolation
from ..telemetry import events as T


class InvariantChecker:
    """Validate scheduling invariants after every event batch."""

    def __init__(self, system, window: int = 32) -> None:
        self.system = system
        self.machine = system.machine
        self.engine = system.engine
        #: Flip off to suspend checking without detaching the hook.
        self.enabled = True
        #: Number of batch checks performed.
        self.checks = 0
        self._window: deque = deque(maxlen=window)
        #: (time, "injected"/"recovered", fault-kind) observed via the
        #: telemetry bus, so a violation can be correlated with the
        #: fault activity that preceded it.
        self.fault_log: List[Tuple[int, str, str]] = []

    def attach(self) -> "InvariantChecker":
        """Register with the engine and the machine's telemetry bus.

        Call after the system is fully constructed: post hooks run in
        registration order, so attaching last means the machine refresh
        and the scheduler's pass have settled before the check.  Bus
        subscriptions add (a) a fault log correlated with violations and
        (b) an *eager* capacity check on every granted host admission
        decision, catching over-commitment at the decision instant
        instead of the end of the batch.
        """
        self.engine.add_post_hook(self._check)
        bus = self.machine.bus
        bus.subscribe(T.FAULT_INJECTED, self._on_fault_injected)
        bus.subscribe(T.FAULT_RECOVERED, self._on_fault_recovered)
        bus.subscribe(T.ADMISSION_DECISION, self._on_admission)
        return self

    # -- bus subscribers ----------------------------------------------------------

    def _on_fault_injected(self, event: T.FaultInjectedEvent) -> None:
        self.fault_log.append((event.time, "injected", event.fault))

    def _on_fault_recovered(self, event: T.FaultRecoveredEvent) -> None:
        self.fault_log.append((event.time, "recovered", event.fault))

    def _on_admission(self, event: T.AdmissionDecisionEvent) -> None:
        if not self.enabled or not event.granted or event.level != "host":
            return
        admission = getattr(self.system, "admission", None)
        if admission is not None:
            self._check_capacity(admission)

    # -- snapshotting -------------------------------------------------------------

    def _snapshot(self) -> Tuple:
        return tuple(
            (p.index, p.running_vcpu.name if p.running_vcpu else None, p.failed)
            for p in self.machine.pcpus
        )

    @property
    def window(self) -> List[Tuple[int, Tuple]]:
        """The retained (time, placement-snapshot) history."""
        return list(self._window)

    def _fail(self, rule: str, message: str) -> None:
        raise InvariantViolation(rule, self.engine.now, message, window=self.window)

    # -- the hook -------------------------------------------------------------

    def _check(self) -> None:
        if not self.enabled:
            return
        self.checks += 1
        self._window.append((self.engine.now, self._snapshot()))
        self._check_placement()
        scheduler = self.machine.host_scheduler
        if isinstance(scheduler, EDFHostScheduler):
            self._check_budget(scheduler)
            self._check_edf_order(scheduler)
        admission = getattr(self.system, "admission", None)
        if admission is not None:
            self._check_capacity(admission)

    # -- rules -------------------------------------------------------------

    def _check_placement(self) -> None:
        seen = {}
        for pcpu in self.machine.pcpus:
            vcpu = pcpu.running_vcpu
            if vcpu is None:
                continue
            if pcpu.failed:
                self._fail(
                    "placement", f"{vcpu.name} is running on failed PCPU {pcpu.index}"
                )
            if vcpu.uid in seen:
                self._fail(
                    "placement",
                    f"{vcpu.name} runs on PCPUs {seen[vcpu.uid]} and {pcpu.index}",
                )
            seen[vcpu.uid] = pcpu.index
        locations = self.machine.vcpu_locations()
        if locations != seen:
            self._fail(
                "placement",
                f"location index {locations} disagrees with occupancy {seen}",
            )

    def _check_budget(self, scheduler: EDFHostScheduler) -> None:
        placed = self.machine.vcpu_locations()
        for uid, server in scheduler._servers.items():
            if server.remaining < 0:
                self._fail(
                    "budget",
                    f"{server.vcpu.name} overdrew its budget "
                    f"(remaining={server.remaining})",
                )
            if server.remaining > server.budget:
                self._fail(
                    "budget",
                    f"{server.vcpu.name} holds {server.remaining} > "
                    f"budget {server.budget}",
                )
            if uid in placed and server.remaining == 0:
                self._fail(
                    "budget",
                    f"{server.vcpu.name} is placed on PCPU {placed[uid]} "
                    "with no remaining budget",
                )

    @staticmethod
    def _competing(server) -> bool:
        """A placed server a waiting one can legitimately be beaten by."""
        vcpu = server.vcpu
        vm = vcpu.vm
        pending = vm._pending_jobs if vm._is_gedf else vcpu._pending_jobs
        return pending > 0 and server.remaining > 0

    def _check_edf_order(self, scheduler: EDFHostScheduler) -> None:
        placed = self.machine.vcpu_locations()
        partitioned = isinstance(scheduler, PartitionedEDFHostScheduler)
        # Latest-deadline competing placed server (global), or per-PCPU map.
        placed_keys = {}
        worst: Optional[Tuple[int, int]] = None
        worst_name = ""
        for uid, pcpu_index in placed.items():
            server = scheduler._servers.get(uid)
            if server is None or not self._competing(server):
                continue  # background fill / idle deferrable server
            placed_keys[pcpu_index] = (server.key, server.vcpu.name)
            if worst is None or server.key > worst:
                worst = server.key
                worst_name = server.vcpu.name
        for uid, server in scheduler._ready.items():
            if uid in placed or not self._competing(server):
                continue
            if partitioned:
                home = scheduler._home.get(uid)
                if home is None or self.machine.pcpus[home].failed:
                    continue  # parked until recovery
                entry = placed_keys.get(home)
                if entry is not None and server.key < entry[0]:
                    self._fail(
                        "edf_order",
                        f"{server.vcpu.name} (deadline {server.deadline}) waits on "
                        f"PCPU {home} while {entry[1]} with a later deadline runs",
                    )
            elif worst is not None and server.key < worst:
                self._fail(
                    "edf_order",
                    f"{server.vcpu.name} (deadline {server.deadline}) waits while "
                    f"{worst_name} with a later deadline runs",
                )

    def _check_capacity(self, admission) -> None:
        granted = admission.total_granted
        if granted > admission.capacity:
            self._fail(
                "capacity",
                f"admitted bandwidth {granted} exceeds capacity "
                f"{admission.capacity}",
            )
