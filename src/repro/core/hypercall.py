"""The ``sched_rtvirt()`` hypercall — the host side of the cross-layer port.

Guest schedulers call this channel when RTAs register, change their
requirements, or unregister (paper §3.2).  The host charges the
hypercall cost (~10 µs measured in the prototype), runs admission
control over the batch, and on success installs the new VCPU parameters
and informs the DP-WRAP scheduler, which re-partitions.
"""

from __future__ import annotations

from typing import List

from ..control.actions import AdmitDecrease, AdmitRequest
from ..guest.port import CrossLayerPort, ParamUpdate
from ..guest.vcpu import VCPU
from ..host.machine import Machine
from ..telemetry import events as T
from .admission import UtilizationAdmission
from .flags import SchedRTVirtFlag
from .shared_memory import SharedMemoryPage


class RTVirtHypercall(CrossLayerPort):
    """Concrete cross-layer port backed by the RTVirt host scheduler."""

    def __init__(
        self,
        machine: Machine,
        scheduler,
        admission: UtilizationAdmission,
        shared_memory: SharedMemoryPage,
    ) -> None:
        self.machine = machine
        self.scheduler = scheduler
        self.admission = admission
        self.shared_memory = shared_memory
        #: (flag, granted) log for diagnostics and tests.
        self.log: List[tuple] = []
        #: Fault-injection windows.  While ``now < _drop_until`` every
        #: hypercall is lost (the guest sees a rejection, the host state
        #: never changes); while ``now < _delay_until`` the host-side
        #: effect of a granted call lands ``_delay_ns`` late.
        self._drop_until = -1
        self._delay_until = -1
        self._delay_ns = 0
        #: Dropped/delayed call counters (diagnostics).
        self.dropped = 0
        self.delayed = 0

    def inject_drop(self, until_ns: int) -> None:
        """Drop every hypercall until absolute time *until_ns*."""
        self._drop_until = until_ns

    def inject_delay(self, until_ns: int, delay_ns: int) -> None:
        """Delay the host-side effect of hypercalls by *delay_ns* until
        absolute time *until_ns*."""
        self._delay_until = until_ns
        self._delay_ns = max(0, delay_ns)

    def _charge(self) -> None:
        self.machine.charge_hypercall(pcpu_index=0)

    def _emit(
        self, updates: List[ParamUpdate], outcome: str, flag: SchedRTVirtFlag
    ) -> None:
        """Publish one :class:`HypercallEvent` per affected VCPU.

        Hypercalls are rare (registration/mode changes), so the direct
        ``has_subscribers`` test is cheap enough without a cached flag.
        """
        bus = self.machine.bus
        if not bus.has_subscribers(T.HYPERCALL):
            return
        now = self.machine.engine.now
        for vcpu, budget_ns, period_ns in updates:
            bus.publish(
                T.HYPERCALL,
                T.HypercallEvent(
                    now, vcpu.name, flag.name.lower(), outcome,
                    flag.value, budget_ns, period_ns,
                ),
            )

    def _apply(self, updates: List[ParamUpdate]) -> None:
        """Install new VCPU parameters host-side (possibly deferred)."""
        for vcpu, budget_ns, period_ns in updates:
            vcpu.set_params(budget_ns, period_ns)
            self.scheduler.update_vcpu(vcpu)

    def _apply_late(self, updates: List[ParamUpdate], flag: SchedRTVirtFlag) -> None:
        """A deferred application landing: install, then mark the event
        stream so span consumers can see *when* the parameters finally
        took effect (the ``delayed`` event marks when they should have)."""
        self._apply(updates)
        self._emit(updates, "applied_late", flag)

    def _deliver(self, updates: List[ParamUpdate], flag: SchedRTVirtFlag) -> bool:
        """Apply now, or schedule the delayed application.  Returns True
        when the effect was deferred."""
        now = self.machine.engine.now
        if now < self._delay_until and self._delay_ns > 0:
            self.delayed += 1
            self.machine.engine.after(
                self._delay_ns, self._apply_late, updates, flag,
                name="hypercall-delayed",
            )
            return True
        self._apply(updates)
        return False

    def request_increase(self, updates: List[ParamUpdate]) -> bool:
        """INC_BW / INC_DEC_BW: atomic admission over the batch."""
        flag = (
            SchedRTVirtFlag.INC_BW if len(updates) == 1 else SchedRTVirtFlag.INC_DEC_BW
        )
        self._charge()
        if self.machine.engine.now < self._drop_until:
            # The call is lost in transit: the guest observes a failure,
            # the host commits nothing.
            self.dropped += 1
            self.log.append((flag, False))
            self._emit(updates, "dropped", flag)
            return False
        admitted = self.machine.control.submit(
            AdmitRequest(self.admission, tuple(updates))
        )
        if not admitted:
            self.log.append((flag, False))
            self._emit(updates, "rejected", flag)
            return False
        deferred = self._deliver(updates, flag)
        self.log.append((flag, True))
        self._emit(updates, "delayed" if deferred else "granted", flag)
        return True

    def notify_decrease(self, updates: List[ParamUpdate]) -> None:
        """DEC_BW: apply reduced requirements; never rejected."""
        self._charge()
        if self.machine.engine.now < self._drop_until:
            # Lost notification: the host keeps the old (larger) grant.
            self.dropped += 1
            self.log.append((SchedRTVirtFlag.DEC_BW, False))
            self._emit(updates, "dropped", SchedRTVirtFlag.DEC_BW)
            return
        self.machine.control.submit(AdmitDecrease(self.admission, tuple(updates)))
        deferred = self._deliver(updates, SchedRTVirtFlag.DEC_BW)
        self.log.append((SchedRTVirtFlag.DEC_BW, True))
        self._emit(
            updates, "delayed" if deferred else "applied", SchedRTVirtFlag.DEC_BW
        )

    def vcpu_added(self, vcpu: VCPU) -> None:
        """CPU hotplug: the new VCPU becomes visible to the host.

        It carries no bandwidth yet; the INC_BW that follows placement
        installs its parameters.
        """
        self.shared_memory.map_vcpu(vcpu)
        bus = self.machine.bus
        if bus.has_subscribers(T.HYPERCALL):
            bus.publish(
                T.HYPERCALL,
                T.HypercallEvent(
                    self.machine.engine.now, vcpu.name, "attach", "granted", 0, 0, 0
                ),
            )
