"""Host-level admission control (paper §3.1/§3.3).

DP-WRAP is optimal: any VCPU set whose total bandwidth does not exceed
the processors' capacity is schedulable.  Host admission is therefore a
pure utilization test over the *requested* (budget/period) bandwidths —
no pessimistic compositional analysis, which is precisely where RTVirt's
bandwidth efficiency in Figure 3 comes from.

A share of the machine can be set aside for non-time-sensitive work
(paper §3.4's starvation avoidance); admission then tests against the
remaining capacity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..guest.vcpu import VCPU
from ..simcore.errors import ConfigurationError
from ..telemetry import events as T
from ..telemetry.bus import TelemetryBus


class _Grants(dict):
    """VCPU uid -> granted bandwidth; ``total``, their exact sum, is kept
    on every write, so reading it never re-sums the table."""

    total = Fraction(0)

    def __setitem__(self, uid: int, bandwidth: Fraction) -> None:
        self.total += bandwidth - self.get(uid, 0)
        super().__setitem__(uid, bandwidth)

    def pop(self, uid: int, default=None):
        if uid in self:
            self.total -= self[uid]
        return super().pop(uid, default)


class UtilizationAdmission:
    """Exact utilization-based admission over VCPU bandwidth requests."""

    def __init__(self, pcpu_count: int, background_reserve: Fraction = Fraction(0)) -> None:
        if pcpu_count < 1:
            raise ConfigurationError("need at least one PCPU")
        if not 0 <= background_reserve < pcpu_count:
            raise ConfigurationError(
                f"background reserve {background_reserve} must be in [0, {pcpu_count})"
            )
        self.background_reserve = Fraction(background_reserve)
        self.set_pcpu_count(pcpu_count)  # sets pcpu_count and capacity
        self._granted = _Grants()  # vcpu uid -> bandwidth
        self._names: Dict[int, str] = {}  # vcpu uid -> last-known name
        self._owners: Dict[int, str] = {}  # vcpu uid -> owning VM name
        self._bus: Optional[TelemetryBus] = None
        self._clock: Optional[Callable[[], int]] = None
        #: Optional VM-name -> tenant-name resolver (the tenant layer
        #: binds one); emitted events then carry the tenant directly.
        self._tenant_of: Optional[Callable[[str], str]] = None
        #: Optional shed-order policy: ``fn(uids, owners) -> uids``.
        #: ``None`` keeps the historical newest-VCPU-first order
        #: byte-identical.
        self._shed_order: Optional[
            Callable[[List[int], Dict[int, str]], List[int]]
        ] = None

    # -- telemetry ---------------------------------------------------------------

    def bind_telemetry(self, bus: TelemetryBus, clock: Callable[[], int]) -> None:
        """Publish :data:`~repro.telemetry.events.ADMISSION_DECISION`
        events on *bus*, timestamped by the 0-ary *clock* (the admission
        test itself is pure and holds no engine reference)."""
        self._bus = bus
        self._clock = clock

    def bind_tenants(self, tenant_of: Callable[[str], str]) -> None:
        """Resolve VM names to tenants in emitted decisions (0-cost when
        unbound; the resolver must be pure and deterministic)."""
        self._tenant_of = tenant_of

    def set_shed_policy(
        self,
        order: Optional[Callable[[List[int], Dict[int, str]], List[int]]],
    ) -> None:
        """Install a shed-order policy (``None`` restores newest-first).

        The policy receives the candidate uids (newest first) and a
        uid -> VM-name owner map, and returns the uids in revocation
        order; the credit-ranked policy in
        :mod:`repro.control.tenants` sheds the cheapest tenants first.
        """
        self._shed_order = order

    def owner(self, uid: int) -> str:
        """Owning VM name of a granted uid ("" when never learned)."""
        return self._owners.get(uid, "")

    def _emit(self, op: str, subject: str, granted: bool, detail: str, vm: str = "") -> None:
        bus = self._bus
        if bus is None or not bus.has_subscribers(T.ADMISSION_DECISION):
            return
        tenant = self._tenant_of(vm) if (self._tenant_of is not None and vm) else ""
        bus.publish(
            T.ADMISSION_DECISION,
            T.AdmissionDecisionEvent(
                self._clock(), "host", op, subject, granted, detail, vm, tenant
            ),
        )

    @staticmethod
    def _vm_name(vcpu: VCPU) -> str:
        vm = getattr(vcpu, "vm", None)
        return vm.name if vm is not None else ""

    @property
    def total_granted(self) -> Fraction:
        """Currently admitted RT bandwidth, in CPUs."""
        return self._granted.total

    @property
    def remaining(self) -> Fraction:
        return self.capacity - self.total_granted

    def granted(self, vcpu: VCPU) -> Fraction:
        """Bandwidth currently held by *vcpu* (0 when unknown)."""
        return self._granted.get(vcpu.uid, Fraction(0))

    def try_commit(self, updates: Iterable[Tuple[VCPU, int, int]]) -> bool:
        """Atomically test-and-commit a batch of (vcpu, budget, period).

        Each VCPU's bandwidth must fit in one CPU and the new total must
        fit in the capacity.  On success the grants are recorded and True
        is returned; on failure nothing changes.
        """
        updates = list(updates)
        ok, reason = self._test_and_commit(updates)
        for vcpu, budget_ns, period_ns in updates:
            if ok:
                self._names[vcpu.uid] = vcpu.name
                self._owners[vcpu.uid] = self._vm_name(vcpu)
            self._emit(
                "commit",
                vcpu.name,
                ok,
                reason or f"{budget_ns}/{period_ns}",
                vm=self._vm_name(vcpu),
            )
        return ok

    def _test_and_commit(
        self, updates: List[Tuple[VCPU, int, int]]
    ) -> Tuple[bool, str]:
        """The atomic test; returns (ok, rejection-reason)."""
        new_grants: Dict[int, Fraction] = {}
        for vcpu, budget_ns, period_ns in updates:
            if period_ns <= 0 or budget_ns < 0:
                return False, "invalid-params"
            bw = Fraction(budget_ns, period_ns)
            if bw > 1:
                return False, "exceeds-one-pcpu"
            new_grants[vcpu.uid] = bw
        total = self.total_granted
        for uid, bw in new_grants.items():
            total += bw - self._granted.get(uid, Fraction(0))
        if total > self.capacity:
            return False, "over-capacity"
        for uid, bw in new_grants.items():
            self._granted[uid] = bw
        return True, ""

    def commit_decrease(self, updates: Iterable[Tuple[VCPU, int, int]]) -> None:
        """Apply DEC_BW updates (never rejected)."""
        for vcpu, budget_ns, period_ns in updates:
            if period_ns <= 0:
                raise ConfigurationError(f"{vcpu.name}: invalid period {period_ns}")
            self._granted[vcpu.uid] = Fraction(budget_ns, period_ns)
            self._names[vcpu.uid] = vcpu.name
            self._owners[vcpu.uid] = self._vm_name(vcpu)
            self._emit(
                "decrease",
                vcpu.name,
                True,
                f"{budget_ns}/{period_ns}",
                vm=self._vm_name(vcpu),
            )

    def release(self, vcpu: VCPU) -> None:
        """Forget *vcpu* entirely (VM teardown)."""
        if self._granted.pop(vcpu.uid, None) is not None:
            self._emit("release", vcpu.name, True, "", vm=self._vm_name(vcpu))
        self._names.pop(vcpu.uid, None)
        self._owners.pop(vcpu.uid, None)

    # -- fault injection ---------------------------------------------------------

    def set_pcpu_count(self, pcpu_count: int) -> None:
        """Adjust capacity to a changed online-PCPU count (PCPU fail or
        recovery).  Existing grants are untouched; call
        :meth:`shed_to_capacity` to resolve any resulting overload.
        A count of zero (every PCPU failed — e.g. a whole-host fault in
        a cluster run) is legal: capacity clamps to zero and a shed
        sweep revokes every grant."""
        if pcpu_count < 0:
            raise ConfigurationError("negative PCPU count")
        if pcpu_count and not self.background_reserve < pcpu_count:
            raise ConfigurationError(
                f"background reserve {self.background_reserve} does not fit "
                f"in {pcpu_count} PCPUs"
            )
        self.pcpu_count = pcpu_count
        #: Bandwidth available to RT VCPUs, in CPUs.
        self.capacity = max(Fraction(pcpu_count) - self.background_reserve, Fraction(0))

    def shed_to_capacity(self) -> List[int]:
        """Revoke grants (newest VCPU first) until the total fits capacity.

        Returns the revoked uids in revocation order.  The newest-first
        policy is deterministic and mirrors a hypervisor preferring to
        keep its longest-standing contracts.
        """
        revoked: List[int] = []
        total = self.total_granted
        capacity = self.capacity
        order = sorted(self._granted, reverse=True)
        if self._shed_order is not None:
            order = self._shed_order(order, dict(self._owners))
        for uid in order:
            if total <= capacity:
                break
            bw = self._granted[uid]
            if bw <= 0:
                continue
            self._granted[uid] = Fraction(0)
            total -= bw
            revoked.append(uid)
            # The revoked bandwidth rides in the detail so blame/debug
            # consumers can see how much was taken without a grant table.
            self._emit(
                "shed",
                self._names.get(uid, str(uid)),
                False,
                f"revoked {bw}",
                vm=self._owners.get(uid, ""),
            )
        return revoked
