"""Tenants, SLOs and online credit scoring (the QY-style credit model).

VMs are grouped into *tenants*, each carrying an SLO (a p99 latency
target, a deadline-miss error budget, a priority weight).  The
:class:`CreditLedger` streams the same bus events the standard
aggregators consume — deadline hits/misses, job latencies, host-level
admission sheds — into per-tenant counters and an exact latency tail,
and scores each tenant online:

    credit = weight * ( W_BUDGET    * error-budget remaining
                      + W_VIOLATION * 1 / (1 + violations)
                      + W_TAIL      * min(1, target_p99 / p99) )

Credits drive two mechanisms: the admission controller's shed order
(:meth:`CreditLedger.shed_order`, installed through
``UtilizationAdmission.set_shed_policy`` — cheapest tenants shed
first), and the feedback controller's throttle response (re-admit
high-credit victims at the expense of low-credit tenants).

Determinism/merge contract: the ledger state is counters plus an exact
:class:`~repro.telemetry.aggregate.TailAggregator`, so ``snapshot()`` /
``merge()`` follow the streaming-aggregator rules — merging per-shard
snapshots in canonical order reproduces the serial state byte-for-byte,
and :meth:`credit` is a pure function of that state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..simcore.errors import ConfigurationError
from ..simcore.time import to_usec
from ..telemetry import events as T
from ..telemetry.aggregate import TailAggregator
from ..telemetry.bus import TelemetryBus

#: Credit-model weights (sum to 1): error-budget remaining dominates,
#: the p99/target ratio refines, the violation count damps repeat
#: offenders.
W_BUDGET = 0.5
W_VIOLATION = 0.2
W_TAIL = 0.3


@dataclass(frozen=True)
class TenantSLO:
    """One tenant's service-level objective."""

    name: str
    target_p99_usec: float
    #: Allowed deadline-miss fraction before the error budget is spent.
    error_budget: float = 0.01
    #: Priority weight: multiplies the credit score (gold > bronze).
    weight: int = 1

    def __post_init__(self) -> None:
        if self.target_p99_usec <= 0:
            raise ConfigurationError(f"{self.name}: non-positive p99 target")
        if not 0 <= self.error_budget <= 1:
            raise ConfigurationError(f"{self.name}: error budget outside [0,1]")
        if self.weight < 1:
            raise ConfigurationError(f"{self.name}: weight must be >= 1")


def default_task_owner(task_name: str) -> str:
    """Map a task name to its VM: the experiments name tasks ``vm.rta``."""
    return task_name.split(".", 1)[0]


class _TenantState:
    """Per-tenant streaming counters (internal)."""

    __slots__ = ("met", "missed", "violations", "tail")

    def __init__(self) -> None:
        self.met = 0
        self.missed = 0
        #: Host-level admission sheds charged to this tenant.
        self.violations = 0
        self.tail = TailAggregator()


class CreditLedger:
    """Online per-tenant credit scores from the telemetry bus."""

    def __init__(
        self,
        slos: Sequence[TenantSLO],
        vm_tenant: Mapping[str, str],
        task_owner: Callable[[str], str] = default_task_owner,
    ) -> None:
        self.slos: Dict[str, TenantSLO] = {s.name: s for s in slos}
        for vm, tenant in vm_tenant.items():
            if tenant not in self.slos:
                raise ConfigurationError(
                    f"VM {vm!r} maps to unknown tenant {tenant!r}"
                )
        self.vm_tenant: Dict[str, str] = dict(vm_tenant)
        self.task_owner = task_owner
        self._state: Dict[str, _TenantState] = {
            name: _TenantState() for name in self.slos
        }
        self._cancel: Optional[Callable[[], None]] = None

    # -- wiring ------------------------------------------------------------------

    def tenant_of_vm(self, vm: str) -> str:
        """Tenant of a VM name ("" for unmapped VMs) — also the resolver
        shape ``UtilizationAdmission.bind_tenants`` expects."""
        return self.vm_tenant.get(vm, "")

    def _tenant_of_task(self, task: str) -> str:
        return self.vm_tenant.get(self.task_owner(task), "")

    def attach(self, bus: TelemetryBus) -> "CreditLedger":
        hit = bus.subscribe(T.DEADLINE_HIT, self._on_hit)
        miss = bus.subscribe(T.DEADLINE_MISS, self._on_miss)
        latency = bus.subscribe(T.JOB_LATENCY, self._on_latency)
        admission = bus.subscribe(T.ADMISSION_DECISION, self._on_admission)
        self._cancel = lambda: (hit(), miss(), latency(), admission())
        return self

    def detach(self) -> None:
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    # -- event handlers ----------------------------------------------------------

    def _on_hit(self, event) -> None:
        tenant = self._tenant_of_task(event.task)
        if tenant:
            self._state[tenant].met += 1

    def _on_miss(self, event) -> None:
        tenant = self._tenant_of_task(event.task)
        if tenant:
            self._state[tenant].missed += 1

    def _on_latency(self, event) -> None:
        tenant = self._tenant_of_task(event.task)
        if tenant:
            self._state[tenant].tail.add(to_usec(event.latency_ns))

    def _on_admission(self, event) -> None:
        # Host-level sheds are SLO violations charged to the owning
        # tenant; the event's ``vm`` field (PR 9) makes the attribution
        # lookup-free.
        if event.level != "host" or event.op != "shed":
            return
        tenant = self.vm_tenant.get(event.vm, "")
        if tenant:
            self._state[tenant].violations += 1

    # -- scoring -----------------------------------------------------------------

    def credit(self, tenant: str) -> float:
        """The tenant's current credit (pure function of ledger state)."""
        slo = self.slos[tenant]
        state = self._state[tenant]
        decided = state.met + state.missed
        miss_ratio = state.missed / decided if decided else 0.0
        if slo.error_budget > 0:
            budget_remaining = max(0.0, 1.0 - miss_ratio / slo.error_budget)
        else:
            budget_remaining = 1.0 if state.missed == 0 else 0.0
        violation_score = 1.0 / (1.0 + state.violations)
        if len(state.tail):
            p99 = state.tail.percentile(99.0)
            timeliness = 1.0 if p99 <= 0 else min(1.0, slo.target_p99_usec / p99)
        else:
            timeliness = 1.0
        return slo.weight * (
            W_BUDGET * budget_remaining
            + W_VIOLATION * violation_score
            + W_TAIL * timeliness
        )

    def credits(self) -> Dict[str, float]:
        """All tenants' credits, keyed by tenant name (sorted)."""
        return {name: self.credit(name) for name in sorted(self.slos)}

    def stats(self, tenant: str) -> Dict[str, object]:
        """Raw counters behind one tenant's credit (reporting)."""
        state = self._state[tenant]
        return {
            "met": state.met,
            "missed": state.missed,
            "violations": state.violations,
            "samples": len(state.tail),
        }

    # -- the shed policy ---------------------------------------------------------

    def shed_order(self, uids: List[int], owners: Dict[int, str]) -> List[int]:
        """Revocation order for ``UtilizationAdmission.set_shed_policy``.

        Cheapest first: grants of VMs outside any tenant shed before
        tenant grants (no SLO protects them), then ascending tenant
        credit; newest-VCPU-first breaks ties so the order stays
        deterministic whatever the credit landscape.
        """
        credits = self.credits()

        def key(uid: int):
            tenant = self.vm_tenant.get(owners.get(uid, ""), "")
            if not tenant:
                return (0, 0.0, -uid)
            return (1, credits[tenant], -uid)

        return sorted(uids, key=key)

    # -- snapshot / merge (runner-shard contract) --------------------------------

    def snapshot(self) -> dict:
        """JSON-able state, tenants in sorted order."""
        return {
            "tenants": {
                name: {
                    "met": state.met,
                    "missed": state.missed,
                    "violations": state.violations,
                    "tail": state.tail.snapshot(),
                }
                for name, state in sorted(self._state.items())
            }
        }

    @classmethod
    def merge(
        cls,
        snapshots: Sequence[dict],
        slos: Sequence[TenantSLO],
        vm_tenant: Mapping[str, str],
    ) -> "CreditLedger":
        """Combine per-shard snapshots (canonical shard order) into a
        ledger whose credits equal the serial run's byte-for-byte."""
        merged = cls(slos, vm_tenant)
        for name, state in merged._state.items():
            per_shard = [
                s["tenants"][name] for s in snapshots if name in s["tenants"]
            ]
            state.met = sum(p["met"] for p in per_shard)
            state.missed = sum(p["missed"] for p in per_shard)
            state.violations = sum(p["violations"] for p in per_shard)
            state.tail = TailAggregator.merge([p["tail"] for p in per_shard])
        return merged
