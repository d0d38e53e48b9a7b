"""Typed telemetry event taxonomy.

Every observable scheduler action has one event type here.  Events are
``NamedTuple`` subclasses: construction is one tuple allocation (the
producers sit on simulation hot paths), instances are immutable, and
``_asdict()`` gives a JSON-able record for exporters.

Each event class carries a ``kind`` string used as the routing key on
the :class:`~repro.telemetry.bus.TelemetryBus`.  Producers publish with
``bus.publish(KIND, Event(...))``; consumers subscribe per kind so an
unrelated subscriber never sees (or pays for) events it did not ask
for.

All times are engine nanoseconds (integers), matching the simulation
clock.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

# -- kind constants (bus routing keys) ------------------------------------------------

JOB_RELEASE = "job_release"
ENQUEUE = "enqueue"
CONTEXT_SWITCH = "context_switch"
MIGRATION = "migration"
SEGMENT_END = "segment_end"
DEADLINE_HIT = "deadline_hit"
DEADLINE_MISS = "deadline_miss"
JOB_LATENCY = "job_latency"
JOB_COMPLETE = "job_complete"
HYPERCALL = "hypercall"
BUDGET_REPLENISH = "budget_replenish"
BUDGET_DEPLETE = "budget_deplete"
ADMISSION_DECISION = "admission_decision"
FAULT_INJECTED = "fault_injected"
FAULT_RECOVERED = "fault_recovered"
CPU_ACCOUNT = "cpu_account"
VCPU_PARAMS = "vcpu_params"

#: Every routing key, in a stable order (useful for subscribe-to-all
#: consumers and for documentation).
ALL_KINDS: Tuple[str, ...] = (
    JOB_RELEASE,
    ENQUEUE,
    CONTEXT_SWITCH,
    MIGRATION,
    SEGMENT_END,
    DEADLINE_HIT,
    DEADLINE_MISS,
    JOB_LATENCY,
    JOB_COMPLETE,
    HYPERCALL,
    BUDGET_REPLENISH,
    BUDGET_DEPLETE,
    ADMISSION_DECISION,
    FAULT_INJECTED,
    FAULT_RECOVERED,
    CPU_ACCOUNT,
    VCPU_PARAMS,
)


# -- event records --------------------------------------------------------------------


class JobReleaseEvent(NamedTuple):
    """A deadline-bearing job was released by a workload driver.

    The first event of every per-job causal span: it carries the
    absolute release time and deadline so consumers never need to
    reconstruct them from the completion-side events.  Background jobs
    (no deadline) are not announced.
    """

    time: int
    vm: str
    vcpu: Optional[str]  # the task's pinned VCPU at release time
    task: str
    job: int
    release: int
    deadline: int


class EnqueueEvent(NamedTuple):
    """A released job entered a guest run queue and now awaits dispatch.

    ``scope`` distinguishes the pEDF per-VCPU local queue (``"local"``)
    from the gEDF VM-wide pool (``"global"``), where any sibling VCPU
    may claim the job.
    """

    time: int
    vm: str
    vcpu: Optional[str]
    task: str
    job: int
    scope: str  # "local" | "global"


class ContextSwitchEvent(NamedTuple):
    """A PCPU changed occupant (includes switches to/from idle)."""

    time: int
    pcpu: int
    vcpu: Optional[str]  # None when the PCPU goes idle
    migrated: bool


class MigrationEvent(NamedTuple):
    """A schedulable entity resumed on a different carrier than before.

    Host layer (``layer == "host"``): a VCPU moved between PCPUs —
    *source*/*target* are PCPU indexes.  Guest layer (``"guest"``): a
    job migrated between VCPUs under gEDF dispatch — *source*/*target*
    are VCPU indexes within the VM.
    """

    time: int
    entity: str  # VCPU name (host layer) or task name (guest layer)
    source: int
    target: int
    layer: str = "host"


class SegmentEndEvent(NamedTuple):
    """A contiguous run of one job on one PCPU ended (charge point)."""

    time: int
    pcpu: int
    vcpu: str
    task: str
    start: int
    end: int


class DeadlineHitEvent(NamedTuple):
    """A job completed at or before its absolute deadline."""

    time: int
    task: str
    job: int
    release: int
    deadline: int


class DeadlineMissEvent(NamedTuple):
    """A job completed after its absolute deadline."""

    time: int
    task: str
    job: int
    release: int
    deadline: int
    tardiness: int  # completion - deadline, ns (> 0)


class JobLatencyEvent(NamedTuple):
    """Response time (completion - release) of one finished job."""

    time: int
    task: str
    job: int
    latency_ns: int


class JobCompleteEvent(NamedTuple):
    """A job retired (mirrors the legacy ``"complete"`` trace event)."""

    time: int
    task: str
    job: int


class HypercallEvent(NamedTuple):
    """A guest->host scheduling hypercall and its outcome."""

    time: int
    vcpu: str
    op: str  # "increase" | "decrease" | "attach"
    outcome: str  # "granted" | "rejected" | "dropped"
    flag: int
    budget_ns: int
    period_ns: int


class BudgetReplenishEvent(NamedTuple):
    """A server/VCPU budget was refilled by the host scheduler."""

    time: int
    vcpu: str
    amount: int
    remaining: int


class BudgetDepleteEvent(NamedTuple):
    """A server/VCPU budget ran out (throttle point)."""

    time: int
    vcpu: str
    remaining: int  # post-depletion balance; negative under Credit


class AdmissionDecisionEvent(NamedTuple):
    """An admission-control verdict at either scheduling layer.

    ``vm``/``tenant`` carry the owning VM and tenant of the subject so
    credit scoring and ``repro run --blame`` can attribute sheds/commits
    without parsing names; both default empty for producers (guest
    emits, baseline CSAs) that have no owner bookkeeping.
    """

    time: int
    level: str  # "host" | "guest"
    op: str  # e.g. "commit", "release", "shed", "guest_register"
    subject: str  # vcpu/task name the decision is about
    granted: bool
    detail: str  # human-readable specifics ("0.25 of 4.0" etc.)
    vm: str = ""  # owning VM name, when known
    tenant: str = ""  # owning tenant, when a tenant resolver is bound


class FaultInjectedEvent(NamedTuple):
    """A fault fired (mirrors the legacy ``"fault"`` trace event)."""

    time: int
    fault: str  # e.g. "pcpu_fail", "vm_churn", "surge"
    detail: Tuple  # legacy detail tuple, minus the kind itself


class FaultRecoveredEvent(NamedTuple):
    """A previously injected fault ended / was repaired."""

    time: int
    fault: str
    detail: Tuple


class CpuAccountEvent(NamedTuple):
    """Exact CPU time charged to a VCPU at a sync point."""

    time: int
    vcpu: str
    vcpu_uid: int
    pcpu: int
    elapsed: int


class VcpuParamsEvent(NamedTuple):
    """A VCPU's (budget, period) reservation changed."""

    time: int
    vcpu: str
    vcpu_uid: int
    budget_ns: int
    period_ns: int
