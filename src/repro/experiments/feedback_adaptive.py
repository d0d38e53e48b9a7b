"""Adaptive control-plane experiments — feedback policies head-to-head.

Three scenarios pit the blame-driven :class:`~repro.control.controller.
FeedbackController` (and the credit shed policy of
:mod:`repro.control.tenants`) against static bandwidth management:

- ``feedback_overrun`` — a VM under-declares a short-period RTA's cost
  (declared 2 ms / 5 ms, actual 3.5 ms per job), so every offline sizing
  is wrong.  Static RTVirt reserves for the declared load; DP-WRAP's
  idle donations arrive too late for the 5 ms deadlines (the honest
  long-period VMs are busy early in every window), so the VM misses
  persistently.  RT-Xen's CSA margin (1.5× summed slices) is bigger
  but still short *and* pays that margin for every honest VM.  The
  adaptive controller classifies ``budget_exhaustion`` and grows only
  the starved VCPU's guaranteed reservation until the misses stop —
  beating CSA's miss ratio at lower total bandwidth.
- ``feedback_migrate`` — two RTVirt hosts; a PCPU failure on h0 sheds
  the newest VM's bandwidth.  Statically the VM stays displaced for the
  rest of the run; the controller classifies ``admission_throttle``,
  fails to re-admit locally and evacuates the VM by live migration to
  the idle host, where the reservation is restored at adopt time.
- ``tenant_shed`` — three single-RTA VMs owned by bronze/silver/gold
  tenants (SLO weights 1/2/3).  Two PCPU failures force one grant to be
  revoked: the historical arrival policy sheds the *newest* VCPU (gold,
  the most valuable tenant), the credit policy sheds the cheapest
  tenant (bronze) instead.

Every scenario is a fixed deterministic timeline: nothing draws from
the seed, so the per-policy cells shard cleanly and the rows reproduce
byte-for-byte whatever the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from ..baselines.rtxen import RTXenSystem
from ..cluster import Cluster, default_specs
from ..control import CreditLedger, FeedbackController, TenantSLO
from ..core.system import RTVirtSystem
from ..faults import InvariantChecker
from ..guest.task import Task
from ..metrics.deadlines import collect_miss_report
from ..placement.migration import safe_migration_params
from ..simcore.events import PRIORITY_FAULT, PRIORITY_RELEASE
from ..simcore.time import MSEC
from ..telemetry import events as T
from ..telemetry.observe import observe
from ..workloads.periodic import PeriodicDriver
from .common import format_table

#: experiment id -> (scenario, policy cells in row order).
FEEDBACK_CELLS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "feedback_overrun": ("overrun", ("static", "csa", "adaptive")),
    "feedback_migrate": ("migrate", ("static", "adaptive")),
    "tenant_shed": ("tenant", ("arrival", "credit")),
}

#: Controller tick: several RTA periods, a fraction of the run length.
CONTROL_PERIOD_NS = 50 * MSEC

# -- overrun scenario -------------------------------------------------------------

OVERRUN_PCPUS = 2
#: The stealthy RTA declares 2 ms / 5 ms (0.4 bandwidth, 0.5 reserved)…
OVERRUN_RTA = (2 * MSEC, 5 * MSEC)
#: …but every job actually needs slice × 7/4 (3.5 ms): true demand 0.7,
#: within reach of the controller's ×5/4 bump ladder (0.5 → 0.625 →
#: 0.781) inside the host's remaining capacity.
OVERRUN_WORK = (7, 4)
#: Two honest long-period VMs (15 ms / 30 ms each).  Their busy phase
#: occupies the early half of every 30 ms window, so DP-WRAP's idle
#: donations only reach the starved short-period VCPU *late* — too late
#: for its 5 ms deadlines.  Only a larger guaranteed reservation
#: (evenly laid-out entitlement) fixes the miss pattern, which is what
#: separates the adaptive INC_BW loop from plain work conservation.
OVERRUN_FILLER = ((15 * MSEC, 30 * MSEC),)
OVERRUN_FILLER_VMS = 2

# -- migrate scenario -------------------------------------------------------------

MIGRATE_HOSTS = 2
MIGRATE_PCPUS = 2
#: Two meaty VMs pack h0 (0.6 declared each → 0.625 reservations); the
#: heavy third VM only fits h1, leaving h1 with headroom for exactly
#: one evacuee.
MIGRATE_BIG_RTAS = ((6 * MSEC, 20 * MSEC), (6 * MSEC, 20 * MSEC))
MIGRATE_HEAVY_RTAS = ((16 * MSEC, 20 * MSEC),)
#: 64 MiB VM, 250 MB/s dirty rate, 10 GbE: short pre-copy, ~11 ms stop.
MIGRATE_PARAMS = safe_migration_params(
    64 * 1024 * 1024, 250_000_000, 1_250_000_000
)

# -- tenant scenario --------------------------------------------------------------

TENANT_PCPUS = 3
#: One RTA per tenant VM: 8 ms / 20 ms → 0.425 reservations each.
TENANT_RTA = (8 * MSEC, 20 * MSEC)
#: (tenant, SLO weight) in VM-creation order: the arrival shed policy
#: revokes newest-first, i.e. the *highest*-weight tenant.
TENANT_TIERS: Tuple[Tuple[str, int], ...] = (
    ("bronze", 1),
    ("silver", 2),
    ("gold", 3),
)
TENANT_TARGET_P99_USEC = 20_000.0


class StealthyDriver(PeriodicDriver):
    """A periodic driver whose jobs need more work than declared.

    Models an RTA that under-declared its WCET at ``sched_setattr()``
    time: every release carries ``slice × num/den`` of actual work, so
    reservations derived from the declared slice are systematically
    short — the situation only online feedback can correct.
    """

    def __init__(self, engine, vm, task, num: int, den: int, **kwargs) -> None:
        super().__init__(engine, vm, task, **kwargs)
        self.num = num
        self.den = den

    def _release(self) -> None:
        if self._stopped:
            return
        now = self.engine.now
        if self.until is not None and now >= self.until:
            return
        self.vm.release_job(
            self.task, now=now, work=self.task.slice_ns * self.num // self.den
        )
        self._event = self.engine.after(
            self.task.period_ns,
            self._release,
            priority=PRIORITY_RELEASE,
            name=f"release:{self.task.name}",
        )


class GrantIntegrator:
    """Time-weighted granted bandwidth from VCPU_PARAMS events.

    Subscribes before any VM exists, so it sees every reservation from
    the initial ``set_params`` on: bandwidth-efficiency comparisons use
    the *time-averaged* total grant (∑ bw·dt / T), which charges the
    adaptive policy for exactly the bandwidth it held, when it held it.
    """

    def __init__(self, bus) -> None:
        self._bw: Dict[int, Fraction] = {}
        self._since: Dict[int, int] = {}
        self._area = Fraction(0)
        self._cancel = bus.subscribe(T.VCPU_PARAMS, self._on_params)

    def _on_params(self, event) -> None:
        uid = event.vcpu_uid
        previous = self._bw.get(uid)
        if previous is not None:
            self._area += previous * (event.time - self._since[uid])
        bw = Fraction(0)
        if event.period_ns > 0 and event.budget_ns > 0:
            bw = Fraction(event.budget_ns, event.period_ns)
        self._bw[uid] = bw
        self._since[uid] = event.time

    def current_total(self) -> Fraction:
        return sum(self._bw.values(), Fraction(0))

    def average(self, end_ns: int) -> Fraction:
        """Average total granted bandwidth over [0, end_ns], in CPUs."""
        if end_ns <= 0:
            return Fraction(0)
        area = self._area
        for uid, bw in self._bw.items():
            area += bw * (end_ns - self._since[uid])
        return area / end_ns


def _csa_interface(specs: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
    """RT-Xen's offline sizing: 1.5× summed slices at the min period."""
    period_ns = min(p for _, p in specs)
    budget_ns = min(period_ns, sum(s * period_ns // p for s, p in specs) * 3 // 2)
    return budget_ns, period_ns


def _overrun_workload() -> List[Tuple[str, Tuple[Tuple[int, int], ...], bool]]:
    """(vm name, RTA specs, stealthy?) in creation order."""
    return [("vm0", (OVERRUN_RTA,), True)] + [
        (f"vm{i + 1}", OVERRUN_FILLER, False)
        for i in range(OVERRUN_FILLER_VMS)
    ]


def _blame_tenants(scenario: str) -> Tuple[List[TenantSLO], Dict[str, str]]:
    """The tenant grouping a cell hands the observation hook, so the
    ``blame`` observer can attribute blame and credit per tenant.

    The tenant scenario has a real tier mapping; the other scenarios get
    one tenant per VM (equal weight), so their tables read as per-VM.
    """
    if scenario == "tenant":
        return _tenant_slos(), {f"{name}0": name for name, _ in TENANT_TIERS}
    if scenario == "overrun":
        vms = [name for name, _, _ in _overrun_workload()]
    else:  # migrate
        vms = ["vm_a", "vm_b", "vm_c"]
    slos = [TenantSLO(vm, TENANT_TARGET_P99_USEC) for vm in vms]
    return slos, {vm: vm for vm in vms}


def _run_overrun(
    policy: str, duration_ns: int, seed: int
) -> List[Dict[str, object]]:
    """One (overrun, policy) cell: 3 VMs × 2 RTAs, vm0.rta0 stealthy."""
    if policy == "csa":
        system = RTXenSystem(pcpu_count=OVERRUN_PCPUS, host="gedf")
    else:
        system = RTVirtSystem(pcpu_count=OVERRUN_PCPUS)
    grants = GrantIntegrator(system.machine.bus)
    checker = InvariantChecker(system).attach()
    controller = None
    if policy == "adaptive":
        controller = FeedbackController(
            system, period_ns=CONTROL_PERIOD_NS
        ).attach()
    observe(system, tenants=_blame_tenants("overrun"))
    for name, specs, stealthy in _overrun_workload():
        if policy == "csa":
            vm = system.create_vm(name, interfaces=[_csa_interface(specs)])
        else:
            vm = system.create_vm(name)
        for j, (slice_ns, period_ns) in enumerate(specs):
            task = Task(f"{name}.rta{j}", slice_ns, period_ns)
            if policy == "csa":
                system.register_rta(vm, task)
            else:
                vm.register_task(task)
            if stealthy:
                StealthyDriver(
                    system.engine, vm, task, *OVERRUN_WORK
                ).start()
            else:
                PeriodicDriver(system.engine, vm, task).start()
    system.run(duration_ns)
    report = system.miss_report()
    decided = report.total_met + report.total_missed
    return [
        {
            "scenario": "overrun",
            "policy": policy,
            "released": report.total_released,
            "missed": report.total_missed,
            "miss_pct": round(100.0 * report.total_missed / decided, 3)
            if decided
            else 0.0,
            "avg_bw": round(float(grants.average(duration_ns)), 4),
            "end_bw": round(float(grants.current_total()), 4),
            "inc_bw": controller.action_counts().get("inc_bw", 0)
            if controller
            else 0,
            "checks": checker.checks,
        }
    ]


def _run_migrate(
    policy: str, duration_ns: int, seed: int
) -> List[Dict[str, object]]:
    """One (migrate, policy) cell: PCPU loss on h0 displaces vm_b."""
    cluster = Cluster(
        default_specs(MIGRATE_HOSTS, pcpu_count=MIGRATE_PCPUS),
        scheduler="RTVirt",
        policy="first_fit",
        migration=MIGRATE_PARAMS,
    )
    h0 = cluster.host("h0")
    controller = None
    if policy == "adaptive":
        controller = FeedbackController(
            h0.system,
            period_ns=CONTROL_PERIOD_NS,
            migration_hook=lambda name: cluster.migrate(name, "h1") is not None,
        ).attach()
    observe(h0.system, tenants=_blame_tenants("migrate"))
    # First-fit packs vm_a/vm_b onto h0 (0.625 each); the heavy vm_c
    # (0.825) no longer fits there and lands on h1.
    cluster.seed([("vm_a", MIGRATE_BIG_RTAS), ("vm_b", MIGRATE_BIG_RTAS)])
    cluster.add_vm("vm_c", MIGRATE_HEAVY_RTAS)
    for vm_name, tasks in cluster.rt_tasks.items():
        for task in tasks:
            PeriodicDriver(cluster.engine, cluster.vms[vm_name], task).start()
    cluster.engine.at(
        duration_ns * 25 // 100,
        lambda: h0.system.fail_pcpu(MIGRATE_PCPUS - 1),
        priority=PRIORITY_FAULT,
        name="feedback:pcpu_fail",
    )
    cluster.run(duration_ns)
    cluster.finalize()
    report = collect_miss_report(
        [task for tasks in cluster.rt_tasks.values() for task in tasks]
    )
    decided = report.total_met + report.total_missed
    migrations = [m for m in cluster.migrations if m.done]
    return [
        {
            "scenario": "migrate",
            "policy": policy,
            "released": report.total_released,
            "missed": report.total_missed,
            "miss_pct": round(100.0 * report.total_missed / decided, 3)
            if decided
            else 0.0,
            "migrations": len(migrations),
            "downtime_ms": round(
                sum(m.downtime_ns for m in migrations) / MSEC, 3
            ),
            "ctl_migrates": controller.action_counts().get("migrate", 0)
            if controller
            else 0,
        }
    ]


def _tenant_slos() -> List[TenantSLO]:
    return [
        TenantSLO(name, TENANT_TARGET_P99_USEC, weight=weight)
        for name, weight in TENANT_TIERS
    ]


def _run_tenant(
    policy: str, duration_ns: int, seed: int
) -> List[Dict[str, object]]:
    """One (tenant, policy) cell: a forced shed under either policy."""
    system = RTVirtSystem(pcpu_count=TENANT_PCPUS)
    ledger = CreditLedger(
        _tenant_slos(), {f"{name}0": name for name, _ in TENANT_TIERS}
    ).attach(system.machine.bus)
    system.admission.bind_tenants(ledger.tenant_of_vm)
    if policy == "credit":
        system.admission.set_shed_policy(ledger.shed_order)
    checker = InvariantChecker(system).attach()
    observe(system, tenants=_blame_tenants("tenant"))
    for name, _ in TENANT_TIERS:  # creation order: bronze, silver, gold
        vm = system.create_vm(f"{name}0")
        task = Task(f"{name}0.rta0", *TENANT_RTA)
        vm.register_task(task)
        PeriodicDriver(system.engine, vm, task).start()
    # Two PCPU failures leave capacity 1 against 1.275 granted: exactly
    # one grant must be revoked — *which* one is the policy under test.
    for index in (TENANT_PCPUS - 1, TENANT_PCPUS - 2):
        system.engine.at(
            duration_ns * 25 // 100,
            lambda index=index: system.fail_pcpu(index),
            priority=PRIORITY_FAULT,
            name="feedback:pcpu_fail",
        )
    system.run(duration_ns)
    report = system.miss_report()
    rows: List[Dict[str, object]] = []
    for name, weight in TENANT_TIERS:
        stats = report.per_task[f"{name}0.rta0"]
        decided = stats.met + stats.missed
        ledger_stats = ledger.stats(name)
        rows.append(
            {
                "scenario": "tenant",
                "policy": policy,
                "tenant": name,
                "weight": weight,
                "released": stats.released,
                "missed": stats.missed,
                "miss_pct": round(100.0 * stats.missed / decided, 3)
                if decided
                else 0.0,
                "sheds": ledger_stats["violations"],
                "credit": round(ledger.credit(name), 4),
                "checks": checker.checks,
            }
        )
    return rows


_SCENARIO_RUNNERS = {
    "overrun": _run_overrun,
    "migrate": _run_migrate,
    "tenant": _run_tenant,
}


def run_feedback_case(
    scenario: str,
    policy: str,
    duration_ns: int,
    seed: int,
) -> List[Dict[str, object]]:
    """One (scenario, policy) cell — the parallel-runner shard.

    The observed host system reaches the observation hook right after
    construction (before any VM exists), so observers see every event
    from the initial reservations on; for the migrate scenario that is
    h0, the host the controller watches.  Returns the cell's rows (one
    per policy for overrun/migrate, one per tenant for tenant).
    """
    runner = _SCENARIO_RUNNERS.get(scenario)
    if runner is None:
        raise ValueError(f"unknown feedback scenario {scenario!r}")
    return runner(policy, duration_ns, seed)


def feedback_unit_specs(
    experiment_id: str,
) -> List[Tuple[str, Dict[str, object]]]:
    """(unit label, shard kwargs) pairs of one experiment, in row order."""
    scenario, policies = FEEDBACK_CELLS[experiment_id]
    return [
        (policy, {"scenario": scenario, "policy": policy})
        for policy in policies
    ]


@dataclass
class FeedbackResult:
    """Per-policy rows of one adaptive-control scenario."""

    scenario: str
    cases: List[Dict[str, object]]

    def rows(self) -> List[Dict[str, object]]:
        return list(self.cases)

    def summary(self) -> str:
        return format_table(
            self.rows(), title=f"Adaptive control — scenario {self.scenario!r}"
        )


def assemble_feedback(parts: Sequence[List[Dict[str, object]]]) -> FeedbackResult:
    """Parallel-runner assembly: parts arrive in unit (= policy) order."""
    cases = [row for part in parts for row in part]
    scenario = cases[0]["scenario"] if cases else "?"
    return FeedbackResult(scenario, cases)
