"""Cluster experiments — multi-host RTVirt with live migration (§6).

The paper's single-host evaluation extends to a cluster: N hosts, each
its own complete system on one shared engine, VMs placed by the
:class:`~repro.placement.cluster.ClusterPlanner` and moved by in-sim
pre-copy live migrations.  Four experiment modes probe the management
plane:

- ``consolidate`` — first-fit packing under VM churn, no rebalancing:
  the cheapest policy, all load crowds the first hosts;
- ``rebalance`` — same workload, but the operator runs
  :func:`repro.placement.migration.plan_rebalancing` mid-run and
  executes the proposed live migrations;
- ``hostfail`` — a whole host fails (via the fault DSL's
  :class:`~repro.faults.HostFail`) and its VMs evacuate by live
  migration to the surviving hosts;
- ``clockskew`` — two RTVirt hosts whose clocks disagree; a VM
  ping-pongs between them, and jobs straddling a blackout are stamped
  on one clock and checked on the other.  With synchronized clocks the
  cross-host audit matches the engine's own accounting; with offset it
  measurably diverges.

Every mode has one work unit per cluster configuration (a scheduler ×
host count, or one clockskew clock offset): it simulates that cluster
once, counting deadline outcomes on every host's bus, and returns each
host's row in host order; the configuration's ``cluster`` row sums
them, so the output is the same whatever the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults import At, HostFail, HostRecover, Scenario
from ..placement.migration import MigrationParams, safe_migration_params
from ..simcore.events import PRIORITY_FAULT
from ..simcore.rng import RandomStreams
from ..simcore.time import MSEC, USEC
from ..telemetry.aggregate import MissRatioAggregator
from ..telemetry.observe import observe
from ..cluster import Cluster, default_specs
from .common import format_table

#: Schedulers compared, in row order.
CLUSTER_SCHEDULERS: Tuple[str, ...] = ("RTVirt", "RT-Xen", "Credit")
#: Experiment modes; ``cluster_<mode>`` are the registry ids.
CLUSTER_MODES: Tuple[str, ...] = (
    "consolidate",
    "rebalance",
    "hostfail",
    "clockskew",
)
#: Host-count grid per mode (first entry doubles as the smoke grid).
CLUSTER_HOST_COUNTS: Dict[str, Tuple[int, ...]] = {
    "consolidate": (2, 4),
    "rebalance": (2, 4),
    "hostfail": (3,),
    "clockskew": (2,),
}
#: Clock-offset step sweep of the clockskew mode (host i gets i×step).
CLOCKSKEW_OFFSETS_NS: Tuple[int, ...] = (0, 25 * MSEC)

PCPUS_PER_HOST = 2
#: Baseline per-host clock offset step: real clusters are never
#: perfectly synchronized, so every mode runs with a small skew.
CLUSTER_OFFSET_STEP_NS = 200 * USEC
LINK_BASE_NS = 20 * USEC
LINK_JITTER_NS = 10 * USEC

#: Pre-copy parameters: 128 MiB VM over a 10 GbE link against a
#: 250 MB/s dirty rate — one iterative round, ~21.5 ms stop-and-copy.
CLUSTER_MIGRATION: Optional[MigrationParams] = safe_migration_params(
    128 * 1024 * 1024, 250_000_000, 1_250_000_000
)
#: The clockskew VM is bigger (256 MiB → ~43 ms blackout) so several
#: sporadic releases straddle each stop-and-copy window.
CLOCKSKEW_MIGRATION: Optional[MigrationParams] = safe_migration_params(
    256 * 1024 * 1024, 250_000_000, 1_250_000_000
)
#: Relative deadline of the clockskew VM's requests: wide enough to
#: absorb the blackout on synchronized clocks, so every extra miss is
#: attributable to the clock offset alone.
CLOCKSKEW_DEADLINE_NS = 48 * MSEC

#: RTA presets cycled over the initial VM population: (slice, period).
VM_PRESETS: Tuple[Tuple[Tuple[int, int], ...], ...] = (
    ((3 * MSEC, 10 * MSEC),),
    ((3 * MSEC, 10 * MSEC), (8 * MSEC, 40 * MSEC)),
    ((2 * MSEC, 20 * MSEC),),
    ((4 * MSEC, 16 * MSEC),),
)


def _attach_clients(
    cluster: Cluster,
    vm_name: str,
    streams: RandomStreams,
    lo_periods: int = 2,
    hi_periods: int = 6,
    deadline_ns: Optional[int] = None,
) -> None:
    for j, task in enumerate(cluster.rt_tasks[vm_name]):
        cluster.attach_client(
            vm_name,
            j,
            streams.stream(f"cluster:{vm_name}.rta{j}"),
            task.period_ns * lo_periods,
            task.period_ns * hi_periods,
            deadline_ns=deadline_ns,
        )


def build_cluster(
    mode: str,
    scheduler: str,
    host_count: int,
    duration_ns: int,
    seed: int,
    clock_offset_step_ns: Optional[int] = None,
    policy: Optional[str] = None,
) -> Cluster:
    """One mode's full cluster scenario, ready to ``run(duration_ns)``.

    All management actions (churn, rebalancing, migrations, host
    faults) are installed as engine events up front, so the timeline is
    fixed regardless of which host a shard later observes.
    """
    if mode not in CLUSTER_MODES:
        raise ValueError(f"unknown cluster mode {mode!r}")
    offset_step = (
        CLUSTER_OFFSET_STEP_NS if clock_offset_step_ns is None else clock_offset_step_ns
    )
    if policy is None:
        policy = "first_fit" if mode in ("consolidate", "rebalance") else "worst_fit"
    params = CLOCKSKEW_MIGRATION if mode == "clockskew" else CLUSTER_MIGRATION
    specs = default_specs(
        host_count,
        pcpu_count=PCPUS_PER_HOST,
        clock_offset_step_ns=offset_step,
        link_base_ns=LINK_BASE_NS,
        link_jitter_ns=LINK_JITTER_NS,
    )
    cluster = Cluster(specs, scheduler=scheduler, policy=policy, migration=params)
    streams = RandomStreams(seed)
    d = duration_ns
    engine = cluster.engine

    if mode == "clockskew":
        cluster.seed([("vm0", VM_PRESETS[0]), ("vm1", VM_PRESETS[2])])
        _attach_clients(
            cluster, "vm0", streams, 1, 2, deadline_ns=CLOCKSKEW_DEADLINE_NS
        )
        _attach_clients(cluster, "vm1", streams)
        # Ping-pong vm0 between the hosts; each h0→h1 leg carries
        # blackout-straddling jobs into the skewed clock domain.
        for k, frac in enumerate((2, 4, 6, 8)):
            dest = "h1" if k % 2 == 0 else "h0"
            engine.at(
                d * frac // 10,
                lambda dest=dest: cluster.migrate("vm0", dest),
                priority=PRIORITY_FAULT,
                name="cluster:migrate",
            )
        return cluster

    vm_count = 2 * host_count - 1 if mode != "hostfail" else host_count + 1
    cluster.seed(
        [
            (f"vm{i}", VM_PRESETS[i % len(VM_PRESETS)])
            for i in range(vm_count)
        ]
    )
    for i in range(vm_count):
        _attach_clients(cluster, f"vm{i}", streams)

    if mode == "hostfail":
        scenario = Scenario(
            [
                At(d * 35 // 100, HostFail("h0")),
                At(d * 75 // 100, HostRecover("h0")),
            ]
        )
        scenario.install(cluster, streams)
        return cluster

    # consolidate / rebalance: shared churn timeline.
    def boot(name: str, preset_index: int) -> None:
        cluster.add_vm(name, VM_PRESETS[preset_index % len(VM_PRESETS)])
        _attach_clients(cluster, name, streams)

    engine.at(
        d * 30 // 100,
        lambda: boot("churn0", 3),
        priority=PRIORITY_FAULT,
        name="cluster:boot",
    )
    engine.at(
        d * 45 // 100,
        lambda: boot("churn1", 0),
        priority=PRIORITY_FAULT,
        name="cluster:boot",
    )
    engine.at(
        d * 70 // 100,
        lambda: cluster.shutdown_vm("churn0"),
        priority=PRIORITY_FAULT,
        name="cluster:shutdown",
    )
    if mode == "rebalance":
        for frac in (55, 80):
            engine.at(
                d * frac // 100,
                lambda: cluster.rebalance(target_imbalance=0.25),
                priority=PRIORITY_FAULT,
                name="cluster:rebalance",
            )
    return cluster


def run_cluster_config(
    mode: str,
    scheduler: str,
    host_count: int,
    duration_ns: int,
    seed: int,
    clock_offset_step_ns: Optional[int] = None,
    policy: Optional[str] = None,
) -> List[Dict[str, object]]:
    """One cluster configuration, simulated once: every host's row, in
    host order.

    Each host's system reaches the observation hook after the build,
    with the whole ``cluster`` in its context (``repro cluster --log``
    reads the management plane's log through it).  Subscribing is
    passive, so observing every host leaves each one's timeline as it
    would be with only that host observed.
    """
    cluster = build_cluster(
        mode, scheduler, host_count, duration_ns, seed, clock_offset_step_ns, policy
    )
    counters = []
    for host in cluster.hosts:
        counters.append(MissRatioAggregator().attach(host.machine.bus))
        observe(host.system, cluster=cluster)
    cluster.run(duration_ns)
    cluster.finalize()

    offset_step = (
        CLUSTER_OFFSET_STEP_NS if clock_offset_step_ns is None else clock_offset_step_ns
    )
    audit = cluster.audit
    stranded = sum(1 for _, kind, _ in cluster.log if kind == "vm_stranded")
    rows: List[Dict[str, object]] = []
    for host, misses in zip(cluster.hosts, counters):
        xhost_decided, xhost_missed = audit.cross_pairs(host.name)
        inbound_downtime = sum(
            m.downtime_ns for m in cluster.migrations if m.done and m.dest is host
        )
        row = {
            "mode": mode,
            "scheduler": scheduler,
            "hosts": host_count,
            "host": host.name,
            "offset_ms": round(offset_step / MSEC, 3),
            "vms_end": sum(1 for h in cluster._vm_hosts.values() if h is host),
            "migr_in": host.migrations_in,
            "migr_out": host.migrations_out,
            "downtime_ms": round(inbound_downtime / MSEC, 3),
            "decided": misses.decided(),
            "missed": sum(x for _, x in misses.per_task.values()),
            "miss_pct": round(100.0 * misses.miss_ratio(), 3),
            "cross_decided": audit.decided(host.name),
            "cross_missed": audit.missed(host.name),
            "cross_miss_pct": round(100.0 * audit.miss_ratio(host.name), 3),
            "xhost_decided": xhost_decided,
            "xhost_missed": xhost_missed,
            "stranded": stranded,
        }
        rows.append(row)
    return rows


def cluster_unit_specs(
    mode: str, smoke: bool = False
) -> List[Tuple[str, Dict[str, object]]]:
    """(unit label, configuration kwargs) pairs of one mode, in
    canonical order.

    The label is the work-unit id suffix; the kwargs (minus duration
    and seed, which the caller owns) fully determine the configuration.
    """
    if mode == "clockskew":
        return [
            (
                f"off{offset_ns // MSEC}ms",
                {
                    "mode": mode,
                    "scheduler": "RTVirt",
                    "host_count": 2,
                    "clock_offset_step_ns": offset_ns,
                },
            )
            for offset_ns in CLOCKSKEW_OFFSETS_NS
        ]
    counts = CLUSTER_HOST_COUNTS[mode]
    if smoke:
        counts = counts[:1]
    return [
        (
            f"{scheduler}-{host_count}h",
            {"mode": mode, "scheduler": scheduler, "host_count": host_count},
        )
        for scheduler in CLUSTER_SCHEDULERS
        for host_count in counts
    ]


#: Host-row counts a configuration's ``cluster`` row sums.
_SUMMED = (
    "vms_end",
    "decided",
    "missed",
    "migr_in",
    "migr_out",
    "cross_decided",
    "cross_missed",
    "xhost_decided",
    "xhost_missed",
)


def _pct(part: int, whole: int) -> float:
    return round(100.0 * part / whole, 3) if whole else 0.0


@dataclass
class ClusterResult:
    """Per-host rows plus one summed row per cluster configuration."""

    mode: str
    #: per configuration, in unit order: its hosts' rows, in host order
    configs: List[List[Dict[str, object]]]

    def rows(self) -> List[Dict[str, object]]:
        """Host rows in unit and host order, then one ``cluster`` row per
        configuration."""
        rows = [dict(row) for hosts in self.configs for row in hosts]
        for hosts in self.configs:
            row = dict(hosts[0], host="cluster")
            row.update((key, sum(r[key] for r in hosts)) for key in _SUMMED)
            row["downtime_ms"] = round(sum(r["downtime_ms"] for r in hosts), 3)
            row["miss_pct"] = _pct(row["missed"], row["decided"])
            row["cross_miss_pct"] = _pct(row["cross_missed"], row["cross_decided"])
            rows.append(row)
        return rows

    def summary(self) -> str:
        return format_table(self.rows(), title=f"Cluster — mode {self.mode!r}")


def assemble_cluster(parts: Sequence[List[Dict[str, object]]]) -> ClusterResult:
    """Parallel-runner assembly: one part per configuration, in unit (=
    spec) order, each a list of host rows."""
    mode = parts[0][0]["mode"] if parts else "?"
    return ClusterResult(mode, [list(hosts) for hosts in parts])
