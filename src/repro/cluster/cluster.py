"""The cluster facade: N hosts, one engine, live VM mobility.

A :class:`Cluster` instantiates one complete per-host system
(:class:`~repro.core.system.RTVirtSystem`,
:class:`~repro.baselines.rtxen.RTXenSystem` or
:class:`~repro.baselines.credit.CreditSystem`) per
:class:`~repro.cluster.hosts.HostSpec`, all sharing a single
:class:`~repro.simcore.engine.Engine`, so cross-host events (pre-copy
rounds, blackouts, client deliveries) interleave with every host's
scheduling in one deterministic timeline.

Placement is delegated to the analytical
:class:`~repro.placement.cluster.ClusterPlanner` — the planner's
bookkeeping *is* the management plane's view, kept in lock-step with
the simulated reality by :meth:`seed` / :meth:`add_vm` /
:meth:`shutdown_vm` / :meth:`migrate`.  Bandwidth demand is computed
per host-scheduler family from the VM's RTA set, using exactly the
reservation the in-sim admission path would derive, so planner-feasible
placements are admission-feasible by construction.

Clock semantics: the engine time is the one true timeline; each host
additionally has a :class:`~repro.simcore.clock.HostClock` mapping it
to a local view.  All scheduling runs on engine time — only the
cross-host deadline audit (stamp on the releasing host, check on the
completing host) reads local clocks, which is where offset and drift
become observable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..baselines.credit import CreditSystem
from ..baselines.rtxen import RTXenSystem
from ..control import actions as A
from ..control.port import ActuationPort
from ..core.system import DEFAULT_SLACK_NS, RTVirtSystem
from ..guest.task import Task, TaskKind
from ..placement.cluster import ClusterPlanner, HostDescriptor, VMDemand
from ..placement.migration import (
    MigrationParams,
    migration_safe_for,
    plan_rebalancing,
    precopy_schedule,
)
from ..simcore.engine import Engine
from ..simcore.errors import AdmissionError, ConfigurationError
from ..workloads.arrivals import ArrivalMux
from .clients import ClusterClient, CrossHostAudit
from .hosts import ClusterHost, HostSpec
from .live import LiveMigration

SCHEDULERS = ("RTVirt", "RT-Xen", "Credit")


class Cluster:
    """N RTVirt/RT-Xen/Credit hosts in one engine, with live migration."""

    def __init__(
        self,
        specs: Sequence[HostSpec],
        scheduler: str = "RTVirt",
        policy: str = "worst_fit",
        engine: Optional[Engine] = None,
        migration: Optional[MigrationParams] = None,
        rtxen_host: str = "gedf",
        slack_ns: int = DEFAULT_SLACK_NS,
    ) -> None:
        if scheduler not in SCHEDULERS:
            raise ConfigurationError(
                f"unknown cluster scheduler {scheduler!r}; choose from {SCHEDULERS}"
            )
        if not specs:
            raise ConfigurationError("a cluster needs at least one host")
        self.engine = engine if engine is not None else Engine()
        self.scheduler_name = scheduler
        self.rtxen_host = rtxen_host
        self.slack_ns = slack_ns
        self.hosts: List[ClusterHost] = [
            ClusterHost(i, spec, self._build_system(spec))
            for i, spec in enumerate(specs)
        ]
        self.planner = ClusterPlanner(
            [
                HostDescriptor(s.name, s.pcpu_count, s.background_reserve)
                for s in specs
            ],
            policy,
        )
        #: Default pre-copy parameters for :meth:`migrate`/:meth:`rebalance`;
        #: ``None`` means "migration not configured (or non-convergent)".
        self.migration_params = migration
        self.mux = ArrivalMux(self.engine, "cluster-net")
        self.audit = CrossHostAudit()
        self.vms: Dict[str, object] = {}
        self.rt_tasks: Dict[str, List[Task]] = {}
        self.clients: List[ClusterClient] = []
        self.migrations: List[LiveMigration] = []
        self.total_downtime_ns = 0
        self._vm_hosts: Dict[str, ClusterHost] = {}
        self._vm_rtas: Dict[str, Tuple[Tuple[int, int], ...]] = {}
        self._migrating: Set[str] = set()
        #: Management-plane event log: (engine time, kind, detail tuple).
        self.log: List[Tuple[int, str, tuple]] = []
        #: The cluster's own actuation port: placement mutations
        #: (migrate, rebalance) flow through it, so feedback policies
        #: issue them the same way they do bandwidth ones.
        self.control = ActuationPort()
        self.control.register(
            A.MigrateVM.kind,
            lambda a: self._do_migrate(a.vm_name, a.dest, a.params),
        )
        self.control.register(
            A.RebalanceCluster.kind,
            lambda a: self._do_rebalance(a.params, a.target_imbalance),
        )

    def _build_system(self, spec: HostSpec):
        if self.scheduler_name == "RTVirt":
            return RTVirtSystem(
                spec.pcpu_count,
                engine=self.engine,
                slack_ns=self.slack_ns,
                background_reserve=spec.background_reserve,
            )
        if self.scheduler_name == "RT-Xen":
            return RTXenSystem(spec.pcpu_count, engine=self.engine, host=self.rtxen_host)
        return CreditSystem(spec.pcpu_count, engine=self.engine)

    # -- lookups -------------------------------------------------------------------

    @property
    def machine(self):
        """The first host's machine (fault-DSL context compatibility)."""
        return self.hosts[0].machine

    def host(self, ref) -> ClusterHost:
        """Resolve a host by index, name or identity."""
        if isinstance(ref, ClusterHost):
            return ref
        if isinstance(ref, int):
            return self.hosts[ref]
        for chost in self.hosts:
            if chost.name == ref:
                return chost
        raise ConfigurationError(f"unknown host {ref!r}")

    def host_of(self, vm_name: str) -> ClusterHost:
        """The host currently *running* the VM (flips at migration resume)."""
        return self._vm_hosts[vm_name]

    def _note(self, kind: str, *detail) -> None:
        self.log.append((self.engine.now, kind, detail))

    # -- demand / reservation accounting -------------------------------------------

    def _reservation_for(
        self, rtas: Sequence[Tuple[int, int]]
    ) -> Optional[Tuple[int, int]]:
        """The single-VCPU (budget, period) a VM with *rtas* reserves.

        Mirrors the in-sim sizing exactly: RTVirt derives the budget from
        the task set's aggregate bandwidth at the minimum period plus the
        per-VCPU slack (:func:`repro.guest.params.derive_vcpu_params`);
        RT-Xen sizes an offline deferrable-server interface with a 1.5×
        bandwidth margin; Credit reserves nothing (weight-scheduled).
        """
        if self.scheduler_name == "Credit":
            return None
        period_ns = min(p for _, p in rtas)
        if self.scheduler_name == "RT-Xen":
            budget_ns = min(
                period_ns,
                sum(s * period_ns // p for s, p in rtas) * 3 // 2,
            )
            return (budget_ns, period_ns)
        bandwidth = sum(Fraction(s, p) for s, p in rtas)
        budget_ns = math.ceil(bandwidth * period_ns) + self.slack_ns
        return (min(budget_ns, period_ns), period_ns)

    def _demand(self, name: str, rtas: Sequence[Tuple[int, int]]) -> VMDemand:
        """Planner-visible bandwidth: the reservation, not the raw load."""
        reservation = self._reservation_for(rtas)
        if reservation is None:  # Credit: plan on raw task bandwidth
            return VMDemand(name, sum(Fraction(s, p) for s, p in rtas))
        budget_ns, period_ns = reservation
        return VMDemand(name, Fraction(budget_ns, period_ns))

    def _planner_demand(self, vm_name: str) -> VMDemand:
        host = self.planner.host_of(vm_name)
        return next(vm for vm in host.placed if vm.name == vm_name)

    # -- VM lifecycle ---------------------------------------------------------------

    def seed(
        self, workload: Sequence[Tuple[str, Sequence[Tuple[int, int]]]]
    ) -> Dict[str, str]:
        """Batch-place the initial VM population via the planner.

        Uses :meth:`ClusterPlanner.place_all` (largest demand first,
        all-or-nothing) and instantiates each VM on its assigned host.
        Returns {vm name -> host name}.
        """
        demands = [self._demand(name, rtas) for name, rtas in workload]
        assignments = self.planner.place_all(demands)
        for name, rtas in workload:
            self._instantiate(self.host(assignments[name]), name, rtas)
        return assignments

    def add_vm(self, name: str, rtas: Sequence[Tuple[int, int]]):
        """Place one VM on the best *alive* host under the planner policy."""
        demand = self._demand(name, rtas)
        descriptor = self._choose_alive(demand)
        descriptor.placed.append(demand)
        self.planner.assignments[name] = descriptor.name
        return self._instantiate(self.host(descriptor.name), name, rtas)

    def _choose_alive(self, demand: VMDemand) -> HostDescriptor:
        """Planner-policy candidate selection restricted to alive hosts.

        Same tie-breaking as :meth:`ClusterPlanner._candidate` (lowest
        index wins), minus any failed host — the planner itself has no
        notion of host health.
        """
        feasible = [
            (i, self.planner.host(chost.name))
            for i, chost in enumerate(self.hosts)
            if not chost.failed
        ]
        feasible = [(i, d) for i, d in feasible if d.fits(demand)]
        if not feasible:
            raise AdmissionError(
                f"no live host can admit {demand.name} "
                f"(demand {float(demand.bandwidth):.3f} CPUs)",
                level="host",
            )
        if self.planner.policy == "worst_fit":
            return max(feasible, key=lambda pair: (pair[1].headroom, -pair[0]))[1]
        if self.planner.policy == "best_fit":
            return min(feasible, key=lambda pair: (pair[1].headroom, pair[0]))[1]
        return feasible[0][1]  # first_fit

    def _instantiate(self, chost: ClusterHost, name: str, rtas):
        system = chost.system
        rtas = tuple(tuple(pair) for pair in rtas)
        if self.scheduler_name == "RT-Xen":
            vm = system.create_vm(name, interfaces=[self._reservation_for(rtas)])
        else:
            vm = system.create_vm(name)
        tasks: List[Task] = []
        for j, (slice_ns, period_ns) in enumerate(rtas):
            task = Task(f"{name}.rta{j}", slice_ns, period_ns, TaskKind.SPORADIC)
            if self.scheduler_name == "RT-Xen":
                system.register_rta(vm, task)
            else:
                vm.register_task(task)
            tasks.append(task)
        self.vms[name] = vm
        self.rt_tasks[name] = tasks
        self._vm_hosts[name] = chost
        self._vm_rtas[name] = rtas
        self._note("vm_place", name, chost.name)
        return vm

    def shutdown_vm(self, name: str) -> None:
        if name in self._migrating:
            raise ConfigurationError(f"VM {name} is mid-migration")
        vm = self.vms.pop(name)
        chost = self._vm_hosts.pop(name)
        self.planner.remove(name)
        self._vm_rtas.pop(name)
        self.rt_tasks.pop(name)
        chost.system.shutdown_vm(vm)
        self._note("vm_shutdown", name, chost.name)

    def attach_client(
        self,
        vm_name: str,
        task_index: int,
        rng,
        min_interarrival_ns: int,
        max_interarrival_ns: int,
        deadline_ns: Optional[int] = None,
    ) -> ClusterClient:
        """Start an open-loop network client against one of a VM's RTAs."""
        task = self.rt_tasks[vm_name][task_index]
        client = ClusterClient(
            self,
            vm_name,
            task,
            rng,
            min_interarrival_ns,
            max_interarrival_ns,
            deadline_ns,
        )
        self.clients.append(client)
        return client.start()

    # -- migration -------------------------------------------------------------------

    def migrate(
        self,
        vm_name: str,
        dest,
        params: Optional[MigrationParams] = None,
    ) -> Optional[LiveMigration]:
        """Start a live migration of *vm_name* to *dest* (None = refused).

        Routed through the cluster's actuation port; refusal is graceful
        and logged: no configured (or non-convergent) pre-copy
        parameters, the VM already in flight, or destination == source /
        failed.  An analytically *unsafe* migration (downtime exceeding
        some RTA's slack) still runs — its misses are data.
        """
        return self.control.submit(
            A.MigrateVM(cluster=self, vm_name=vm_name, dest=dest, params=params)
        )

    def _do_migrate(
        self,
        vm_name: str,
        dest,
        params: Optional[MigrationParams] = None,
    ) -> Optional[LiveMigration]:
        params = self.migration_params if params is None else params
        if params is None:
            self._note("migrate_unsafe", vm_name, "non-convergent pre-copy")
            return None
        if vm_name in self._migrating:
            self._note("migrate_skipped", vm_name, "already migrating")
            return None
        source = self._vm_hosts[vm_name]
        dest = self.host(dest)
        if dest is source or dest.failed:
            self._note("migrate_skipped", vm_name, dest.name)
            return None
        # Move the planner bookkeeping up front: the management plane
        # commits the destination's bandwidth at decision time, even
        # though the VCPUs only arrive at resume.
        demand = self._planner_demand(vm_name)
        self.planner.remove(vm_name)
        target = self.planner.host(dest.name)
        if not target.fits(demand):
            self._note("migrate_overcommit", vm_name, dest.name)
        target.placed.append(demand)
        self.planner.assignments[vm_name] = target.name
        return self._start_migration(vm_name, source, dest, params)

    def _start_migration(
        self,
        vm_name: str,
        source: ClusterHost,
        dest: ClusterHost,
        params: MigrationParams,
    ) -> LiveMigration:
        schedule = precopy_schedule(params)
        estimate = schedule.estimate()
        safe = all(
            migration_safe_for(estimate, slice_ns, period_ns)
            for slice_ns, period_ns in self._vm_rtas[vm_name]
        )
        migration = LiveMigration(
            self,
            vm_name,
            source,
            dest,
            schedule,
            safe,
            self._reservation_for(self._vm_rtas[vm_name]),
        )
        self._migrating.add(vm_name)
        self.migrations.append(migration)
        return migration.start()

    def _finish_migration(self, migration: LiveMigration, vm) -> None:
        self._vm_hosts[migration.vm_name] = migration.dest
        self._migrating.discard(migration.vm_name)
        self.total_downtime_ns += migration.downtime_ns
        self._note("migrate_resume", migration.vm_name, migration.dest.name)

    def rebalance(
        self,
        params: Optional[MigrationParams] = None,
        target_imbalance: float = 0.2,
    ) -> List[str]:
        """Plan and execute live migrations reducing planner imbalance.

        Routed through the cluster's actuation port.  Delegates the
        proposal (and its planner bookkeeping) to
        :func:`repro.placement.migration.plan_rebalancing`; each proposed
        VM then gets an in-sim :class:`LiveMigration`.  Proposals for VMs
        already in flight are skipped (the planner's view keeps the
        move — it will be reconciled by the in-flight migration's own
        destination).  Returns the VM names actually set in motion.
        """
        return self.control.submit(
            A.RebalanceCluster(
                cluster=self, params=params, target_imbalance=target_imbalance
            )
        )

    def _do_rebalance(
        self,
        params: Optional[MigrationParams] = None,
        target_imbalance: float = 0.2,
    ) -> List[str]:
        params = self.migration_params if params is None else params
        if params is None:
            self._note("rebalance_off", "non-convergent pre-copy")
            return []
        proposals = plan_rebalancing(self.planner, params, target_imbalance)
        executed: List[str] = []
        for vm_name in proposals:
            source = self._vm_hosts.get(vm_name)
            dest_name = self.planner.assignments[vm_name]
            if (
                source is None
                or source.name == dest_name
                or vm_name in self._migrating
            ):
                continue
            dest = self.host(dest_name)
            if dest.failed:
                continue
            self._start_migration(vm_name, source, dest, params)
            executed.append(vm_name)
        self._note("rebalance", len(proposals), len(executed))
        return executed

    # -- host faults ------------------------------------------------------------------

    def fail_host(self, ref) -> None:
        """Fail every PCPU of a host and evacuate its VMs by migration."""
        chost = self.host(ref)
        if chost.failed:
            return
        chost.failed = True
        for index in range(chost.spec.pcpu_count):
            chost.system.fail_pcpu(index)
        self._note("host_fail", chost.name)
        self._evacuate(chost)

    def recover_host(self, ref) -> None:
        """Bring a failed host's PCPUs back (VMs do not migrate back)."""
        chost = self.host(ref)
        if not chost.failed:
            return
        for index in range(chost.spec.pcpu_count):
            chost.system.recover_pcpu(index)
        chost.failed = False
        self._note("host_recover", chost.name)

    def _evacuate(self, chost: ClusterHost) -> None:
        """Migrate every VM off *chost*, worst-fit over the alive hosts."""
        stranded = [
            name
            for name, home in sorted(self._vm_hosts.items())
            if home is chost and name not in self._migrating
        ]
        for vm_name in stranded:
            target = self._evacuation_target(vm_name, chost)
            if target is None:
                self._note("vm_stranded", vm_name, chost.name)
                continue
            self.migrate(vm_name, target)

    def _evacuation_target(
        self, vm_name: str, source: ClusterHost
    ) -> Optional[ClusterHost]:
        demand = self._planner_demand(vm_name)
        best: Optional[ClusterHost] = None
        best_headroom: Optional[Fraction] = None
        for chost in self.hosts:
            if chost.failed or chost is source:
                continue
            descriptor = self.planner.host(chost.name)
            if not descriptor.fits(demand):
                continue
            if best_headroom is None or descriptor.headroom > best_headroom:
                best = chost
                best_headroom = descriptor.headroom
        return best

    # -- run --------------------------------------------------------------------------

    def run(self, duration_ns: int) -> None:
        """Advance the whole cluster by *duration_ns* on the shared engine."""
        for chost in self.hosts:
            chost.machine.start()
        self.engine.run_until(self.engine.now + duration_ns)
        for chost in self.hosts:
            chost.machine.sync_all()

    def finalize(self) -> None:
        """Close out accounting on every host, plus mid-blackout VMs."""
        for chost in self.hosts:
            chost.system.finalize()
        for name, vm in sorted(self.vms.items()):
            if vm.machine is None:  # paused in a blackout at the horizon
                vm.finalize(self.engine.now)
