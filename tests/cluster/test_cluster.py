"""The multi-host cluster facade: placement, live migration, faults."""

from fractions import Fraction

import pytest

from repro.cluster import Cluster, HostSpec, default_specs
from repro.placement import safe_migration_params
from repro.placement.cluster import ClusterPlanner, HostDescriptor
from repro.placement.migration import precopy_schedule
from repro.simcore.errors import AdmissionError, ConfigurationError
from repro.simcore.rng import RandomStreams
from repro.simcore.time import msec, sec

#: 128 MiB over 10 GbE against a 250 MB/s dirty rate: 1 round, ~21.5 ms.
PARAMS = safe_migration_params(128 * 1024 * 1024, 250_000_000, 1_250_000_000)
RTAS = ((3 * msec(1), 10 * msec(1)),)


def two_hosts(**kwargs):
    return Cluster(default_specs(2), migration=PARAMS, **kwargs)


def seeded(cluster, count=2):
    cluster.seed([(f"vm{i}", RTAS) for i in range(count)])
    return cluster


def attach(cluster, vm_name, seed=5):
    streams = RandomStreams(seed)
    for j, task in enumerate(cluster.rt_tasks[vm_name]):
        cluster.attach_client(
            vm_name,
            j,
            streams.stream(f"t:{vm_name}.{j}"),
            task.period_ns,
            2 * task.period_ns,
        )


class TestConstruction:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster(default_specs(2), scheduler="CFS")

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster([])

    def test_hosts_share_one_engine(self):
        cluster = two_hosts()
        assert all(h.engine is cluster.engine for h in cluster.hosts)

    def test_host_lookup_by_index_name_identity(self):
        cluster = two_hosts()
        h1 = cluster.hosts[1]
        assert cluster.host(1) is h1
        assert cluster.host("h1") is h1
        assert cluster.host(h1) is h1
        with pytest.raises(ConfigurationError):
            cluster.host("h9")


class TestSeeding:
    @pytest.mark.parametrize("scheduler", ["RTVirt", "RT-Xen", "Credit"])
    def test_seed_matches_standalone_planner(self, scheduler):
        """The facade's placement is exactly ClusterPlanner.place_all on
        the reservation-derived demands — no second placement logic."""
        workload = [(f"vm{i}", RTAS) for i in range(3)]
        cluster = Cluster(default_specs(2), scheduler=scheduler, migration=PARAMS)
        assignments = cluster.seed(workload)

        reference = ClusterPlanner(
            [HostDescriptor(s.name, s.pcpu_count) for s in default_specs(2)]
        )
        demands = [cluster._demand(name, rtas) for name, rtas in workload]
        assert assignments == reference.place_all(demands)
        for name, host_name in assignments.items():
            assert cluster.host_of(name).name == host_name
            assert cluster.vms[name].name == name

    def test_add_vm_skips_failed_hosts(self):
        cluster = seeded(two_hosts())
        cluster.fail_host("h1")
        vm = cluster.add_vm("late", RTAS)
        assert cluster.host_of("late").name == "h0"
        assert vm.name == "late"

    def test_add_vm_raises_when_no_live_host_fits(self):
        cluster = Cluster(
            [HostSpec("h0", pcpu_count=1)], scheduler="RTVirt", migration=PARAMS
        )
        big = ((9 * msec(1), 10 * msec(1)),)
        cluster.seed([("vm0", big)])
        with pytest.raises(AdmissionError):
            cluster.add_vm("vm1", big)


class TestMigration:
    def test_migrate_moves_vm_and_records_downtime(self):
        cluster = seeded(two_hosts(policy="first_fit"))
        attach(cluster, "vm0")
        source = cluster.host_of("vm0")
        dest = cluster.hosts[1 - source.index]
        migration = cluster.migrate("vm0", dest)
        assert migration is not None
        schedule = precopy_schedule(PARAMS)
        assert migration.downtime_ns == schedule.downtime_ns
        cluster.run(sec(1))
        assert migration.done
        assert cluster.host_of("vm0") is dest
        assert cluster.total_downtime_ns == schedule.downtime_ns
        assert dest.migrations_in == 1 and source.migrations_out == 1
        assert cluster.planner.assignments["vm0"] == dest.name

    def test_vm_is_paused_during_blackout(self):
        cluster = seeded(two_hosts(policy="first_fit"))
        source = cluster.host_of("vm0")
        migration = cluster.migrate("vm0", 1 - source.index)
        mid_blackout = (migration.pause_ns + migration.resume_ns) // 2
        cluster.run(mid_blackout + 1)
        vm = cluster.vms["vm0"]
        assert vm.machine is None  # extracted: no host is running it
        cluster.run(sec(1))
        assert vm.machine is cluster.host_of("vm0").machine

    def test_migrate_without_params_is_graceful(self):
        """Satellite: a non-convergent pre-copy (dirty rate >= link)
        must refuse the migration, not raise."""
        assert safe_migration_params(1 << 20, 2_000_000_000, 1_000_000_000) is None
        cluster = seeded(Cluster(default_specs(2), migration=None))
        assert cluster.migrate("vm0", 1) is None
        assert cluster.rebalance() == []
        kinds = {kind for _, kind, _ in cluster.log}
        assert "migrate_unsafe" in kinds and "rebalance_off" in kinds
        assert cluster.host_of("vm0") is cluster.hosts[0]

    def test_migrate_to_own_host_skipped(self):
        cluster = seeded(two_hosts())
        source = cluster.host_of("vm0")
        assert cluster.migrate("vm0", source) is None

    def test_double_migrate_skipped_while_in_flight(self):
        cluster = seeded(two_hosts(policy="first_fit"))
        assert cluster.migrate("vm0", 1) is not None
        assert cluster.migrate("vm0", 1) is None
        assert len(cluster.migrations) == 1

    def test_shutdown_mid_migration_deferred(self):
        cluster = seeded(two_hosts(policy="first_fit"))
        cluster.migrate("vm0", 1)
        cluster.shutdown_vm("vm0")
        assert "vm0" in cluster.vms  # still in flight
        cluster.run(sec(1))
        assert "vm0" not in cluster.vms
        assert "vm0" not in cluster.planner.assignments
        kinds = [(kind, detail) for _, kind, detail in cluster.log]
        deferred = kinds.index(("vm_shutdown_deferred", ("vm0",)))
        resumed = kinds.index(("migrate_resume", ("vm0", "h1")))
        assert deferred < resumed
        assert kinds[resumed + 1] == ("vm_shutdown", ("vm0", "h1"))

    def test_shutdown_after_resume_ok(self):
        cluster = seeded(two_hosts(policy="first_fit"))
        cluster.migrate("vm0", 1)
        cluster.run(sec(1))
        cluster.shutdown_vm("vm0")
        assert "vm0" not in cluster.vms
        assert "vm0" not in cluster.planner.assignments


class TestHostFaults:
    def test_fail_host_evacuates_by_migration(self):
        cluster = Cluster(default_specs(3), migration=PARAMS)
        cluster.seed([("vm0", RTAS), ("vm1", RTAS)])
        victims = [n for n in ("vm0", "vm1") if cluster.host_of(n).name == "h0"]
        cluster.fail_host("h0")
        assert cluster.host("h0").failed
        cluster.run(sec(1))
        for name in victims:
            assert cluster.host_of(name).name != "h0"
        assert len(cluster.migrations) == len(victims)

    def test_fail_host_strands_when_nothing_fits(self):
        cluster = Cluster(
            [HostSpec("h0", pcpu_count=1), HostSpec("h1", pcpu_count=1)],
            migration=PARAMS,
        )
        big = ((9 * msec(1), 10 * msec(1)),)
        cluster.seed([("vm0", big), ("vm1", big)])
        cluster.fail_host("h0")
        kinds = [kind for _, kind, _ in cluster.log]
        assert "vm_stranded" in kinds
        assert not cluster.migrations

    def test_recover_host_accepts_new_vms_again(self):
        cluster = Cluster(default_specs(2, pcpu_count=1), migration=PARAMS)
        seeded(cluster)
        cluster.fail_host("h0")
        cluster.run(sec(1))
        cluster.recover_host("h0")
        assert not cluster.host("h0").failed
        cluster.add_vm("back", RTAS)
        assert cluster.host_of("back").name == "h0"  # worst fit: now empty


class TestRebalance:
    def test_rebalance_executes_proposals(self):
        cluster = Cluster(default_specs(2), policy="first_fit", migration=PARAMS)
        cluster.seed([(f"vm{i}", RTAS) for i in range(4)])
        assert all(cluster.host_of(f"vm{i}").name == "h0" for i in range(4))
        moved = cluster.rebalance(target_imbalance=0.25)
        assert moved
        cluster.run(sec(1))
        assert any(cluster.host_of(name).name == "h1" for name in moved)
        for name in moved:
            assert cluster.planner.assignments[name] == "h1"
