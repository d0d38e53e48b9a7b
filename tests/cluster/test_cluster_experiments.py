"""The cluster_* experiment family: shards, merging, clock-offset effect."""

import pytest

from repro.experiments import cluster_scale, registry
from repro.runner.executor import execute_plan
from repro.runner.workunits import cluster_plan, plan_for
from repro.simcore.time import MSEC, sec
from repro.telemetry.observe import observing

DURATION = sec(1)
SEED = 29


def _keep_cluster(state):
    """An observer that keeps the cluster the hook hands it."""
    return lambda system, context: state.update(cluster=context["cluster"])


class TestUnitSpecs:
    def test_specs_cover_every_host(self):
        for mode in ("consolidate", "rebalance", "hostfail"):
            specs = cluster_scale.cluster_unit_specs(mode)
            for scheduler in cluster_scale.CLUSTER_SCHEDULERS:
                for host_count in cluster_scale.CLUSTER_HOST_COUNTS[mode]:
                    indices = [
                        kwargs["host_index"]
                        for _, kwargs in specs
                        if kwargs["scheduler"] == scheduler
                        and kwargs["host_count"] == host_count
                    ]
                    assert indices == list(range(host_count))

    def test_clockskew_specs_sweep_offsets(self):
        specs = cluster_scale.cluster_unit_specs("clockskew")
        offsets = {kwargs["clock_offset_step_ns"] for _, kwargs in specs}
        assert offsets == set(cluster_scale.CLOCKSKEW_OFFSETS_NS)
        assert len(specs) == 2 * len(cluster_scale.CLOCKSKEW_OFFSETS_NS)

    def test_smoke_grid_is_a_prefix(self):
        full = cluster_scale.cluster_unit_specs("rebalance")
        smoke = cluster_scale.cluster_unit_specs("rebalance", smoke=True)
        assert len(smoke) < len(full)
        labels = [label for label, _ in full]
        assert all(label in labels for label, _ in smoke)


class TestShardEquivalence:
    def test_workunit_plan_matches_specs(self):
        plan = plan_for("cluster_hostfail", None)
        labels = [
            label
            for label, _ in cluster_scale.cluster_unit_specs("hostfail")
        ]
        assert [u.unit_id for u in plan.units] == [
            f"cluster_hostfail/{label}" for label in labels
        ]
        for unit in plan.units:
            assert unit.fn == "repro.experiments.cluster_scale:run_cluster_host"
            kwargs = dict(unit.kwargs)
            assert kwargs["duration_ns"] == registry.CLUSTER_DURATION_NS
            assert kwargs["seed"] == registry.CLUSTER_SEED

    def test_registry_has_every_mode(self):
        for mode in cluster_scale.CLUSTER_MODES:
            assert f"cluster_{mode}" in registry.REGISTRY


class TestClusterScenarios:
    def test_hostfail_evacuates_in_experiment(self):
        """Acceptance: >= 2 hosts in one engine with >= 1 live migration
        whose downtime lands in the result rows."""

        state = {}
        with observing([_keep_cluster(state)]):
            part = cluster_scale.run_cluster_host(
                mode="hostfail",
                scheduler="RTVirt",
                host_count=3,
                host_index=0,
                duration_ns=DURATION,
                seed=SEED,
            )
        cluster = state["cluster"]
        assert len(cluster.hosts) == 3
        done = [m for m in cluster.migrations if m.done]
        assert done, "host failure must trigger at least one live migration"
        assert cluster.total_downtime_ns == sum(m.downtime_ns for m in done)
        assert part["row"]["migr_out"] == len(
            [m for m in done if m.source is cluster.hosts[0]]
        )

    def test_rebalance_migrates_but_consolidate_does_not(self):
        def migrations(mode):
            state = {}
            with observing([_keep_cluster(state)]):
                cluster_scale.run_cluster_host(
                    mode=mode,
                    scheduler="RTVirt",
                    host_count=2,
                    host_index=0,
                    duration_ns=DURATION,
                    seed=SEED,
                )
            return len(state["cluster"].migrations)

        assert migrations("consolidate") == 0
        assert migrations("rebalance") > 0

    def test_clock_offset_changes_cross_host_misses(self):
        """Acceptance: offset != 0 measurably changes the cross-host
        deadline-miss count while the engine-level accounting (which
        runs on true time) stays identical."""

        def audit_and_row(offset_ns):
            state = {}
            with observing([_keep_cluster(state)]):
                part = cluster_scale.run_cluster_host(
                    mode="clockskew",
                    scheduler="RTVirt",
                    host_count=2,
                    host_index=1,
                    duration_ns=sec(2),
                    seed=SEED,
                    clock_offset_step_ns=offset_ns,
                )
            return state["cluster"].audit, part["row"]

        sync_audit, sync_row = audit_and_row(0)
        skew_audit, skew_row = audit_and_row(25 * MSEC)

        sync_decided, sync_missed = sync_audit.cross_pairs()
        skew_decided, skew_missed = skew_audit.cross_pairs()
        assert sync_decided == skew_decided > 0  # same timeline, same jobs
        assert sync_missed == 0
        assert skew_missed > 0
        # The engine's own per-task accounting is offset-invariant.
        assert skew_row["decided"] == sync_row["decided"]
        assert skew_row["missed"] == sync_row["missed"]

    def test_merged_cluster_row_sums_hosts(self):
        plan = cluster_plan("clockskew", duration_ns=DURATION, seed=SEED)
        result = execute_plan(plan)
        rows = result.rows()
        host_rows = [r for r in rows if r["host"] != "cluster"]
        merged = [r for r in rows if r["host"] == "cluster"]
        assert len(merged) == len(cluster_scale.CLOCKSKEW_OFFSETS_NS)
        for config in merged:
            parts = [
                r
                for r in host_rows
                if r["offset_ms"] == config["offset_ms"]
            ]
            assert config["decided"] == sum(r["decided"] for r in parts)
            assert config["migr_in"] == sum(r["migr_in"] for r in parts)
