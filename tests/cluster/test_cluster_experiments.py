"""The cluster_* experiment family: configurations, the summed cluster
row, clock-offset effect, and one run observing every host."""

import pytest

from repro.experiments import cluster_scale, registry
from repro.runner.executor import execute_plan
from repro.runner.workunits import cluster_plan, execute_unit, observed_plan, plan_for
from repro.simcore.time import MSEC, sec
from repro.telemetry.aggregate import MissRatioAggregator
from repro.telemetry.observe import observing
from repro.telemetry.record import TraceReader, TraceRecorder

DURATION = sec(1)
SEED = 29


def _keep_cluster(state):
    """An observer that keeps the cluster the hook hands it."""
    return lambda system, context: state.update(cluster=context["cluster"])


def single_host_part(
    mode,
    scheduler,
    host_count,
    host_index,
    duration_ns,
    seed,
    clock_offset_step_ns=None,
):
    """The oracle: one full cluster run with a miss counter and a trace
    recorder on host *host_index* alone; that host's row and its trace
    body hash."""
    cluster = cluster_scale.build_cluster(
        mode, scheduler, host_count, duration_ns, seed, clock_offset_step_ns
    )
    host = cluster.hosts[host_index]
    misses = MissRatioAggregator().attach(host.machine.bus)
    recorder = TraceRecorder(None, {}).attach(host.machine.bus)
    cluster.run(duration_ns)
    cluster.finalize()
    decided = misses.decided()
    missed = decided and sum(x for _, x in misses.per_task.values())
    audit = cluster.audit
    xhost_decided, xhost_missed = audit.cross_pairs(host.name)
    if clock_offset_step_ns is None:
        clock_offset_step_ns = cluster_scale.CLUSTER_OFFSET_STEP_NS
    downtime_ns = sum(
        m.downtime_ns for m in cluster.migrations if m.done and m.dest is host
    )
    row = {
        "mode": mode,
        "scheduler": scheduler,
        "hosts": host_count,
        "host": host.name,
        "offset_ms": round(clock_offset_step_ns / MSEC, 3),
        "vms_end": sum(1 for h in cluster._vm_hosts.values() if h is host),
        "migr_in": host.migrations_in,
        "migr_out": host.migrations_out,
        "downtime_ms": round(downtime_ns / MSEC, 3),
        "decided": decided,
        "missed": int(missed),
        "miss_pct": round(100.0 * misses.miss_ratio(), 3),
        "cross_decided": audit.decided(host.name),
        "cross_missed": audit.missed(host.name),
        "cross_miss_pct": round(100.0 * audit.miss_ratio(host.name), 3),
        "xhost_decided": xhost_decided,
        "xhost_missed": xhost_missed,
        "stranded": sum(1 for _, kind, _ in cluster.log if kind == "vm_stranded"),
    }
    return row, TraceReader(recorder.close()).trace_hash


#: Every smoke-length cluster unit: each mode × scheduler (× clock offset).
SMOKE_UNITS = [
    unit
    for mode in cluster_scale.CLUSTER_MODES
    for unit in plan_for(f"cluster_{mode}", smoke=True).units
]


class TestOneRunEveryHost:
    """One configuration run observes each host exactly as a run that
    observes that host alone."""

    @pytest.mark.parametrize("unit", SMOKE_UNITS, ids=lambda u: u.unit_id)
    def test_each_host_matches_its_single_host_run(self, unit):
        config = dict(unit.kwargs)
        recorders = []

        def attach_recorder(system, context):
            recorders.append(TraceRecorder(None, {}).attach(system.machine.bus))

        with observing([attach_recorder]):
            rows = cluster_scale.run_cluster_config(**config)
        assert len(rows) == config["host_count"]
        for index, row in enumerate(rows):
            alone, trace = single_host_part(host_index=index, **config)
            assert row == alone
            assert TraceReader(recorders[index].close()).trace_hash == trace

    def test_profile_gives_the_engine_phases_to_h0_alone(self):
        plan = observed_plan(plan_for("cluster_clockskew", smoke=True), ("profile",))
        _, outputs = execute_unit(plan.units[0])
        h0, *others = outputs["profile"]
        assert len(others) == 1
        assert h0.phase_costs and not any(p.phase_costs for p in others)


class TestUnitSpecs:
    def test_specs_cover_every_host(self):
        """One unit per (scheduler, host count); it observes every host,
        so no kwarg picks one."""
        for mode in ("consolidate", "rebalance", "hostfail"):
            specs = cluster_scale.cluster_unit_specs(mode)
            assert [
                (kwargs["scheduler"], kwargs["host_count"]) for _, kwargs in specs
            ] == [
                (scheduler, host_count)
                for scheduler in cluster_scale.CLUSTER_SCHEDULERS
                for host_count in cluster_scale.CLUSTER_HOST_COUNTS[mode]
            ]
            assert all("host_index" not in kwargs for _, kwargs in specs)

    def test_clockskew_specs_sweep_offsets(self):
        specs = cluster_scale.cluster_unit_specs("clockskew")
        offsets = [kwargs["clock_offset_step_ns"] for _, kwargs in specs]
        assert offsets == list(cluster_scale.CLOCKSKEW_OFFSETS_NS)
        assert [label for label, _ in specs] == ["off0ms", "off25ms"]

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
            assert unit.fn == "repro.experiments.cluster_scale:run_cluster_config"
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
            part, *_ = cluster_scale.run_cluster_config(
                mode="hostfail",
                scheduler="RTVirt",
                host_count=3,
                duration_ns=DURATION,
                seed=SEED,
            )
        cluster = state["cluster"]
        assert len(cluster.hosts) == 3
        done = [m for m in cluster.migrations if m.done]
        assert done, "host failure must trigger at least one live migration"
        assert cluster.total_downtime_ns == sum(m.downtime_ns for m in done)
        assert part["migr_out"] == len(
            [m for m in done if m.source is cluster.hosts[0]]
        )

    def test_rebalance_migrates_but_consolidate_does_not(self):
        def migrations(mode):
            state = {}
            with observing([_keep_cluster(state)]):
                cluster_scale.run_cluster_config(
                    mode=mode,
                    scheduler="RTVirt",
                    host_count=2,
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
                _, part = cluster_scale.run_cluster_config(
                    mode="clockskew",
                    scheduler="RTVirt",
                    host_count=2,
                    duration_ns=sec(2),
                    seed=SEED,
                    clock_offset_step_ns=offset_ns,
                )
            return state["cluster"].audit, part

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
            assert config["missed"] == sum(r["missed"] for r in parts)
            assert config["migr_in"] == sum(r["migr_in"] for r in parts)
