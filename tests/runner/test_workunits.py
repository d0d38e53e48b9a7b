"""Tests for the work-unit decomposition of the experiment registry."""

from dataclasses import replace

import pytest

from repro.experiments import registry
from repro.runner.workunits import (
    BINDINGS,
    WorkUnit,
    build_plans,
    execute_unit,
    plan_for,
    resolve,
)


class TestPlanShape:
    def test_every_registry_entry_has_a_plan(self):
        for experiment_id in registry.all_ids():
            plan = plan_for(experiment_id)
            assert plan.experiment_id == experiment_id
            assert plan.units

    def test_unit_ids_are_globally_unique(self):
        seen = set()
        for plan in build_plans():
            for unit in plan.units:
                assert unit.unit_id not in seen
                seen.add(unit.unit_id)
                assert unit.experiment_id == plan.experiment_id

    def test_sharded_experiments_have_multiple_units(self):
        for experiment_id, expected in (
            ("table1", 12),
            ("sporadic", 12),
            ("table4", 3),
            ("fig4", 4),
            ("fig5a", 4),
            ("fig5b", 4),
            ("table6", 3),
            ("cluster_consolidate", 6),
            ("cluster_rebalance", 6),
            ("cluster_hostfail", 3),
            ("cluster_clockskew", 2),
        ):
            assert len(plan_for(experiment_id).units) == expected

    def test_every_unit_fn_resolves(self):
        for plan in build_plans():
            for unit in plan.units:
                assert callable(resolve(unit.fn))

    def test_build_plans_keeps_canonical_order(self):
        plans = build_plans(["fig3", "table1"])
        assert [p.experiment_id for p in plans] == ["table1", "fig3"]

    def test_unknown_ids_rejected(self):
        with pytest.raises(KeyError):
            plan_for("nope")
        with pytest.raises(KeyError):
            build_plans(["fig3", "nope"])


class TestBindings:
    def test_one_binding_per_registry_id_in_order(self):
        assert list(BINDINGS) == registry.all_ids()

    def test_seed_reaches_exactly_the_seeded_families(self):
        # Only the families whose simulation draws from the seed.
        seeded = ("robustness_jitter", "cluster_")
        for experiment_id in registry.all_ids():
            default = plan_for(experiment_id).units
            overridden = plan_for(experiment_id, seed=424242).units
            assert (overridden != default) == experiment_id.startswith(seeded)

    def test_smoke_plans_keep_unit_shape(self):
        """Smoke plans call the same functions as the full-length ones."""
        for experiment_id in registry.all_ids():
            full = {u.fn for u in plan_for(experiment_id).units}
            smoke = plan_for(experiment_id, smoke=True)
            assert smoke.experiment_id == experiment_id and smoke.units
            assert {u.fn for u in smoke.units} == full


class TestFingerprint:
    def test_depends_on_salt_and_kwargs(self):
        unit = WorkUnit("fig3", "fig3/whole", "m:f", (("a", 1),))
        assert unit.fingerprint("s1") != unit.fingerprint("s2")
        other = WorkUnit("fig3", "fig3/whole", "m:f", (("a", 2),))
        assert unit.fingerprint("s1") != other.fingerprint("s1")

    def test_stable_across_instances(self):
        a = WorkUnit("fig3", "fig3/whole", "m:f", (("a", 1),))
        b = WorkUnit("fig3", "fig3/whole", "m:f", (("a", 1),))
        assert a.fingerprint("s") == b.fingerprint("s")


class TestWholePlans:
    """Monolithic experiments call their harness module directly."""

    def test_direct_fns_point_at_experiment_modules(self):
        for experiment_id, module in (
            ("fig1", "repro.experiments.fig1_motivation"),
            ("fig3", "repro.experiments.fig3_bandwidth"),
            ("table2", "repro.experiments.table2_config"),
        ):
            (unit,) = plan_for(experiment_id).units
            assert unit.fn.startswith(f"{module}:")
            assert unit.payload  # stripped to rows/summary in the worker

    def test_sharded_units_never_strip(self):
        for unit in plan_for("fig4").units:
            assert not unit.payload

    def test_payload_flag_not_in_fingerprint(self):
        """Payload stripping is an execution detail, not a cache input."""
        plain = WorkUnit("fig3", "fig3/whole", "m:f", payload=False)
        stripped = WorkUnit("fig3", "fig3/whole", "m:f", payload=True)
        assert plain.fingerprint("s") == stripped.fingerprint("s")


class TestExecuteUnit:
    def test_whole_unit_returns_payload(self):
        unit = plan_for("table2").units[0]
        payload, observed = execute_unit(unit)
        assert observed == {}  # an unobserved unit has no observer outputs
        assert payload["rows"]
        assert isinstance(payload["summary"], str)

    def test_observers_are_installed_for_their_unit_only(self):
        from repro.telemetry import observe

        unit = plan_for("robustness_surge", smoke=True).units[0]
        _, observed = execute_unit(replace(unit, observers=("telemetry",)))
        (snapshot,) = observed["telemetry"]  # one per system the unit built
        assert snapshot["misses"]["per_task"]
        assert observe._installed == ()  # nothing leaks into the next unit

    def test_resolve_rejects_bad_path(self):
        with pytest.raises(ValueError):
            resolve("no.colon.here")
