"""Tests for the measured per-unit cost model (costs.json)."""

import json
import os

import pytest

from repro.runner import ResultCache, run_experiments
from repro.runner.cache import disabled_cache
from repro.runner.costs import COSTS_FILE_NAME, CostModel
from repro.runner.workunits import WorkUnit, estimated_cost_s, ordered_by_cost


def model(tmp_path) -> CostModel:
    return CostModel(str(tmp_path / COSTS_FILE_NAME))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        writer = model(tmp_path)
        writer.record({"fig3/whole": 1.23456, "table2/whole": 0.5})
        reader = model(tmp_path)
        assert reader.costs == {"fig3/whole": 1.235, "table2/whole": 0.5}

    def test_merge_keeps_unmeasured_units(self, tmp_path):
        """A partial (--only) run must not forget the skipped units."""
        model(tmp_path).record({"a": 1.0, "b": 2.0})
        partial = model(tmp_path)
        partial.record({"b": 3.0})
        assert partial.costs == {"a": 1.0, "b": 3.0}
        assert model(tmp_path).costs == {"a": 1.0, "b": 3.0}

    def test_empty_record_writes_nothing(self, tmp_path):
        empty = model(tmp_path)
        empty.record({})
        assert not os.path.exists(empty.path)

    def test_missing_file_is_empty(self, tmp_path):
        assert model(tmp_path).costs == {}

    def test_corrupt_file_is_empty(self, tmp_path):
        broken = model(tmp_path)
        with open(broken.path, "w") as fh:
            fh.write("not json")
        assert broken.costs == {}

    def test_non_dict_payload_is_empty(self, tmp_path):
        listy = model(tmp_path)
        with open(listy.path, "w") as fh:
            json.dump([1, 2], fh)
        assert listy.costs == {}

    def test_non_numeric_values_are_dropped(self, tmp_path):
        mixed = model(tmp_path)
        with open(mixed.path, "w") as fh:
            json.dump({"a": "fast", "b": 2}, fh)
        assert mixed.costs == {"b": 2.0}

    def test_noop_model(self):
        noop = CostModel(None)
        assert noop.costs == {}
        noop.record({"a": 1.0})  # must not raise
        assert noop.costs == {"a": 1.0}  # in-memory only


class TestForCache:
    def test_enabled_cache_places_file_alongside_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), salt="s")
        costs = CostModel.for_cache(cache)
        assert costs.path == os.path.join(cache.path, COSTS_FILE_NAME)

    def test_disabled_cache_gets_noop_model(self):
        assert CostModel.for_cache(disabled_cache()).path is None


class TestScheduling:
    def test_measured_beats_reference_table(self):
        unit = WorkUnit("fig5b", "fig5b/RTVirt", "m:f")
        assert estimated_cost_s(unit) > 10  # hand-recorded table
        assert estimated_cost_s(unit, {"fig5b/RTVirt": 0.5}) == 0.5

    def test_family_and_default_fallbacks(self):
        table1_unit = WorkUnit("table1", "table1/X/RTVirt", "m:f")
        unknown = WorkUnit("fig9", "fig9/whole", "m:f")
        assert estimated_cost_s(table1_unit) == 0.5
        assert estimated_cost_s(unknown) == 0.15

    def test_measured_costs_reorder_lpt(self):
        fast = WorkUnit("a", "a/1", "m:f")
        slow = WorkUnit("b", "b/1", "m:f")
        assert ordered_by_cost([fast, slow]) == [fast, slow]  # id tiebreak
        measured = {"a/1": 0.1, "b/1": 9.0}
        assert ordered_by_cost([fast, slow], measured) == [slow, fast]

    def test_cold_start_submits_the_longest_small_unit_first(self):
        # The small-unit families with no costs.json (perfbench's
        # registry_slice): the static feedback cell, the longest at about
        # 1.2 s serial, must not queue behind sub-second cells.
        from repro.experiments.registry import expand_ids
        from repro.runner.workunits import build_plans

        ids = expand_ids(["robustness_*", "cluster_*", "feedback_*"])
        units = [unit for plan in build_plans(ids) for unit in plan.units]
        assert len(units) == 37
        ordered = [unit.unit_id for unit in ordered_by_cost(units, measured=None)]
        assert ordered[0] == "feedback_overrun/static"
        assert ordered.index("feedback_migrate/static") < ordered.index(
            "feedback_overrun/adaptive"
        )


class TestExecutorIntegration:
    def test_run_persists_measured_walls(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiments(
            ["table2", "fig3"], cache=ResultCache(cache_dir, salt="s")
        )
        recorded = CostModel(os.path.join(cache_dir, COSTS_FILE_NAME)).costs
        assert set(recorded) == {"table2/whole", "fig3/whole"}
        assert all(wall >= 0 for wall in recorded.values())

    def test_fully_cached_run_keeps_previous_costs(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiments(["table2"], cache=ResultCache(cache_dir, salt="s"))
        before = CostModel(os.path.join(cache_dir, COSTS_FILE_NAME)).costs
        assert before
        run_experiments(["table2"], cache=ResultCache(cache_dir, salt="s"))
        after = CostModel(os.path.join(cache_dir, COSTS_FILE_NAME)).costs
        assert after == before
