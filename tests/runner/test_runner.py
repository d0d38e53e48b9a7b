"""End-to-end tests for the parallel experiment runner."""

import pytest

from repro.experiments.fig3_bandwidth import run_fig3
from repro.experiments.table2_config import run_table2
from repro.runner import ResultCache, run_experiments

#: Cheap analytical experiments (milliseconds each) for end-to-end runs.
CHEAP_IDS = ["table2", "fig3"]
HARNESSES = {"table2": run_table2, "fig3": run_fig3}


class TestSerialPath:
    def test_matches_registry_run(self):
        """jobs=1 reports what the harness functions themselves return."""
        report = run_experiments(CHEAP_IDS, jobs=1)
        for experiment_report in report.reports:
            result = HARNESSES[experiment_report.experiment_id]()
            assert experiment_report.rows == result.rows()
            assert experiment_report.summary == result.summary()

    def test_canonical_order_and_accounting(self):
        report = run_experiments(["fig3", "table2"], jobs=1)
        assert [r.experiment_id for r in report.reports] == ["table2", "fig3"]
        assert report.jobs == 1
        for experiment_report in report.reports:
            assert experiment_report.units == 1
            assert experiment_report.cached_units == 0

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            run_experiments(CHEAP_IDS, jobs=0)

    def test_rejects_unknown_ids(self):
        with pytest.raises(KeyError):
            run_experiments(["nope"])


class TestParallelPath:
    def test_process_pool_output_is_byte_identical(self):
        serial = run_experiments(CHEAP_IDS, jobs=1)
        parallel = run_experiments(CHEAP_IDS, jobs=2)
        for serial_report, parallel_report in zip(serial.reports, parallel.reports):
            assert parallel_report.rows == serial_report.rows
            assert parallel_report.summary == serial_report.summary


class TestCaching:
    def test_warm_cache_skips_everything_and_matches(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_experiments(CHEAP_IDS, jobs=1, cache=ResultCache(cache_dir))
        assert cold.cache_hits == 0
        assert cold.cache_writes == sum(r.units for r in cold.reports)

        warm = run_experiments(CHEAP_IDS, jobs=1, cache=ResultCache(cache_dir))
        assert warm.cache_misses == 0
        assert warm.cache_hits == sum(r.units for r in warm.reports)
        for warm_report, cold_report in zip(warm.reports, cold.reports):
            assert warm_report.cached_units == warm_report.units
            assert warm_report.rows == cold_report.rows
            assert warm_report.summary == cold_report.summary

    def test_refresh_reexecutes(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiments(CHEAP_IDS, jobs=1, cache=ResultCache(cache_dir))
        refreshed = run_experiments(
            CHEAP_IDS, jobs=1, cache=ResultCache(cache_dir, refresh=True)
        )
        assert refreshed.cache_hits == 0
        assert refreshed.cache_writes == sum(r.units for r in refreshed.reports)

    def test_code_salt_invalidates(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiments(
            CHEAP_IDS, jobs=1, cache=ResultCache(cache_dir, salt="v1")
        )
        stale = run_experiments(
            CHEAP_IDS, jobs=1, cache=ResultCache(cache_dir, salt="v2")
        )
        assert stale.cache_hits == 0

    def test_default_is_uncached(self):
        report = run_experiments(CHEAP_IDS, jobs=1)
        assert report.cache_hits == 0
        assert report.cache_writes == 0


class TestShardedThroughRunner:
    def test_sharded_experiment_units_partition_cache(self, tmp_path):
        """Prime one table4 shard, then confirm run reuses exactly it.

        Executes single shards directly (2-second variants are separate
        cache keys, so this uses the cheap fig-level experiments plus a
        hand-primed shard) to prove per-unit granularity.
        """
        from repro.runner.workunits import plan_for

        cache = ResultCache(str(tmp_path / "cache"), salt="s")
        plan = plan_for("table4")
        assert [u.unit_id for u in plan.units] == [
            "table4/Credit",
            "table4/RT-Xen",
            "table4/RTVirt",
        ]
        cache.put(plan.units[0], {90.0: 1.0, 95.0: 1.0, 99.0: 1.0, 99.9: 1.0})
        hit, _ = cache.get(plan.units[0])
        assert hit
        assert not cache.get(plan.units[1])[0]
