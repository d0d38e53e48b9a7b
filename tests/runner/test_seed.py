"""Seed plumbing: CLI/runner seed overrides reach the seeded units,
participate in the result-cache key, and change what those units
simulate."""

import pytest

from repro.experiments import registry
from repro.runner import run_experiments
from repro.runner.cache import ResultCache
from repro.runner.executor import execute_plan
from repro.runner.ledger import rows_hash
from repro.runner.workunits import BINDINGS, build_plans, plan_for

ROBUSTNESS_IDS = [i for i in registry.all_ids() if i.startswith("robustness_")]


class TestPlanSeeds:
    def test_registry_contains_robustness_family(self):
        assert len(ROBUSTNESS_IDS) == 5

    def test_default_seed_in_unit_kwargs(self):
        plan = plan_for("robustness_pcpu_fail")
        for unit in plan.units:
            assert dict(unit.kwargs)["seed"] == registry.ROBUSTNESS_SEED

    def test_seed_override_lands_in_every_unit(self):
        plan = plan_for("robustness_jitter", seed=424242)
        for unit in plan.units:
            assert dict(unit.kwargs)["seed"] == 424242

    def test_seed_changes_cache_fingerprint(self):
        base = plan_for("robustness_jitter").units[0]
        seeded = plan_for("robustness_jitter", seed=424242).units[0]
        assert base.fingerprint("salt") != seeded.fingerprint("salt")
        assert base.fingerprint("salt") == plan_for("robustness_jitter").units[
            0
        ].fingerprint("salt")

    def test_seed_does_not_disturb_other_plans(self):
        default = build_plans(["table2"], seed=424242)[0]
        assert default.units == build_plans(["table2"])[0].units

    def test_one_unit_per_scheduler(self):
        plan = plan_for("robustness_jitter")
        assert [u.unit_id for u in plan.units] == [
            "robustness_jitter/RTVirt",
            "robustness_jitter/RT-Xen",
            "robustness_jitter/Credit",
        ]


class TestSeededRuns:
    def test_same_seed_reproduces_rows(self):
        first = run_experiments(["robustness_jitter"], jobs=1, seed=5)
        second = run_experiments(["robustness_jitter"], jobs=1, seed=5)
        assert first.reports[0].rows == second.reports[0].rows

    def test_seeded_runs_never_share_cache_entries(self, tmp_path):
        cache = ResultCache(path=str(tmp_path / "cache"))
        run_experiments(["robustness_jitter"], jobs=1, cache=cache, seed=5)
        assert cache.hits == 0
        cache2 = ResultCache(path=str(tmp_path / "cache"))
        run_experiments(["robustness_jitter"], jobs=1, cache=cache2, seed=6)
        assert cache2.hits == 0  # different seed: all misses
        cache3 = ResultCache(path=str(tmp_path / "cache"))
        report = run_experiments(["robustness_jitter"], jobs=1, cache=cache3, seed=5)
        assert cache3.hits == len(report.reports[0].rows) == 3  # same seed: all hits


class TestSeedReach:
    """A seed is bound only where it reaches a random draw."""

    @pytest.mark.parametrize(
        "experiment_id", [i for i in registry.all_ids() if BINDINGS[i].seeded]
    )
    def test_two_seeds_simulate_differently(self, experiment_id):
        hashes = {
            rows_hash(execute_plan(plan_for(experiment_id, seed, smoke=True)).rows())
            for seed in (5, 6)
        }
        assert len(hashes) == 2, f"{experiment_id}: its seed reaches no draw"


class TestCliSeed:
    def test_run_all_seed_flag(self, capsys):
        from repro.cli import main

        rc = main(
            ["run", "robustness_jitter", "--no-cache", "--no-ledger", "--seed", "7"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "robustness_jitter" in out

    def test_run_all_glob_expansion(self, capsys):
        from repro.cli import main

        rc = main(["run", "robustness_*", "--no-cache", "--no-ledger"])
        out = capsys.readouterr().out
        assert rc == 0
        for experiment_id in ROBUSTNESS_IDS:
            assert experiment_id in out

    def test_run_all_bad_glob(self, capsys):
        from repro.cli import main

        assert main(["run", "nothing_*"]) == 2
