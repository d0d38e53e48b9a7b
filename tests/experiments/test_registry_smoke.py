"""Catalogue smoke test: every registry entry must run end to end.

Each entry's shortened smoke plan (``plan_for(id, smoke=True)``) is
executed and must produce non-empty ``rows()`` and a string
``summary()`` — a new experiment that is registered but broken (or
returns the wrong result shape) fails here rather than silently
corrupting EXPERIMENTS.md or the benchmarks.
"""

import pytest

from repro.experiments import registry
from repro.runner.executor import execute_plan
from repro.runner.workunits import plan_for


@pytest.mark.parametrize("experiment_id", registry.all_ids())
def test_registry_entry_smoke(experiment_id):
    result = execute_plan(plan_for(experiment_id, smoke=True))
    rows = result.rows()
    assert isinstance(rows, list) and rows, f"{experiment_id} returned no rows"
    for row in rows:
        assert isinstance(row, dict) and row
    summary = result.summary()
    assert isinstance(summary, str) and summary.strip()


class TestExpandIds:
    """Glob expansion backing ``run-all --only`` and the tool gates."""

    def test_plain_ids_pass_through(self):
        assert registry.expand_ids(["fig3", "table2"]) == ["fig3", "table2"]

    def test_glob_expands_in_paper_order(self):
        assert registry.expand_ids(["robustness_*"]) == [
            "robustness_pcpu_fail",
            "robustness_vm_churn",
            "robustness_surge",
            "robustness_hypercall",
            "robustness_jitter",
        ]

    def test_question_mark_glob(self):
        assert registry.expand_ids(["fig5?"]) == ["fig5a", "fig5b"]

    def test_mixed_patterns_deduplicate(self):
        assert registry.expand_ids(["fig5b", "fig5*", "fig5b"]) == [
            "fig5b",
            "fig5a",
        ]

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            registry.expand_ids(["nope"])

    def test_unmatched_glob_raises(self):
        with pytest.raises(KeyError):
            registry.expand_ids(["nope_*"])


def test_smoke_variants_differ_from_full_runners():
    """Smoke plans must stay cheap: their unit arguments may not be the
    full-length ones for the simulation-heavy entries."""
    for experiment_id in (
        "table1",
        "fig4",
        "fig5a",
        "fig5b",
        "table6",
        "robustness_pcpu_fail",
    ):
        full = [u.kwargs for u in plan_for(experiment_id).units]
        smoke = [u.kwargs for u in plan_for(experiment_id, smoke=True).units]
        assert smoke != full, experiment_id
