"""Catalogue smoke test: every registry entry must run end to end.

Each entry's shortened smoke plan (``plan_for(id, smoke=True)``) is
executed and must produce non-empty ``rows()`` and a string
``summary()`` — a new experiment that is registered but broken (or
returns the wrong result shape) fails here rather than silently
corrupting EXPERIMENTS.md or the benchmarks.

The same run checks the observation hook's coverage: every unit carries
a counting observer, and each unit that simulates must hand the hook
every system it builds, once, before that system runs — so a new unit
that forgets the hook cannot be observed by ``repro run --blame`` and
fails here.
"""

import pytest

from repro.experiments import registry
from repro.runner.executor import run_plans
from repro.runner.workunits import ANALYTIC_FNS, observed_plan, plan_for
from repro.telemetry.observers import OBSERVERS


class _CountingObserver:
    """Watches one system a unit hands the hook (it must not have run)."""

    def __init__(self, system, context, unit_id, arg) -> None:
        assert system.engine.now == 0, "hook reached after the run started"
        self._system = system  # kept alive until finish, so ids stay distinct

    def finish(self, part) -> int:
        return id(self._system)


def _systems_built(unit) -> int:
    if unit.fn in ANALYTIC_FNS:  # fig3, table2, the RT-Xen capacity analysis
        return 0
    return 2 if unit.unit_id == "fig1/whole" else 1  # fig1 compares two hosts


@pytest.mark.parametrize("experiment_id", registry.all_ids())
def test_registry_entry_smoke(experiment_id, monkeypatch):
    monkeypatch.setitem(OBSERVERS, "count", _CountingObserver)
    plan = observed_plan(plan_for(experiment_id, smoke=True), ("count",))
    (report,) = run_plans([plan]).reports
    for unit, _, observed in report.results:
        systems = observed["count"]  # one output per system handed to the hook
        assert len(set(systems)) == len(systems) == _systems_built(unit), unit.unit_id
    rows = report.rows
    assert isinstance(rows, list) and rows, f"{experiment_id} returned no rows"
    for row in rows:
        assert isinstance(row, dict) and row
    assert isinstance(report.summary, str) and report.summary.strip()


class TestExpandIds:
    """Glob expansion backing ``repro run`` targets and the tool gates."""

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
