"""Experiment execution: the one way a registry experiment runs.

Decomposes every registry experiment into independent *work units*
(whole experiments, and per-shard runs where a harness exposes them),
executes the units in-process or across a process pool, caches unit
results under a content-addressed key, and reassembles per-experiment
output that is byte-identical whatever the worker count.  From the
shell: ``python -m repro run fig3`` (one experiment, in-process) or
``python -m repro run all --jobs 4``; every run writes a run-ledger
manifest (:mod:`repro.runner.ledger`).

    from repro.runner import run_experiments, ResultCache

    report = run_experiments(jobs=4, cache=ResultCache())
    for exp in report.reports:
        print(exp.experiment_id, exp.unit_wall_s)
"""

from .cache import CACHE_DIR_NAME, ResultCache, code_salt, unit_salt
from .costs import COSTS_FILE_NAME, CostModel
from .executor import ExperimentReport, RunReport, run_experiments
from .workunits import ExperimentPlan, WorkUnit, build_plans, plan_for

__all__ = [
    "CACHE_DIR_NAME",
    "COSTS_FILE_NAME",
    "CostModel",
    "ExperimentPlan",
    "ExperimentReport",
    "ResultCache",
    "RunReport",
    "WorkUnit",
    "build_plans",
    "code_salt",
    "plan_for",
    "run_experiments",
    "unit_salt",
]
