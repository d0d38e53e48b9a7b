"""The two "scenario" namespaces must stay distinct and stable.

``repro.scenario`` is the declarative experiment runner;
``repro.faults.timeline`` is the fault-timeline DSL.  These tests pin
the public import paths and that the DSL's old module name
``repro.faults.scenario`` is gone.
"""

import importlib
import sys
import warnings

import pytest


def test_public_fault_dsl_path_is_the_package():
    from repro.faults import At, Every, Scenario
    from repro.faults.timeline import At as TAt
    from repro.faults.timeline import Every as TEvery
    from repro.faults.timeline import Scenario as TScenario

    assert (At, Every, Scenario) == (TAt, TEvery, TScenario)


def test_experiment_runner_namespace_is_unrelated():
    import repro.faults.timeline
    import repro.scenario

    assert repro.scenario is not repro.faults.timeline
    assert hasattr(repro.scenario, "run_scenario")
    assert not hasattr(repro.faults.timeline, "run_scenario")
    # The DSL's Scenario is not the experiment runner's entry point.
    assert repro.scenario.run_scenario is not repro.faults.timeline.Scenario


def test_old_module_path_no_longer_imports():
    sys.modules.pop("repro.faults.scenario", None)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.faults.scenario")


def test_new_module_path_does_not_warn():
    sys.modules.pop("repro.faults.timeline", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        importlib.import_module("repro.faults.timeline")
