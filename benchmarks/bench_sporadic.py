"""§4.2 sporadic RTAs — externally triggered activations, no misses.

Runs two representative groups on both frameworks (the full six-group
sweep is the same code with more wall-clock).
"""

from repro.runner.executor import execute_plan
from repro.runner.workunits import sporadic_plan

from .conftest import run_once


def test_sporadic_rtas(benchmark):
    result = run_once(
        benchmark,
        execute_plan,
        sporadic_plan(requests_per_rta=25, seed=7, groups=["H-Equiv", "NH-Dec"]),
    )
    print()
    print(result.summary())
    benchmark.extra_info["total_missed"] = sum(r.missed for r in result.runs)
    assert result.all_deadlines_met()
