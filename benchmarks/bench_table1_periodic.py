"""Table 1 / §4.2 — periodic RTA groups under RTVirt and RT-Xen.

The paper's result: both frameworks meet every deadline of every group.
"""

from repro.runner.executor import execute_plan
from repro.runner.workunits import table1_plan
from repro.simcore.time import sec

from .conftest import run_once


def test_table1_periodic_groups(benchmark):
    result = run_once(benchmark, execute_plan, table1_plan(duration_ns=sec(10)))
    print()
    print(result.summary())
    benchmark.extra_info["total_missed"] = sum(r.missed for r in result.runs)
    assert result.all_deadlines_met()
