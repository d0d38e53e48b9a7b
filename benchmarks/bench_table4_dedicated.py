"""Table 4 — memcached latency tail on a dedicated CPU per scheduler.

Paper (µs, p99.9): Credit 129.1, RT-Xen 65.7, RTVirt 57.5.  The shape
to reproduce: RTVirt ≈ RT-Xen << Credit, with Credit offset by its wake
path.
"""

from repro.runner.executor import execute_plan
from repro.runner.workunits import table4_plan
from repro.simcore.time import sec

from .conftest import run_once


def test_table4_dedicated_cpu(benchmark):
    result = run_once(benchmark, execute_plan, table4_plan(duration_ns=sec(40), seed=3))
    print()
    print(result.summary())
    for scheduler, tail in result.tails.items():
        benchmark.extra_info[f"{scheduler}_p999_us"] = tail[99.9]
    assert result.tails["Credit"][99.9] > 1.5 * result.tails["RTVirt"][99.9]
    assert result.tails["RTVirt"][99.9] < 70.0
