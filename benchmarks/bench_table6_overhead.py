"""Tables 5-6 / §4.5 — scalability and scheduling overhead.

100 concurrent RTAs in the Multi-RTA (10 VMs x 10 RTAs, 20 VCPUs) and
Single-RTA (100 VMs, 100 VCPUs) shapes.  Paper: RTVirt runs both with
0.10% / 0.93% overhead and ≤0.007% misses; RT-Xen fits only 8 groups /
93 VMs on the same host.
"""

from repro.runner.executor import execute_plan
from repro.runner.workunits import table6_plan
from repro.simcore.time import sec

from .conftest import run_once


def test_table6_scalability_overhead(benchmark):
    plan = table6_plan(duration_ns=sec(5), pcpu_count=15)
    result = run_once(benchmark, execute_plan, plan)
    print()
    print(result.summary())
    for run in result.runs:
        benchmark.extra_info[f"{run.scenario}_overhead_pct"] = run.overhead_percent
        benchmark.extra_info[f"{run.scenario}_miss_ratio"] = run.miss_ratio
        assert run.overhead_percent < 1.0
        assert run.miss_ratio < 0.001
    benchmark.extra_info["rtxen_multi_groups"] = result.rtxen_multi_capacity
    benchmark.extra_info["rtxen_single_vms"] = result.rtxen_single_capacity
    assert result.rtxen_multi_capacity < 10
    assert result.rtxen_single_capacity < 100
