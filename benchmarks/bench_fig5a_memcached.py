"""Figure 5a — memcached vs 19 non-RTA VMs on 2 PCPUs.

Paper verdicts at the 500 µs p99.9 SLO: RTVirt and RT-Xen A meet it
(RTVirt with 50.2% less CPU), Credit fails with a multi-millisecond
tail despite a low average.
"""

from repro.runner.executor import execute_plan
from repro.runner.workunits import fig5_plan
from repro.simcore.time import sec

from .conftest import run_once


def test_fig5a_nonrta_contention(benchmark):
    plan = fig5_plan("a", duration_ns=sec(40), seed=17)
    result = run_once(benchmark, execute_plan, plan)
    print()
    print(result.summary())
    for outcome in result.outcomes:
        benchmark.extra_info[f"{outcome.scheduler}_p999_us"] = outcome.p999_usec
    assert result.outcome("RTVirt").meets_slo
    assert result.outcome("RT-Xen A").meets_slo
    assert not result.outcome("Credit").meets_slo
    rtvirt = result.outcome("RTVirt").reserved_cpus
    rtxen_a = result.outcome("RT-Xen A").reserved_cpus
    benchmark.extra_info["rtvirt_bandwidth_saving_vs_rtxenA"] = 1 - rtvirt / rtxen_a
    assert abs((1 - rtvirt / rtxen_a) - 0.502) < 0.01  # the 50.2% headline
