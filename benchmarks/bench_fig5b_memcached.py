"""Figure 5b — 5 memcached VMs + 10 video-streaming VMs on 15 PCPUs.

Paper: RTVirt meets the SLO and the video deadlines with the least
bandwidth (7.44 CPUs allocated vs >8 for the others; RT-Xen's *claimed*
bandwidth is the whole host).  Known divergence (see EXPERIMENTS.md):
our idealized Credit model also meets the SLO in this underloaded
scenario, where the paper's Xen credit1 fails through placement
pathologies we do not model.
"""

from repro.runner.executor import execute_plan
from repro.runner.workunits import fig5_plan
from repro.simcore.time import sec

from .conftest import run_once


def test_fig5b_periodic_contention(benchmark):
    plan = fig5_plan("b", duration_ns=sec(25), seed=23)
    result = run_once(benchmark, execute_plan, plan)
    print()
    print(result.summary())
    for outcome in result.outcomes:
        benchmark.extra_info[f"{outcome.scheduler}_p999_us"] = outcome.p999_usec
        benchmark.extra_info[f"{outcome.scheduler}_reserved"] = outcome.reserved_cpus
    rtvirt = result.outcome("RTVirt")
    assert rtvirt.meets_slo
    assert max(rtvirt.video_misses.values()) <= 0.008  # paper: one VM at 0.8%
    # RTVirt allocates the least bandwidth (paper: 7.44 vs 8.03-8.27 CPUs).
    assert rtvirt.reserved_cpus < result.outcome("RT-Xen A").reserved_cpus
    assert rtvirt.reserved_cpus < result.outcome("RT-Xen B").reserved_cpus
    assert abs(rtvirt.reserved_cpus - 7.44) < 0.15
