"""Figure 4 / Table 3 — dynamic video-streaming RTAs with online admission.

Paper: 54 RTAs over 10 minutes, 5 sessions with misses, worst 0.136%.
We run a compressed window; the acceptance bar is the same (worst
per-session miss ratio well under 1%).
"""

from repro.runner.executor import execute_plan
from repro.runner.workunits import fig4_plan
from repro.simcore.time import sec

from .conftest import run_once


def test_fig4_dynamic_streaming(benchmark):
    result = run_once(benchmark, execute_plan, fig4_plan(duration_ns=sec(120), seed=11))
    print()
    print(result.summary())
    benchmark.extra_info["sessions"] = len(result.sessions)
    benchmark.extra_info["worst_miss_ratio"] = result.worst_miss_ratio
    assert result.worst_miss_ratio < 0.01
    assert result.total_released > 10_000
