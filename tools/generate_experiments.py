#!/usr/bin/env python3
"""Regenerate every experiment at report length and dump the summaries.

Used to produce the measured numbers recorded in EXPERIMENTS.md:

    python tools/generate_experiments.py > /tmp/experiments_out.txt
"""

import time

from repro.runner.executor import execute_plan
from repro.runner.workunits import (
    fig1_plan,
    fig3_plan,
    fig4_plan,
    fig5_plan,
    sporadic_plan,
    table1_plan,
    table2_plan,
    table4_plan,
    table6_plan,
)
from repro.simcore.time import sec

#: (section title, plan at report length), in EXPERIMENTS.md order.
SECTIONS = [
    ("Figure 1 — motivation (30 s)", fig1_plan(duration_ns=sec(30))),
    (
        "Table 1 groups — periodic (20 s per group per framework)",
        table1_plan(duration_ns=sec(20)),
    ),
    ("Table 2 — NH-Dec VM configurations", table2_plan()),
    ("Figure 3 — bandwidth requirements", fig3_plan()),
    (
        "Sporadic RTAs — 100 requests per RTA, all groups",
        sporadic_plan(requests_per_rta=100, seed=7),
    ),
    (
        "Figure 4 — dynamic streaming (180 s)",
        fig4_plan(duration_ns=sec(180), seed=11),
    ),
    (
        "Table 4 — dedicated-CPU memcached tails (60 s)",
        table4_plan(duration_ns=sec(60), seed=3),
    ),
    (
        "Figure 5a — memcached vs 19 non-RTA VMs (60 s)",
        fig5_plan("a", duration_ns=sec(60), seed=17),
    ),
    (
        "Figure 5b — 5 memcached + 10 video VMs (30 s)",
        fig5_plan("b", duration_ns=sec(30), seed=23),
    ),
    (
        "Tables 5-6 — scalability and overhead (10 s)",
        table6_plan(duration_ns=sec(10), pcpu_count=15),
    ),
]


def main() -> None:
    started = time.time()
    for title, plan in SECTIONS:
        print(f"\n{'=' * 70}\n{title}\n{'=' * 70}", flush=True)
        print(execute_plan(plan).summary())
    print(f"\ntotal wall time: {time.time() - started:.0f}s")


if __name__ == "__main__":
    main()
