"""Index of every reproduced table and figure.

The catalogue of experiment ids with their paper reference and
description, plus the full-length run parameters.  Each id runs through
its work-unit plan (``repro.runner.workunits.BINDINGS``):

    python -m repro run fig3
    python -m repro run all --jobs 4
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..simcore.time import sec
from .cluster_scale import CLUSTER_MODES
from .feedback_adaptive import FEEDBACK_CELLS
from .robustness import ROBUSTNESS_FAULTS


# Full-length run parameters, bound to each id's plan builder in
# repro.runner.workunits.BINDINGS.
FIG1_DURATION_NS = sec(30)
TABLE1_DURATION_NS = sec(20)
SPORADIC_REQUESTS = 30
SPORADIC_SEED = 7
FIG4_DURATION_NS = sec(120)
FIG4_SEED = 11
TABLE4_DURATION_NS = sec(40)
TABLE4_SEED = 3
FIG5A_DURATION_NS = sec(40)
FIG5A_SEED = 17
FIG5B_DURATION_NS = sec(20)
FIG5B_SEED = 23
TABLE6_DURATION_NS = sec(5)
TABLE6_PCPUS = 15
ROBUSTNESS_DURATION_NS = sec(5)
ROBUSTNESS_SMOKE_DURATION_NS = sec(1)
ROBUSTNESS_SEED = 11
CLUSTER_DURATION_NS = sec(2)
CLUSTER_SMOKE_DURATION_NS = sec(1)
CLUSTER_SEED = 29
FEEDBACK_DURATION_NS = sec(4)
FEEDBACK_SMOKE_DURATION_NS = sec(1)
FEEDBACK_SEED = 31


@dataclass(frozen=True)
class ExperimentEntry:
    """One table/figure of the paper's evaluation."""

    experiment_id: str
    paper_ref: str
    description: str


REGISTRY: Dict[str, ExperimentEntry] = {
    "fig1": ExperimentEntry(
        "fig1",
        "Figure 1",
        "Motivation: uncoordinated two-level EDF misses RTA deadlines; RTVirt does not",
    ),
    "table1": ExperimentEntry(
        "table1",
        "Table 1 / §4.2",
        "Periodic RTA groups: all deadlines met under RTVirt and RT-Xen",
    ),
    "table2": ExperimentEntry(
        "table2",
        "Table 2",
        "NH-Dec VM configurations under CSA (RT-Xen) and slack derivation (RTVirt)",
    ),
    "fig3": ExperimentEntry(
        "fig3",
        "Figure 3",
        "CPU bandwidth requirement per group: required / allocated / claimed / RTVirt",
    ),
    "sporadic": ExperimentEntry(
        "sporadic",
        "§4.2 sporadic",
        "Sporadic RTAs: 100 externally triggered requests per RTA, no misses",
    ),
    "fig4": ExperimentEntry(
        "fig4",
        "Figure 4 / Table 3",
        "Dynamic video-streaming RTAs with online admission",
    ),
    "table4": ExperimentEntry(
        "table4",
        "Table 4",
        "memcached latency tail on a dedicated CPU per scheduler",
    ),
    "fig5a": ExperimentEntry(
        "fig5a",
        "Figure 5a",
        "memcached vs 19 non-RTA VMs on 2 PCPUs (SLO 500 µs p99.9)",
    ),
    "fig5b": ExperimentEntry(
        "fig5b",
        "Figure 5b",
        "5 memcached VMs + 10 video VMs on 15 PCPUs (SLO 500 µs p99.9)",
    ),
    "table6": ExperimentEntry(
        "table6",
        "Tables 5-6 / §4.5",
        "Scalability: 100 RTAs, overhead of schedule() and context switches",
    ),
}

# Robustness suite: one entry per fault family, all driven by the same
# harness.
for _fault in ROBUSTNESS_FAULTS:
    REGISTRY[f"robustness_{_fault}"] = ExperimentEntry(
        f"robustness_{_fault}",
        "§5 robustness",
        f"Fault injection ({_fault.replace('_', ' ')}): miss ratio and "
        "recovery latency per scheduler",
    )
del _fault

# Cluster suite: one entry per management-plane mode, all on the same
# multi-host harness (one work unit per observed host).
for _mode in CLUSTER_MODES:
    REGISTRY[f"cluster_{_mode}"] = ExperimentEntry(
        f"cluster_{_mode}",
        "§6 cluster",
        f"Multi-host cluster ({_mode}): planner placement, live migration "
        "and cross-host deadline audit per scheduler",
    )
del _mode

# Control-plane suite: the blame-driven feedback controller and the
# credit-ranked tenant shed, head-to-head against their static policies.
for _fid in FEEDBACK_CELLS:
    _scenario = FEEDBACK_CELLS[_fid][0]
    REGISTRY[_fid] = ExperimentEntry(
        _fid,
        "§7 control plane",
        f"Adaptive control plane ({_scenario}): policy head-to-head "
        "miss ratio, granted bandwidth and controller actions",
    )
del _fid, _scenario


def all_ids() -> List[str]:
    """All experiment ids in paper order."""
    return list(REGISTRY)


def expand_ids(patterns: List[str]) -> List[str]:
    """Expand ids and ``fnmatch`` globs (``robustness_*``) in paper order.

    Plain ids pass through untouched; a pattern with glob characters
    expands to every matching registry id.  Raises :class:`KeyError` on
    an unknown id or a glob matching nothing.
    """
    from fnmatch import fnmatch

    order = all_ids()
    selected: List[str] = []
    for pattern in patterns:
        if any(ch in pattern for ch in "*?["):
            matches = [i for i in order if fnmatch(i, pattern)]
            if not matches:
                raise KeyError(f"no experiment id matches {pattern!r}")
            selected.extend(m for m in matches if m not in selected)
        else:
            if pattern not in REGISTRY:
                raise KeyError(f"unknown experiment id {pattern!r}")
            if pattern not in selected:
                selected.append(pattern)
    return selected
