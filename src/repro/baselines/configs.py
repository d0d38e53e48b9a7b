"""Configuration helpers for the baseline systems.

Encodes the offline configuration workflows the paper describes:
CSA-based interfaces for RT-Xen (§4.2's "nontrivial and time-consuming
process") and weight/timeslice/ratelimit settings for Credit (§4.4).
Also holds Table 2's published interface values for cross-checking.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..analysis.csa import csa_best_interface
from ..analysis.dbf import AnalysisTask
from ..analysis.sbf import PeriodicResource
from ..simcore.time import MSEC, USEC
from ..workloads.periodic import RTASpec


def rtxen_interface_for_rta(
    spec: RTASpec, min_period: int = 0
) -> PeriodicResource:
    """CSA interface for a single-RTA VM (the §4.2 setup)."""
    task = AnalysisTask(spec.slice_ns, spec.period_ns)
    return csa_best_interface([task], min_period=min_period)


def rtxen_interfaces_for_group(
    specs: Sequence[RTASpec], min_period: int = 0
) -> List[PeriodicResource]:
    """CSA interfaces for a whole Table 1 group, one per (single-RTA) VM."""
    return [rtxen_interface_for_rta(spec, min_period) for spec in specs]


#: Table 2 — the paper's published RT-Xen VM configurations for NH-Dec
#: (slice_ms, period_ms) per VM, in the same order as the RTAs.
TABLE2_RTXEN_VMS: List[Tuple[float, float]] = [(4, 5), (3, 4), (2, 3), (1, 9)]

#: Table 2 — the paper's RTVirt VM configurations for NH-Dec.
TABLE2_RTVIRT_VMS: List[Tuple[float, float]] = [(23.5, 30), (13.5, 20), (5.5, 10), (10.5, 100)]


def credit_weight_for_share(share: float, peers: int, peer_weight: int = 256) -> int:
    """Weight giving a VM the target CPU *share* against *peers* equal VMs.

    share = w / (w + peers * peer_weight)  =>  w = share/(1-share) * peers * peer_weight
    The paper configures the memcached VM at 26% this way.
    """
    if not 0 < share < 1:
        raise ValueError(f"share must be in (0, 1), got {share}")
    return max(1, round(share / (1.0 - share) * peers * peer_weight))


#: Figure 5 VM configurations for the memcached VM (paper §4.4).
MEMCACHED_SLO_NS = 500 * USEC
MEMCACHED_RTVIRT_PARAMS = (58 * USEC, 500 * USEC)  # (budget, period)
MEMCACHED_RTXEN_A = PeriodicResource(period=283 * USEC, budget=66 * USEC)
MEMCACHED_RTXEN_B = PeriodicResource(period=177 * USEC, budget=33 * USEC)
MEMCACHED_CREDIT_SHARE = 0.26
CREDIT_GLOBAL_TIMESLICE_NS = MSEC
CREDIT_RATELIMIT_NS = 500 * USEC
