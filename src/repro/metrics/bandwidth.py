"""CPU-bandwidth accounting in units of CPUs.

Figure 3 compares, per RTA group, four bandwidth quantities:

- **RTA-Req** — what the task set mathematically needs (sum of s/p),
- **RT-Xen: Allocated** — what CSA assigns to the VMs' VCPU servers,
- **RT-Xen: Claimed** — the whole CPUs DMPR sets aside,
- **RTVirt** — RTA requirement plus the per-VCPU scheduling slack.

All quantities are exact :class:`fractions.Fraction` CPU counts; the
report converts to percent-of-one-CPU for the figure's y-axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence


@dataclass(frozen=True)
class BandwidthBreakdown:
    """One group's bar cluster in Figure 3."""

    group: str
    rta_required: Fraction
    rtxen_allocated: Fraction
    rtxen_claimed: Fraction
    rtvirt: Fraction

    @property
    def rtxen_wasted(self) -> Fraction:
        """Bandwidth RT-Xen claims beyond what the RTAs need."""
        return self.rtxen_claimed - self.rta_required

    @property
    def rtvirt_overhead(self) -> Fraction:
        """Extra bandwidth RTVirt allocates beyond the RTA requirement."""
        return self.rtvirt - self.rta_required

    def as_percent(self) -> Dict[str, float]:
        """The four bars in percent of one CPU (Figure 3's y-axis)."""
        return {
            "RTA-Req": float(self.rta_required) * 100.0,
            "RT-Xen: Allocated": float(self.rtxen_allocated) * 100.0,
            "RT-Xen: Claimed": float(self.rtxen_claimed) * 100.0,
            "RTVirt": float(self.rtvirt) * 100.0,
        }


def average_extra_cpu(breakdowns: Sequence[BandwidthBreakdown], kind: str) -> float:
    """Average wasted/extra CPUs across groups.

    ``kind`` is 'rtxen' (claimed minus required; the paper reports 0.736
    CPUs on average) or 'rtvirt' (slack overhead).
    """
    if not breakdowns:
        raise ValueError("no breakdowns")
    if kind == "rtxen":
        return float(sum(b.rtxen_wasted for b in breakdowns)) / len(breakdowns)
    if kind == "rtvirt":
        return float(sum(b.rtvirt_overhead for b in breakdowns)) / len(breakdowns)
    raise ValueError(f"unknown kind {kind!r}")


def claimed_savings_percent(breakdowns: Sequence[BandwidthBreakdown]) -> float:
    """Average percent of claimed bandwidth RTVirt saves vs RT-Xen.

    The paper reports 39.4% here (RTVirt claimed vs RT-Xen claimed).
    """
    savings: List[float] = []
    for b in breakdowns:
        if b.rtxen_claimed > 0:
            savings.append(float(1 - b.rtvirt / b.rtxen_claimed) * 100.0)
    if not savings:
        raise ValueError("no comparable groups")
    return sum(savings) / len(savings)


def allocated_savings_percent(breakdowns: Sequence[BandwidthBreakdown]) -> float:
    """Average percent of allocated bandwidth RTVirt saves vs RT-Xen.

    The paper reports 6.8% here (RTVirt vs RT-Xen allocated).
    """
    savings: List[float] = []
    for b in breakdowns:
        if b.rtxen_allocated > 0:
            savings.append(float(1 - b.rtvirt / b.rtxen_allocated) * 100.0)
    if not savings:
        raise ValueError("no comparable groups")
    return sum(savings) / len(savings)
