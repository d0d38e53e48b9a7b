"""Figure 3 — total CPU bandwidth per RTA group under RT-Xen and RTVirt.

Four bars per group:

- **RTA-Req**: the task set's mathematical requirement Σ s/p;
- **RT-Xen: Allocated**: Σ of the CSA interfaces' bandwidths;
- **RT-Xen: Claimed**: the whole CPUs DMPR sets aside (unusable for any
  further RTA — the pessimism cost);
- **RTVirt**: Σ of derived VCPU bandwidths (requirement + per-VCPU slack).

All values are computed exactly (rational arithmetic), then reported in
percent of one CPU for the figure's y-axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from ..analysis.dmpr import claim_for_group
from ..baselines.configs import rtxen_interfaces_for_group
from ..guest.params import derive_vcpu_params
from ..guest.task import Task
from ..metrics.bandwidth import (
    BandwidthBreakdown,
    allocated_savings_percent,
    average_extra_cpu,
    claimed_savings_percent,
)
from ..simcore.time import MSEC
from ..workloads.periodic import TABLE1_GROUPS, RTASpec
from .common import format_table

#: The paper's per-VCPU slack (500 µs).
DEFAULT_SLACK_NS = 500_000


def rtvirt_group_bandwidth(specs: Sequence[RTASpec], slack_ns: int) -> Fraction:
    """Σ of RTVirt's derived VCPU bandwidths for one-RTA-per-VM VMs."""
    total = Fraction(0)
    for spec in specs:
        task = Task(f"tmp-{id(spec)}-{spec.slice_ms}", spec.slice_ns, spec.period_ns)
        params = derive_vcpu_params([task], slack_ns)
        total += params.bandwidth
    return total


def breakdown_for_group(
    group: str, slack_ns: int = DEFAULT_SLACK_NS
) -> BandwidthBreakdown:
    """One bar cluster of Figure 3."""
    specs = TABLE1_GROUPS[group]
    interfaces = rtxen_interfaces_for_group(specs, min_period=MSEC)
    claimed, allocated = claim_for_group(interfaces)
    required = sum(
        (Fraction(s.slice_ns, s.period_ns) for s in specs), Fraction(0)
    )
    return BandwidthBreakdown(
        group=group,
        rta_required=required,
        rtxen_allocated=allocated,
        rtxen_claimed=Fraction(claimed),
        rtvirt=rtvirt_group_bandwidth(specs, slack_ns),
    )


@dataclass
class Fig3Result:
    breakdowns: List[BandwidthBreakdown]

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for b in self.breakdowns:
            row: Dict[str, object] = {"group": b.group}
            row.update(b.as_percent())
            rows.append(row)
        return rows

    def summary(self) -> str:
        lines = [format_table(self.rows(), title="Figure 3 — CPU bandwidth (% of one CPU)")]
        lines.append("")
        lines.append(
            f"RT-Xen wasted CPU (claimed - required), average: "
            f"{average_extra_cpu(self.breakdowns, 'rtxen'):.3f} CPUs "
            f"(paper: 0.736)"
        )
        lines.append(
            f"RTVirt allocated savings vs RT-Xen allocated: "
            f"{allocated_savings_percent(self.breakdowns):.1f}% (paper: 6.8%)"
        )
        lines.append(
            f"RTVirt savings vs RT-Xen claimed: "
            f"{claimed_savings_percent(self.breakdowns):.1f}% (paper: 39.4%)"
        )
        return "\n".join(lines)


def run_fig3(
    groups: Optional[Sequence[str]] = None, slack_ns: int = DEFAULT_SLACK_NS
) -> Fig3Result:
    """All six bar clusters of Figure 3."""
    if groups is None:
        groups = list(TABLE1_GROUPS)
    return Fig3Result([breakdown_for_group(g, slack_ns) for g in groups])
