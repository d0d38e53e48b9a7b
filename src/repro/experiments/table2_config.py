"""Table 2 — VM configurations for the NH-Dec group.

The table shows, for each RTA of NH-Dec, the bandwidth requirement and
the VM configuration each framework uses: RT-Xen's CSA interface and
RTVirt's derived VCPU parameters (slice + 500 µs slack, same period).
Our CSA reproduces the paper's published interfaces exactly: (4,5),
(3,4), (2,3), (1,9) ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

from ..baselines.configs import rtxen_interfaces_for_group
from ..guest.params import derive_vcpu_params
from ..guest.task import Task
from ..simcore.time import MSEC
from ..workloads.periodic import TABLE1_GROUPS
from .common import format_table

#: The paper's per-VCPU slack (500 µs).
SLACK_NS = 500_000


@dataclass
class Table2Row:
    rta: str
    rta_slice_ms: float
    rta_period_ms: float
    rtxen_slice_ms: float
    rtxen_period_ms: float
    rtvirt_slice_ms: float
    rtvirt_period_ms: float

    def row(self) -> Dict[str, object]:
        return {
            "RTA (s,p)": f"({self.rta_slice_ms:g},{self.rta_period_ms:g})",
            "RT-Xen VM (s,p)": f"({self.rtxen_slice_ms:g},{self.rtxen_period_ms:g})",
            "RTVirt VM (s,p)": f"({self.rtvirt_slice_ms:g},{self.rtvirt_period_ms:g})",
        }


@dataclass
class Table2Result:
    entries: List[Table2Row]

    def rows(self) -> List[Dict[str, object]]:
        return [e.row() for e in self.entries]

    @property
    def rta_bandwidth(self) -> Fraction:
        return sum(
            (Fraction(round(e.rta_slice_ms * 1000), round(e.rta_period_ms * 1000)) for e in self.entries),
            Fraction(0),
        )

    @property
    def rtxen_bandwidth(self) -> Fraction:
        return sum(
            (
                Fraction(round(e.rtxen_slice_ms * 1000), round(e.rtxen_period_ms * 1000))
                for e in self.entries
            ),
            Fraction(0),
        )

    @property
    def rtvirt_bandwidth(self) -> Fraction:
        return sum(
            (
                Fraction(round(e.rtvirt_slice_ms * 1000), round(e.rtvirt_period_ms * 1000))
                for e in self.entries
            ),
            Fraction(0),
        )

    def summary(self) -> str:
        lines = [format_table(self.rows(), title="Table 2 — NH-Dec VM configurations")]
        lines.append(
            f"Total bandwidth: RTAs {float(self.rta_bandwidth):.2f} CPUs "
            f"(paper: 2.02), RT-Xen {float(self.rtxen_bandwidth):.2f} "
            f"(paper: 2.33), RTVirt {float(self.rtvirt_bandwidth):.2f} (paper: 2.11)"
        )
        return "\n".join(lines)


def run_table2(group: str = "NH-Dec", slack_ns: int = SLACK_NS) -> Table2Result:
    """Regenerate Table 2 from the analysis pipeline."""
    specs = TABLE1_GROUPS[group]
    interfaces = rtxen_interfaces_for_group(specs, min_period=MSEC)
    entries: List[Table2Row] = []
    for i, (spec, iface) in enumerate(zip(specs, interfaces)):
        task = Task(f"t2-{group}-{i}", spec.slice_ns, spec.period_ns)
        params = derive_vcpu_params([task], slack_ns)
        entries.append(
            Table2Row(
                rta=f"rta{i + 1}",
                rta_slice_ms=spec.slice_ms,
                rta_period_ms=spec.period_ms,
                rtxen_slice_ms=iface.budget / MSEC,
                rtxen_period_ms=iface.period / MSEC,
                rtvirt_slice_ms=params.budget_ns / MSEC,
                rtvirt_period_ms=params.period_ns / MSEC,
            )
        )
    return Table2Result(entries)
