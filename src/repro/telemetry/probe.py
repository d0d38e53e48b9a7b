"""Cross-scheduler telemetry probe: sharded runs with mergeable streams.

The probe runs one small, fixed scenario (:func:`probe_spec`) per
(system, seed) cell — RTVirt, RT-Xen and Credit, a couple of seeds
each — as ordinary scenario work units with the ``telemetry`` observer
(:mod:`repro.telemetry.observers`), which returns each cell's aggregate
*snapshot* instead of a trace.  :class:`ProbeResult` produces the
per-system results by **merging the seed shards' snapshots in canonical
unit order**, which in exact tail mode is byte-identical however the
units were scheduled.  ``tools/check_determinism.py --streams`` builds
the cells and gates on precisely that property.

The probe is deliberately *not* registered in the experiment registry:
it is a telemetry-infrastructure check, not a paper experiment, and
keeping it out leaves the registry's recorded wall-time benchmarks
undisturbed.  Nor is it exported from ``repro.telemetry.__init__``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .aggregate import StandardTelemetry

#: The systems each probe sweep covers, in canonical order.
PROBE_SYSTEMS = ("rtvirt", "rtxen", "credit")
#: Default seeds — two per system so per-system merging is exercised.
PROBE_SEEDS = (1, 2)
#: Default simulated duration per cell (seconds).
PROBE_DURATION_S = 1.0


def probe_spec(system: str, seed: int, duration_s: float = PROBE_DURATION_S) -> dict:
    """One fixed mixed workload: two RT VMs, a sporadic RTA, background."""
    return {
        "system": {"type": system, "pcpus": 2},
        "duration_s": duration_s,
        "seed": seed,
        "vms": [
            {
                "name": "vm1",
                "tasks": [
                    {"name": "rta1", "slice_ms": 8, "period_ms": 20},
                    {"name": "rta2", "slice_ms": 5, "period_ms": 10},
                ],
            },
            {
                "name": "vm2",
                "tasks": [
                    {"name": "rta3", "slice_ms": 10, "period_ms": 25},
                    {
                        "name": "sp1",
                        "slice_ms": 2,
                        "period_ms": 50,
                        "kind": "sporadic",
                        "min_interarrival_ms": 50,
                        "max_interarrival_ms": 200,
                    },
                ],
            },
            {"name": "bg", "background": True},
        ],
    }


class ProbeResult:
    """Per-system merged streaming aggregates of one probe sweep."""

    def __init__(self, parts: Sequence[dict]) -> None:
        self.parts = list(parts)
        grouped: Dict[str, List[dict]] = {}
        for part in self.parts:  # parts arrive in canonical unit order
            grouped.setdefault(part["system"], []).append(part["snapshot"])
        self.merged: Dict[str, dict] = {
            system: StandardTelemetry.merge_snapshots(snaps)
            for system, snaps in grouped.items()
        }
