"""Sharded trace recording — per-unit traces merged in canonical order.

Robustness cells run with the ``record`` observer
(:mod:`repro.telemetry.observers`) each return their raw trace bytes
beside their row; :func:`trace_bundle` turns them into sweep parts and
merges them (in canonical unit order) into one sectioned trace whose
bytes — and hence canonical hash — are identical however the units were
executed.  ``tools/check_determinism.py --trace`` gates exactly that
property: serial and parallel executions must merge to the same hash.
(``repro run 'robustness_*' --record PATH`` writes each cell's trace and
lists its hash in the run's manifest instead of a merge.)
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from .record import TraceReader, merge_traces


def trace_bundle(cells: Sequence[Tuple[Any, Any, dict]]) -> "TraceBundle":
    """The bundle of robustness cells run with the ``record`` observer,
    given as ``(unit, part, outputs)`` in unit order."""
    parts = []
    for unit, _, outputs in cells:
        kwargs = dict(unit.kwargs)
        (recorded,) = outputs["record"]  # a robustness cell builds one system
        data = recorded["data"]
        parts.append(
            {
                "fault": kwargs["fault"],
                "scheduler": kwargs["scheduler"],
                "hash": TraceReader(data).trace_hash,
                "data": data,
            }
        )
    return TraceBundle(parts)


class TraceBundle:
    """Assembled trace shards plus their canonical merge."""

    def __init__(self, parts: Sequence[dict]) -> None:
        self.parts = list(parts)  # canonical unit order
        self.merged_data = merge_traces(
            [(f"{p['fault']}/{p['scheduler']}", p["data"]) for p in self.parts],
            header={"format": "merged", "parts": [p["hash"] for p in self.parts]},
        )
        self.merged_hash = TraceReader(self.merged_data).trace_hash
