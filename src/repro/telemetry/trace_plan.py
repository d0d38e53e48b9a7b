"""Sharded trace recording — per-unit traces merged in canonical order.

Each work unit records one robustness cell with a flight recorder
attached and returns the raw trace bytes; the parent merges the shards
(in canonical unit order) into one sectioned trace whose bytes — and
hence canonical hash — are identical however the units were executed.
``tools/check_determinism.py --trace`` gates exactly that property:
serial and parallel executions must merge to the same hash.

Like :mod:`repro.telemetry.blame_plan`, this module pulls in the
experiment/runner layers and is deliberately **not** exported from
``repro.telemetry.__init__`` (import-closure / cache-salt hygiene).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .record import TraceReader, merge_traces

#: Trace sweeps reuse the robustness suite's smoke defaults.
TRACE_DURATION_NS = 1_000_000_000
TRACE_SEED = 11


def record_trace_shard(
    fault: str,
    scheduler: str,
    duration_ns: int = TRACE_DURATION_NS,
    seed: int = TRACE_SEED,
) -> dict:
    """Worker body: one robustness cell recorded to an in-memory trace."""
    from .replay import record_robustness_case

    recorded = record_robustness_case(fault, scheduler, duration_ns, seed)
    reader = recorded.reader()
    return {
        "fault": fault,
        "scheduler": scheduler,
        "row": recorded.rows[0],
        "events": reader.event_count,
        "hash": reader.trace_hash,
        "data": recorded.data,
    }


class TraceBundle:
    """Assembled trace shards plus their canonical merge."""

    def __init__(self, parts: Sequence[dict]) -> None:
        self.parts = list(parts)  # canonical unit order
        self.merged_data = merge_traces(
            [(f"{p['fault']}/{p['scheduler']}", p["data"]) for p in self.parts],
            header={"format": "merged", "parts": [p["hash"] for p in self.parts]},
        )
        self.merged_hash = TraceReader(self.merged_data).trace_hash

    def rows(self) -> List[dict]:
        return [
            dict(part["row"], events=part["events"], trace=part["hash"][:16])
            for part in self.parts
        ]

    def write(self, path: str) -> str:
        with open(path, "wb") as handle:
            handle.write(self.merged_data)
        return path

    def summary(self) -> str:
        from ..experiments.common import format_table

        table = format_table(self.rows(), title="Recorded robustness traces")
        total = sum(part["events"] for part in self.parts)
        return f"{table}\nmerged: {total} events, hash {self.merged_hash[:16]}"


def assemble_traces(parts: Sequence[dict]) -> TraceBundle:
    """Module-level assembly function (the executor requires one)."""
    return TraceBundle(parts)


def trace_plan(
    faults: Optional[Sequence[str]] = None,
    schedulers: Optional[Sequence[str]] = None,
    duration_ns: int = TRACE_DURATION_NS,
    seed: int = TRACE_SEED,
):
    """A trace-recording sweep as an ExperimentPlan (not registry-backed)."""
    from ..experiments.robustness import (
        ROBUSTNESS_FAULTS,
        ROBUSTNESS_SCHEDULERS,
    )
    from ..runner.workunits import ExperimentPlan, WorkUnit

    faults = tuple(faults) if faults is not None else ROBUSTNESS_FAULTS
    schedulers = (
        tuple(schedulers) if schedulers is not None else ROBUSTNESS_SCHEDULERS
    )
    units = tuple(
        WorkUnit(
            experiment_id="trace_sweep",
            unit_id=f"trace_sweep/{fault}/{scheduler}",
            fn="repro.telemetry.trace_plan:record_trace_shard",
            kwargs=(
                ("fault", fault),
                ("scheduler", scheduler),
                ("duration_ns", duration_ns),
                ("seed", seed),
            ),
        )
        for fault in faults
        for scheduler in schedulers
    )
    return ExperimentPlan("trace_sweep", units, assemble_traces)
