"""Deadline-miss root-cause analysis over causal spans.

Given the finalized spans of :class:`~repro.telemetry.spans.SpanBuilder`,
the blame engine attributes every deadline miss to a ranked cause
taxonomy, with per-cause **lost nanoseconds** that sum exactly to the
job's lateness.

Attribution walks the span's non-``run`` intervals *backward* from the
completion instant, taking the latest ``L = lateness`` nanoseconds of
non-execution: had any of that time been execution instead, the job
would have finished by its deadline, so that — and only that — time is
what the miss costs.  Each slice is then classified:

``migration_cost``
    the carrier VCPU was paying a host migration penalty;
``admission_throttle``
    the carrier was shed/decreased by host admission (its bandwidth
    revoked) — checked first, because shedding zeroes the budget and
    would otherwise masquerade as exhaustion;
``budget_exhaustion``
    the carrier's deferrable-server budget was drained;
``hypercall_fault``
    the slice falls inside an injected hypercall drop/delay window, so
    the parameters that would have bought the time never landed;
``host_preemption``
    the carrier held no PCPU for any other reason (a higher-priority
    VCPU, a failed PCPU, ...);
``guest_queueing``
    the carrier *had* the PCPU but the guest scheduler ran another job;
``overload``
    lateness not covered by any non-run time — the job simply carried
    more work than its window (surges, abandoned jobs).

Reports sum: :meth:`BlameReport.merge` adds the snapshots of the
robustness sweep's cells in canonical unit order, so the sweep's table
is the same at any worker count.
``tools/check_determinism.py --observed`` digests each cell's blame
output, serial against parallel.

This module is the *pure* half: it depends only on spans.  The sharded
sweep that fans robustness cells out over the runner lives in
:mod:`repro.telemetry.blame_plan`, kept separate (and unexported from
the package ``__init__``) so the core simulator's telemetry imports
never reach the scenario/runner layers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .spans import Span, SpanBuilder, subtract_intervals

#: Cause taxonomy; order is the tie-break rank for the primary cause.
CAUSES = (
    "budget_exhaustion",
    "host_preemption",
    "migration_cost",
    "admission_throttle",
    "hypercall_fault",
    "guest_queueing",
    "overload",
)


def _classify_preempted(
    slice_lo: int,
    slice_hi: int,
    carrier: Optional[str],
    builder: SpanBuilder,
    lost: Dict[str, int],
) -> None:
    """Subdivide an off-CPU slice by *why* the carrier lost its PCPU."""
    remaining = [(slice_lo, slice_hi)]
    if carrier is not None:
        for cause, vcpu in (
            ("admission_throttle", carrier),
            ("budget_exhaustion", carrier),
            ("hypercall_fault", None),
        ):
            matched: List[Tuple[int, int]] = []
            for lo, hi in remaining:
                matched.extend(builder.windows(cause, vcpu, lo, hi))
            if matched:
                lost[cause] = lost.get(cause, 0) + sum(
                    hi - lo for lo, hi in matched
                )
                remaining = subtract_intervals(remaining, matched)
                if not remaining:
                    return
    uncovered = sum(hi - lo for lo, hi in remaining)
    if uncovered:
        lost["host_preemption"] = lost.get("host_preemption", 0) + uncovered


def attribute_miss(span: Span, builder: SpanBuilder) -> Dict[str, int]:
    """Per-cause lost nanoseconds for one missed span.

    The values sum exactly to ``span.lateness`` — the backward walk
    stops once the lateness is covered, and any shortfall (the job was
    late even counting every stall) is charged to ``overload``.
    """
    lateness = span.lateness
    lost: Dict[str, int] = {}
    if lateness <= 0:
        return lost
    need = lateness
    for start, end, bucket, carrier, _pcpu in reversed(span.intervals):
        if need <= 0:
            break
        if bucket == "run":
            continue
        lo = max(start, end - need)
        need -= end - lo
        if bucket == "migrating":
            lost["migration_cost"] = lost.get("migration_cost", 0) + (end - lo)
        elif bucket == "wait":
            lost["guest_queueing"] = lost.get("guest_queueing", 0) + (end - lo)
        else:  # preempted
            _classify_preempted(lo, end, carrier, builder, lost)
    if need > 0:
        lost["overload"] = lost.get("overload", 0) + need
    return lost


def primary_cause(lost: Dict[str, int]) -> str:
    """The dominant cause; taxonomy order breaks exact ties."""
    return max(CAUSES, key=lambda c: (lost.get(c, 0), -CAUSES.index(c)))


class BlameReport:
    """Aggregate miss blame; the blame sweep merges its cells' reports."""

    def __init__(self) -> None:
        #: cause -> [misses with this primary cause, total lost ns]
        self.per_cause: Dict[str, List[int]] = {}
        #: task -> cause -> lost ns
        self.per_task: Dict[str, Dict[str, int]] = {}
        self.observed = 0  # spans past their deadline
        self.explained = 0  # of those, attributed to a cause

    def add_miss(self, task: str, lost: Dict[str, int]) -> None:
        self.observed += 1
        if not lost:
            return
        self.explained += 1
        primary = primary_cause(lost)
        entry = self.per_cause.setdefault(primary, [0, 0])
        entry[0] += 1
        task_losses = self.per_task.setdefault(task, {})
        for cause, ns in lost.items():
            self.per_cause.setdefault(cause, [0, 0])[1] += ns
            task_losses[cause] = task_losses.get(cause, 0) + ns

    # -- snapshot and merge (the blame sweep sums its cells) --------------------------

    def snapshot(self) -> dict:
        return {
            "observed": self.observed,
            "explained": self.explained,
            "per_cause": {
                cause: {"misses": entry[0], "lost_ns": entry[1]}
                for cause, entry in sorted(self.per_cause.items())
            },
            "per_task": {
                task: dict(sorted(losses.items()))
                for task, losses in sorted(self.per_task.items())
            },
        }

    @classmethod
    def merge(cls, snapshots: Sequence[dict]) -> "BlameReport":
        merged = cls()
        for snap in snapshots:
            merged.observed += snap["observed"]
            merged.explained += snap["explained"]
            for cause, entry in snap["per_cause"].items():
                target = merged.per_cause.setdefault(cause, [0, 0])
                target[0] += entry["misses"]
                target[1] += entry["lost_ns"]
            for task, losses in snap["per_task"].items():
                target_losses = merged.per_task.setdefault(task, {})
                for cause, ns in losses.items():
                    target_losses[cause] = target_losses.get(cause, 0) + ns
        return merged


def analyze_spans(builder: SpanBuilder) -> Tuple[BlameReport, List[dict]]:
    """Blame every missed span; returns (report, per-miss records)."""
    report = BlameReport()
    misses: List[dict] = []
    for span in builder.spans:
        if not span.missed:
            continue
        lost = attribute_miss(span, builder)
        report.add_miss(span.task, lost)
        misses.append(
            {
                "task": span.task,
                "job": span.job,
                "release": span.release,
                "deadline": span.deadline,
                "lateness_ns": span.lateness,
                "incomplete": span.incomplete,
                "primary": primary_cause(lost) if lost else "none",
                "lost_ns": dict(sorted(lost.items())),
            }
        )
    return report, misses

