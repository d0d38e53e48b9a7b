"""Terminal rendering of the ``repro run --blame`` views.

Pure-text renderers (no plotting dependencies): deadline-miss blame
tables and per-job causal timelines.
"""

from __future__ import annotations

from typing import Dict, Optional


def render_blame_table(snapshot: Dict, width: int = 24) -> str:
    """Deadline-miss blame table from a ``BlameReport.snapshot()`` dict.

    One row per cause, ranked by lost time, with a share bar so the
    dominant cause is visible at a glance.
    """
    observed = snapshot.get("observed", 0)
    explained = snapshot.get("explained", 0)
    per_cause = snapshot.get("per_cause", {})
    header = f"deadline-miss blame ({explained}/{observed} misses explained):"
    if not per_cause:
        return header + "\n  (no misses)"
    total_lost = sum(entry["lost_ns"] for entry in per_cause.values())
    lines = [header]
    lines.append(f"  {'cause':<20} {'misses':>6} {'lost(ms)':>10}  share")
    ranked = sorted(
        per_cause.items(), key=lambda item: (-item[1]["lost_ns"], item[0])
    )
    for cause, entry in ranked:
        share = entry["lost_ns"] / total_lost if total_lost else 0.0
        bar = "█" * max(1 if entry["lost_ns"] else 0, round(share * width))
        lines.append(
            f"  {cause:<20} {entry['misses']:>6} "
            f"{entry['lost_ns'] / 1e6:>10.3f}  {bar} {share * 100:.0f}%"
        )
    return "\n".join(lines)


def _ms(time_ns: int) -> str:
    return f"{time_ns / 1e6:.3f}ms"


def render_span_timeline(span, lost: Optional[Dict[str, int]] = None) -> str:
    """Causal timeline of one finalized job span (``repro run --job``).

    *span* is a :class:`repro.telemetry.spans.Span` (duck-typed: the
    report layer stays import-free of telemetry internals); *lost* is
    the optional per-cause blame of its miss.
    """
    if span.incomplete:
        verdict = f"INCOMPLETE (deadline {'missed' if span.missed else 'pending'})"
    elif span.missed:
        verdict = f"MISS (+{_ms(span.tardiness)})"
    else:
        verdict = "met"
    lines = [
        f"{span.task}#{span.job} — released {_ms(span.release)}, "
        f"deadline {_ms(span.deadline)}: {verdict}"
    ]
    lines.append(f"  {_ms(span.release):>12}  release (vcpu {span.vcpu or '?'})")
    if span.enqueue_time is not None:
        lines.append(
            f"  {_ms(span.enqueue_time):>12}  enqueue [{span.enqueue_scope}]"
        )
    migrations = {t: (src, dst) for t, src, dst in span.guest_migrations}
    for start, end, bucket, vcpu, pcpu in span.intervals:
        where = ""
        if bucket == "run":
            where = f" on pcpu{pcpu} via {vcpu}"
        elif vcpu is not None:
            where = f" ({vcpu})"
        lines.append(
            f"  {_ms(start):>12}  {bucket:<10} {_ms(end - start):>10}{where}"
        )
        for t in sorted(migrations):
            if start <= t < end:
                src, dst = migrations[t]
                lines.append(
                    f"  {_ms(t):>12}  guest migration vcpu{src} → vcpu{dst}"
                )
    if span.end is not None:
        tail = "horizon" if span.incomplete else "complete"
        response = span.end - span.release
        lines.append(f"  {_ms(span.end):>12}  {tail} — response {_ms(response)}")
    if lost:
        parts = " · ".join(
            f"{cause} {_ms(ns)}"
            for cause, ns in sorted(lost.items(), key=lambda kv: -kv[1])
        )
        lines.append(f"  blame: {parts}")
    return "\n".join(lines)
