"""Reference queries over a :class:`~repro.simcore.trace.Trace` — test oracles.

The simulator only ever asks a trace for one VCPU's segments and for
Figure 4's bucketed usage series.  These queries answer the other
questions tests ask of a finished run, each by the obvious scan: how
long a VCPU ran inside a window, how busy a PCPU was, which point
events of one kind were recorded, and whether two segments ever shared
a PCPU.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.simcore.trace import Segment, Trace, TraceEvent


def events_of_kind(trace: Trace, kind: str) -> List[TraceEvent]:
    """All point events whose kind equals *kind*."""
    return [e for e in trace.events if e.kind == kind]


def busy_time(trace: Trace, pcpu: Optional[int] = None) -> int:
    """Total traced execution time, optionally restricted to one PCPU."""
    if pcpu is None:
        return sum(s.duration for s in trace.segments)
    return sum(s.duration for s in trace.segments if s.pcpu == pcpu)


def vcpu_usage_between(trace: Trace, vcpu: str, start: int, end: int) -> int:
    """Execution time *vcpu* received inside the window [start, end)."""
    total = 0
    for s in trace.segments:
        if s.vcpu != vcpu:
            continue
        lo = max(s.start, start)
        hi = min(s.end, end)
        if hi > lo:
            total += hi - lo
    return total


def iter_overlaps(trace: Trace) -> Iterator[Tuple[Segment, Segment]]:
    """Yield pairs of segments that overlap in time on the same PCPU.

    A correct simulation yields nothing.
    """
    by_pcpu: Dict[int, List[Segment]] = {}
    for s in trace.segments:
        by_pcpu.setdefault(s.pcpu, []).append(s)
    for segs in by_pcpu.values():
        segs = sorted(segs, key=lambda s: s.start)
        for a, b in zip(segs, segs[1:]):
            if b.start < a.end:
                yield (a, b)
