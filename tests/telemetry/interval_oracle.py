"""The scanning interval clip — a test oracle.

The simulator clips merged interval lists by bisection
(:func:`repro.telemetry.spans.clip_merged`).  This clip scans every
interval and merges what falls inside the window, so it also accepts
unsorted, overlapping input; the property suites check the bisecting
clip, the span tiling and cluster blackouts against it.
"""

from __future__ import annotations

from typing import List

from repro.telemetry.spans import Interval, merge_intervals


def clip_intervals(intervals: List[Interval], lo: int, hi: int) -> List[Interval]:
    """The merged portion of *intervals* inside ``[lo, hi)``."""
    out: List[Interval] = []
    for start, end in intervals:
        start, end = max(start, lo), min(end, hi)
        if end > start:
            out.append((start, end))
    return merge_intervals(out)
