"""Request-latency recording for the memcached experiments.

Latency here is the paper's NIC-to-NIC definition: from the instant the
request reaches the host to the instant the response is ready to leave,
i.e. job release to job completion inside the simulation.  An optional
constant network delay can be added when reporting client-side numbers
(the paper measured 19 µs at the 99.9th percentile and excluded it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..simcore.time import to_usec
from .percentiles import SortedSamples


@dataclass
class LatencyRecorder:
    """Collects per-request latencies (integer ns) for one service."""

    name: str = "latency"
    samples_ns: List[int] = field(default_factory=list)
    # Sorted-µs view, keyed on the sample count so appends (and
    # merge_recorders' direct extends) invalidate it automatically.
    _sorted_cache: Optional[Tuple[int, SortedSamples]] = field(
        default=None, repr=False, compare=False
    )

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency {latency_ns}")
        self.samples_ns.append(latency_ns)

    def __len__(self) -> int:
        return len(self.samples_ns)

    @property
    def samples_usec(self) -> List[float]:
        """All samples converted to microseconds."""
        return [to_usec(s) for s in self.samples_ns]

    def _sorted_usec(self) -> SortedSamples:
        """The µs samples sorted once and reused until the sample grows."""
        cache = self._sorted_cache
        if cache is None or cache[0] != len(self.samples_ns):
            cache = (len(self.samples_ns), SortedSamples(self.samples_usec))
            self._sorted_cache = cache
        return cache[1]

    def tail_usec(self) -> Dict[float, float]:
        """90/95/99/99.9th percentile latencies in µs (a Table 4 row)."""
        return self._sorted_usec().tail_summary()

    def p999_usec(self) -> float:
        """The 99.9th percentile latency in µs."""
        return self._sorted_usec().percentile(99.9)

    def mean_usec(self) -> float:
        """Average latency in µs."""
        return self._sorted_usec().mean()


def merge_recorders(recorders: Sequence[LatencyRecorder], name: str = "merged") -> LatencyRecorder:
    """Aggregate several recorders (Figure 5b merges 5 memcached VMs)."""
    merged = LatencyRecorder(name=name)
    for r in recorders:
        merged.samples_ns.extend(r.samples_ns)
    return merged
