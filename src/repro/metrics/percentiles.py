"""Percentile math used across the evaluation.

The paper reports 90th/95th/99th/99.9th percentile latencies (Table 4,
Figure 5).  We use the nearest-rank definition on the sorted sample,
which is what latency-measurement tools like Mutilate report and is
well-defined for the small-tail quantiles we care about.

Every query goes through :class:`SortedSamples`, which sorts the
sample exactly once; callers that ask several questions of the same
sample (every tail percentile and the mean) construct one and reuse
it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence


def _rank(p: float, n: int) -> int:
    """Nearest-rank index with float-noise protection (ceil of p*n/100)."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


class SortedSamples:
    """A sample sorted once, answering any number of percentile queries."""

    __slots__ = ("ordered",)

    def __init__(self, samples: Sequence[float]):
        self.ordered: List[float] = sorted(samples)

    def __len__(self) -> int:
        return len(self.ordered)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (p in (0, 100])."""
        if not self.ordered:
            raise ValueError("percentile() of an empty sample")
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        return self.ordered[_rank(p, len(self.ordered)) - 1]

    def percentiles(self, ps: Sequence[float]) -> Dict[float, float]:
        """Several percentiles over the one shared sort."""
        if not self.ordered:
            raise ValueError("percentiles() of an empty sample")
        return {p: self.percentile(p) for p in ps}

    def tail_summary(self) -> Dict[float, float]:
        """90/95/99/99.9th percentiles, the row format of Table 4."""
        return self.percentiles(TAIL_PERCENTILES)

    def mean(self) -> float:
        """Arithmetic mean."""
        if not self.ordered:
            raise ValueError("mean() of an empty sample")
        return sum(self.ordered) / len(self.ordered)


#: The tail percentiles Table 4 reports.
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)
