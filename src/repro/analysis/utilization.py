"""Exact utilization math and simple schedulability predicates."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from .dbf import AnalysisTask


def exact_utilization(pairs: Iterable[Tuple[int, int]]) -> Fraction:
    """Sum of wcet/period over (wcet_ns, period_ns) pairs, exactly."""
    total = Fraction(0)
    for wcet, period in pairs:
        total += Fraction(wcet, period)
    return total


def minimum_cpus_dpwrap(tasks: Sequence[AnalysisTask]) -> int:
    """Fewest CPUs DP-WRAP needs (the ceiling of total utilization)."""
    total = exact_utilization((t.wcet, t.period) for t in tasks)
    cpus = int(total)
    if total > cpus:
        cpus += 1
    return max(cpus, 1)
