"""Demand bound functions for EDF task sets.

``dbf(W, t)`` is the maximum cumulative execution demand of task set
*W* in any interval of length *t* — the quantity compositional
scheduling analysis compares against the virtual processor's supply.
Tasks here follow the paper's implicit-deadline model (deadline =
period) but the functions accept explicit deadlines for generality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..simcore.errors import ConfigurationError


@dataclass(frozen=True)
class AnalysisTask:
    """A (wcet, period[, deadline]) task for offline analysis, in ns."""

    wcet: int
    period: int
    deadline: Optional[int] = None

    def __post_init__(self) -> None:
        if self.wcet <= 0 or self.period <= 0:
            raise ConfigurationError(
                f"wcet and period must be positive ({self.wcet}, {self.period})"
            )
        if self.effective_deadline < self.wcet:
            raise ConfigurationError("deadline shorter than wcet")

    @property
    def effective_deadline(self) -> int:
        return self.deadline if self.deadline is not None else self.period

    @property
    def utilization(self) -> float:
        return self.wcet / self.period


def dbf_task(task: AnalysisTask, t: int) -> int:
    """EDF demand of one sporadic task in an interval of length *t*."""
    if t < 0:
        raise ConfigurationError(f"negative interval {t}")
    d = task.effective_deadline
    if t < d:
        return 0
    return ((t - d) // task.period + 1) * task.wcet


def dbf(tasks: Sequence[AnalysisTask], t: int) -> int:
    """EDF demand of a task set in an interval of length *t*."""
    return sum(dbf_task(task, t) for task in tasks)


def hyperperiod(tasks: Sequence[AnalysisTask]) -> int:
    """Least common multiple of the periods."""
    if not tasks:
        raise ConfigurationError("empty task set")
    lcm = 1
    for task in tasks:
        lcm = lcm * task.period // math.gcd(lcm, task.period)
    return lcm


def demand_checkpoints(
    tasks: Sequence[AnalysisTask], bound: Optional[int] = None, max_points: int = 20_000
) -> List[int]:
    """The interval lengths at which dbf steps, up to *bound*.

    dbf is a right-continuous step function that only increases at job
    deadlines, and the supply bound function is non-decreasing, so
    checking ``dbf(t) <= sbf(t)`` at these points suffices.  The bound
    defaults to the hyperperiod plus the largest deadline; when the
    hyperperiod explodes (co-prime periods) the list is truncated to
    *max_points* — a documented approximation that can only make the
    analysis *more* optimistic, never unsafe in our usage (the paper's
    point is RT-Xen's pessimism, so erring optimistic is conservative
    for the comparison).
    """
    if not tasks:
        raise ConfigurationError("empty task set")
    if bound is None:
        bound = hyperperiod(tasks) + max(t.effective_deadline for t in tasks)
    points = set()
    for task in tasks:
        d = task.effective_deadline
        k = 0
        while d + k * task.period <= bound:
            points.add(d + k * task.period)
            k += 1
            if len(points) > 50 * max_points:  # pragma: no cover - safety valve
                break
    ordered = sorted(points)
    return ordered[:max_points]


def utilization(tasks: Iterable[AnalysisTask]) -> float:
    """Total utilization of the task set."""
    return sum(t.utilization for t in tasks)
