"""Deadline accounting.

Each real-time task carries a :class:`DeadlineStats`; experiment
harnesses aggregate them into per-VM and per-system summaries.  The
paper's headline metric is the deadline-miss ratio (RTVirt targets
meeting >= 99% of deadlines; the worst case observed is 0.8%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List


@dataclass
class DeadlineStats:
    """Deadline outcomes for one task."""

    released: int = 0
    completed: int = 0
    met: int = 0
    missed: int = 0
    #: completion instants of missed jobs, ns (misses are rare, so this
    #: stays tiny; it feeds the robustness suite's recovery latency)
    miss_times: List[int] = field(default_factory=list)

    def record_release(self) -> None:
        self.released += 1

    def record_completion(self, deadline: int, completion: int) -> None:
        """Record a finished job and whether it made its deadline."""
        self.completed += 1
        if completion <= deadline:
            self.met += 1
        else:
            self.missed += 1
            self.miss_times.append(completion)

    def record_abandoned(self, deadline_passed: bool) -> None:
        """Record a job still unfinished at the end of the run."""
        if deadline_passed:
            self.missed += 1

    @property
    def decided(self) -> int:
        """Jobs whose deadline outcome is known."""
        return self.met + self.missed

    @property
    def miss_ratio(self) -> float:
        """Fraction of decided jobs that missed, 0.0 when nothing decided."""
        if self.decided == 0:
            return 0.0
        return self.missed / self.decided


@dataclass
class MissReport:
    """Aggregated deadline outcomes over a set of tasks."""

    per_task: Dict[str, DeadlineStats]

    @property
    def total_released(self) -> int:
        return sum(s.released for s in self.per_task.values())

    @property
    def total_met(self) -> int:
        return sum(s.met for s in self.per_task.values())

    @property
    def total_missed(self) -> int:
        return sum(s.missed for s in self.per_task.values())

    @property
    def overall_miss_ratio(self) -> float:
        decided = self.total_met + self.total_missed
        if decided == 0:
            return 0.0
        return self.total_missed / decided

    @property
    def tasks_with_misses(self) -> List[str]:
        """Names of tasks that missed at least one deadline."""
        return sorted(name for name, s in self.per_task.items() if s.missed > 0)

    @property
    def all_miss_times(self) -> List[int]:
        """Completion instants of every recorded miss, sorted ascending."""
        times: List[int] = []
        for stats in self.per_task.values():
            times.extend(stats.miss_times)
        times.sort()
        return times

    def recovery_latency_ns(self, fault_time_ns: int) -> int:
        """Time from *fault_time_ns* to the last miss it can explain.

        0 when no miss completes at or after the fault — the system
        absorbed it without a single post-fault deadline miss.
        """
        after = [t for t in self.all_miss_times if t >= fault_time_ns]
        return (after[-1] - fault_time_ns) if after else 0


def collect_miss_report(tasks: Iterable) -> MissReport:
    """Build a :class:`MissReport` from objects exposing ``.name``/``.stats``."""
    return MissReport(per_task={t.name: t.stats for t in tasks})
