"""Periodic RTA workloads (the paper's rt-app model, §4.2).

``rt-app`` takes a time slice and period and simulates a periodic load:
every period a job is released that needs exactly the slice of CPU time
and must finish by the end of the period.  :class:`PeriodicDriver`
reproduces that behaviour; :data:`TABLE1_GROUPS` holds the six RTA
groups of Table 1 used throughout §4.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..guest.task import Task
from ..guest.vm import VM
from ..simcore.engine import Engine
from ..simcore.errors import ConfigurationError
from ..simcore.events import PRIORITY_RELEASE
from ..simcore.time import MSEC


@dataclass(frozen=True)
class RTASpec:
    """(slice, period) in milliseconds, as Table 1 lists them."""

    slice_ms: float
    period_ms: float

    @property
    def slice_ns(self) -> int:
        return round(self.slice_ms * MSEC)

    @property
    def period_ns(self) -> int:
        return round(self.period_ms * MSEC)

    @property
    def utilization(self) -> float:
        return self.slice_ms / self.period_ms


#: Table 1 — parameters (ms) of the periodic RTA groups.
TABLE1_GROUPS: Dict[str, List[RTASpec]] = {
    "H-Equiv": [RTASpec(13, 20), RTASpec(25, 40), RTASpec(49, 80), RTASpec(19, 100)],
    "H-Dec": [RTASpec(7, 10), RTASpec(13, 20), RTASpec(18, 40), RTASpec(13, 100)],
    "H-Inc": [RTASpec(5, 10), RTASpec(13, 20), RTASpec(31, 40), RTASpec(10, 100)],
    "NH-Equiv": [RTASpec(13, 20), RTASpec(26, 40), RTASpec(39, 60), RTASpec(13, 100)],
    "NH-Dec": [RTASpec(23, 30), RTASpec(13, 20), RTASpec(5, 10), RTASpec(10, 100)],
    "NH-Inc": [RTASpec(11, 21), RTASpec(26, 43), RTASpec(40, 60), RTASpec(13, 100)],
}

#: Table 5 — groups of RTAs used in the scalability experiments (ms).
TABLE5_GROUPS: List[RTASpec] = [
    RTASpec(6, 75),
    RTASpec(7, 92),
    RTASpec(46, 188),
    RTASpec(12, 102),
    RTASpec(19, 139),
    RTASpec(13, 124),
    RTASpec(36, 260),
    RTASpec(21, 159),
    RTASpec(9, 103),
    RTASpec(62, 208),
]


class PeriodicDriver:
    """Releases a job of *task* every period, like rt-app.

    The driver stops either at :attr:`until` (absolute time) or when
    :meth:`stop` is called (used by the dynamic-RTA churn of Figure 4).
    """

    def __init__(
        self,
        engine: Engine,
        vm: VM,
        task: Task,
        start_at: int = 0,
        until: Optional[int] = None,
        phase_ns: int = 0,
    ) -> None:
        if phase_ns < 0:
            raise ConfigurationError("phase must be non-negative")
        self.engine = engine
        self.vm = vm
        self.task = task
        self.start_at = start_at + phase_ns
        self.until = until
        self._stopped = False
        self._event = None

    def start(self) -> "PeriodicDriver":
        """Schedule the first release; returns self for chaining."""
        self._event = self.engine.at(
            max(self.start_at, self.engine.now),
            self._release,
            priority=PRIORITY_RELEASE,
            name=f"release:{self.task.name}",
        )
        return self

    def stop(self) -> None:
        """Stop releasing jobs (already-released jobs still run)."""
        self._stopped = True
        self.engine.cancel(self._event)

    def _release(self) -> None:
        if self._stopped:
            return
        now = self.engine.now
        if self.until is not None and now >= self.until:
            return
        self.vm.release_job(self.task, now=now)
        self._event = self.engine.after(
            self.task.period_ns,
            self._release,
            priority=PRIORITY_RELEASE,
            name=f"release:{self.task.name}",
        )
