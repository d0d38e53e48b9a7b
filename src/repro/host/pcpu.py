"""Physical CPU state.

A PCPU runs at most one VCPU at a time; within the VCPU, the guest
scheduler selects the current job.  All bookkeeping (work charging,
overhead windows, tentative completion events) is driven by the
:class:`repro.host.machine.Machine`; this class only holds the state.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..guest.task import Job
from ..guest.vcpu import VCPU
from ..simcore.events import Event


class PCPU:
    """One physical processor of the simulated host."""

    __slots__ = (
        "index",
        "running_vcpu",
        "current_job",
        "last_sync",
        "overhead_until",
        "completion_event",
        "deferred_completion",
        "horizon",
        "idle_notified",
        "usage",
        "failed",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.running_vcpu: Optional[VCPU] = None
        self.current_job: Optional[Job] = None
        #: Time up to which execution has been charged.
        self.last_sync: int = 0
        #: End of the pending overhead window (context switch etc.).
        self.overhead_until: int = 0
        #: Tentative job-completion event currently scheduled, if any.
        self.completion_event: Optional[Event] = None
        #: A completion not yet pushed because its target lies past
        #: :attr:`horizon`: ``(target, job, reserved seq)``.
        self.deferred_completion: Optional[Tuple[int, Job, int]] = None
        #: Time by which the host scheduler promises to act on this PCPU
        #: again (``Machine.set_horizon``); None promises nothing.
        self.horizon: Optional[int] = None
        #: Guard so an idle VCPU is reported to the host scheduler once.
        self.idle_notified: bool = False
        #: Cached :class:`PcpuUsage` record (bound on first charge).
        self.usage = None
        #: True while the PCPU is offline (fault injection).  A failed
        #: PCPU runs nothing and schedulers must not place VCPUs on it.
        self.failed: bool = False

    @property
    def busy(self) -> bool:
        """True when a VCPU currently occupies this PCPU."""
        return self.running_vcpu is not None

    def effective_start(self, now: int) -> int:
        """Earliest instant from which real work can proceed."""
        return max(now, self.overhead_until)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        who = self.running_vcpu.name if self.running_vcpu else "idle"
        return f"<PCPU {self.index} {who} job={self.current_job!r}>"
