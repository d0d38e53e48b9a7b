"""Per-host clock offset and drift.

A cluster simulation shares one engine — and therefore one *true*
timeline — across every host, but real hosts do not share a clock:
each TSC boots with its own epoch and ticks at its own rate (802.1AS /
PTP exists precisely because offsets of microseconds to milliseconds
and drifts of tens of ppm are the norm on unsynchronised machines).

:class:`HostClock` maps the engine's true time to one host's *local*
reading with exact integer arithmetic::

    local(t) = t + offset_ns + t * drift_ppb // 1_000_000_000

Deadlines make the mapping observable.  A deadline *released* on host A
(stamped in A's local clock) and *checked* on host B (against B's local
clock — the situation live migration creates) misses or meets depending
on the relative offset, even when the true-time response would have
been fine.  Same-host checks are offset-invariant — ``local(c) <=
local(r) + D`` reduces to ``c <= r + D`` when offset cancels — so only
cross-host checks (and drift over long windows) can diverge from the
engine's own deadline accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError

_NS_PER_S = 1_000_000_000


@dataclass(frozen=True)
class HostClock:
    """One host's local clock, relative to the engine's true time.

    *offset_ns* is the reading of this clock at true time 0;
    *drift_ppb* is its rate error in parts per billion (positive: the
    clock runs fast).  Both default to 0 — the synchronised reference
    clock, under which :meth:`local` is the identity.
    """

    offset_ns: int = 0
    drift_ppb: int = 0

    def __post_init__(self) -> None:
        if self.drift_ppb <= -_NS_PER_S:
            raise ConfigurationError(
                f"drift {self.drift_ppb} ppb stops or reverses the clock"
            )

    def local(self, global_ns: int) -> int:
        """This host's clock reading at true (engine) time *global_ns*."""
        return global_ns + self.offset_ns + global_ns * self.drift_ppb // _NS_PER_S
