"""Streaming aggregators: metrics computed as events arrive.

Each aggregator subscribes to one or two event kinds on a
:class:`~repro.telemetry.bus.TelemetryBus` and keeps a running summary,
so no trace has to be retained and walked after the run:

* :class:`MissRatioAggregator` — per-task met/missed counts (the
  deadline-miss ratios of Tables 1-3) from ``DEADLINE_HIT``/``MISS``.
* :class:`BandwidthAggregator` — granted-vs-consumed CPU bandwidth
  per VCPU (Figure 3) from ``CPU_ACCOUNT`` + ``VCPU_PARAMS``.

:class:`StandardTelemetry` bundles both with the job latencies of
``JOB_LATENCY``, kept in a :class:`~repro.metrics.latency.LatencyRecorder`
(the one per-job latency store; its nearest-rank tails are those of
:mod:`repro.metrics.percentiles`).  Its ``snapshot()`` is JSON-able;
``tools/check_determinism.py --observed`` digests each unit's snapshot,
serial against parallel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional

from ..metrics.latency import LatencyRecorder
from . import events
from .bus import TelemetryBus


class MissRatioAggregator:
    """Per-task deadline met/missed counts, streamed from the bus."""

    __slots__ = ("per_task", "_cancel")

    def __init__(self) -> None:
        self.per_task: Dict[str, List[int]] = {}  # name -> [met, missed]
        self._cancel: Optional[Callable[[], None]] = None

    def attach(self, bus: TelemetryBus) -> "MissRatioAggregator":
        hit = bus.subscribe(events.DEADLINE_HIT, self._on_hit)
        miss = bus.subscribe(events.DEADLINE_MISS, self._on_miss)
        self._cancel = lambda: (hit(), miss())
        return self

    def detach(self) -> None:
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    def _counts(self, task: str) -> List[int]:
        counts = self.per_task.get(task)
        if counts is None:
            counts = self.per_task[task] = [0, 0]
        return counts

    def _on_hit(self, event) -> None:
        self._counts(event.task)[0] += 1

    def _on_miss(self, event) -> None:
        self._counts(event.task)[1] += 1

    def decided(self, task: Optional[str] = None) -> int:
        if task is not None:
            met, missed = self.per_task.get(task, (0, 0))
            return met + missed
        return sum(m + x for m, x in self.per_task.values())

    def miss_ratio(self, task: Optional[str] = None) -> float:
        """missed/decided — the same definition as DeadlineStats.miss_ratio."""
        if task is not None:
            met, missed = self.per_task.get(task, (0, 0))
            decided = met + missed
            return missed / decided if decided else 0.0
        met = sum(m for m, _ in self.per_task.values())
        missed = sum(x for _, x in self.per_task.values())
        decided = met + missed
        return missed / decided if decided else 0.0

    def snapshot(self) -> dict:
        return {
            "per_task": {
                name: {"met": met, "missed": missed}
                for name, (met, missed) in sorted(self.per_task.items())
            }
        }


class BandwidthAggregator:
    """Granted vs consumed CPU bandwidth per VCPU, streamed from the bus.

    Consumption accumulates the exact elapsed-ns charges the machine
    reports at every sync point (``CPU_ACCOUNT``); grants track each
    VCPU's latest (budget, period) reservation (``VCPU_PARAMS``) as an
    exact fraction, so comparing the two needs no trace replay.
    """

    __slots__ = ("consumed_ns", "granted", "_cancel")

    def __init__(self) -> None:
        self.consumed_ns: Dict[str, int] = {}
        self.granted: Dict[str, Fraction] = {}
        self._cancel: Optional[Callable[[], None]] = None

    def attach(self, bus: TelemetryBus) -> "BandwidthAggregator":
        account = bus.subscribe(events.CPU_ACCOUNT, self._on_account)
        params = bus.subscribe(events.VCPU_PARAMS, self._on_params)
        self._cancel = lambda: (account(), params())
        return self

    def detach(self) -> None:
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    def _on_account(self, event) -> None:
        self.consumed_ns[event.vcpu] = (
            self.consumed_ns.get(event.vcpu, 0) + event.elapsed
        )

    def _on_params(self, event) -> None:
        if event.period_ns > 0:
            self.granted[event.vcpu] = Fraction(event.budget_ns, event.period_ns)
        else:
            self.granted[event.vcpu] = Fraction(0)

    def snapshot(self) -> dict:
        return {
            "consumed_ns": dict(sorted(self.consumed_ns.items())),
            "granted": {
                name: [bw.numerator, bw.denominator]
                for name, bw in sorted(self.granted.items())
            },
        }


class StandardTelemetry:
    """The three headline streaming metrics bundled on one bus.

    Attach to a system's bus before the run; after it, ``snapshot()``
    is a JSON-able record of deadline-miss counts, every job latency
    (ns, in arrival order), and granted-vs-consumed bandwidth — with no
    trace retained in memory.
    """

    def __init__(self, bus: TelemetryBus):
        self.misses = MissRatioAggregator().attach(bus)
        self.latency = LatencyRecorder("job latency")
        self._unsubscribe_latency = bus.subscribe(
            events.JOB_LATENCY,
            lambda event: self.latency.record(event.latency_ns),
        )
        self.bandwidth = BandwidthAggregator().attach(bus)

    def detach(self) -> None:
        self.misses.detach()
        self._unsubscribe_latency()
        self.bandwidth.detach()

    def snapshot(self) -> dict:
        return {
            "misses": self.misses.snapshot(),
            "latency": list(self.latency.samples_ns),
            "bandwidth": self.bandwidth.snapshot(),
        }
