"""Streaming aggregators: metrics computed as events arrive.

Each aggregator subscribes to one or two event kinds on a
:class:`~repro.telemetry.bus.TelemetryBus` and maintains a running
summary, replacing the post-hoc walks over ``Trace`` lists in
``metrics/``:

* :class:`MissRatioAggregator` — per-task met/missed counts (the
  deadline-miss ratios of Tables 1-3) from ``DEADLINE_HIT``/``MISS``.
* :class:`LatencyAggregator` — job response-time tails (Table 4 /
  Figure 5) from ``JOB_LATENCY``, with exact nearest-rank percentiles
  (byte-identical to :mod:`repro.metrics.percentiles`).
* :class:`BandwidthAggregator` — granted-vs-consumed CPU bandwidth
  (Figure 3 / over-claimer analysis) from ``CPU_ACCOUNT`` +
  ``VCPU_PARAMS``.

Every aggregator produces a JSON-able ``snapshot()`` and a classmethod
``merge(snapshots)`` such that merging per-shard snapshots in canonical
unit order reproduces the single-stream result byte for byte (sorted
multisets merge associatively), which is what
``tools/check_determinism.py --streams`` gates on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from ..metrics.percentiles import SortedSamples, merge_sorted_samples
from ..simcore.time import to_usec
from . import events
from .bus import TelemetryBus


class OnlineStats:
    """Running count/sum/mean/min/max over a float stream, O(1) memory."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("mean of an empty stream")
        return self.total / self.count

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def merge(cls, snapshots: Sequence[dict]) -> "OnlineStats":
        merged = cls()
        for snap in snapshots:
            if snap["count"] == 0:
                continue
            merged.count += snap["count"]
            merged.total += snap["total"]
            if merged.min is None or snap["min"] < merged.min:
                merged.min = snap["min"]
            if merged.max is None or snap["max"] > merged.max:
                merged.max = snap["max"]
        return merged


class TailAggregator:
    """Streaming tail percentiles over every sample.

    Append + lazy sort: the same nearest-rank answers as
    :func:`repro.metrics.percentiles.percentile`, byte-identical.
    """

    __slots__ = ("_samples", "_sorted")

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sorted = True

    def add(self, value: float) -> None:
        self._samples.append(value)
        self._sorted = False

    def _view(self) -> SortedSamples:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return SortedSamples(self._samples, presorted=True)

    def __len__(self) -> int:
        return len(self._samples)

    def percentile(self, p: float) -> float:
        return self._view().percentile(p)

    def tail_summary(self) -> Dict[float, float]:
        return self._view().tail_summary()

    def snapshot(self) -> dict:
        """JSON-able state; samples are stored sorted."""
        return {"samples": list(self._view().ordered)}

    @classmethod
    def merge(cls, snapshots: Sequence[dict]) -> "TailAggregator":
        """Combine per-shard snapshots losslessly (canonical shard order)."""
        merged = cls()
        merged._samples = merge_sorted_samples([s["samples"] for s in snapshots])
        return merged


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

    @classmethod
    def merge(cls, snapshots: Sequence[dict]) -> "MissRatioAggregator":
        merged = cls()
        for snap in snapshots:
            for name, counts in snap["per_task"].items():
                slot = merged._counts(name)
                slot[0] += counts["met"]
                slot[1] += counts["missed"]
        return merged


class LatencyAggregator:
    """Job response-time stats in µs, streamed from ``JOB_LATENCY``."""

    __slots__ = ("stats", "tail", "_cancel")

    def __init__(self) -> None:
        self.stats = OnlineStats()
        self.tail = TailAggregator()
        self._cancel: Optional[Callable[[], None]] = None

    def attach(self, bus: TelemetryBus) -> "LatencyAggregator":
        self._cancel = bus.subscribe(events.JOB_LATENCY, self._on_latency)
        return self

    def detach(self) -> None:
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    def _on_latency(self, event) -> None:
        usec = to_usec(event.latency_ns)
        self.stats.add(usec)
        self.tail.add(usec)

    def tail_usec(self) -> Dict[float, float]:
        return self.tail.tail_summary()

    def mean_usec(self) -> float:
        return self.stats.mean

    def snapshot(self) -> dict:
        return {"stats": self.stats.snapshot(), "tail": self.tail.snapshot()}

    @classmethod
    def merge(cls, snapshots: Sequence[dict]) -> "LatencyAggregator":
        merged = cls()
        merged.stats = OnlineStats.merge([s["stats"] for s in snapshots])
        merged.tail = TailAggregator.merge([s["tail"] for s in snapshots])
        return merged


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

    @classmethod
    def merge(cls, snapshots: Sequence[dict]) -> "BandwidthAggregator":
        merged = cls()
        for snap in snapshots:
            for name, ns in snap["consumed_ns"].items():
                merged.consumed_ns[name] = merged.consumed_ns.get(name, 0) + ns
            for name, (num, den) in snap["granted"].items():
                # Later shards win — shard order is canonical, so this
                # is deterministic; for disjoint shards it's a union.
                merged.granted[name] = Fraction(num, den)
        return merged


class StandardTelemetry:
    """The three headline streaming metrics bundled on one bus.

    Attach to a system's bus before the run; after it, ``snapshot()``
    is a JSON-able record of deadline-miss ratios, latency tails, and
    granted-vs-consumed bandwidth — with no trace retained in memory.
    """

    def __init__(self, bus: TelemetryBus):
        self.misses = MissRatioAggregator().attach(bus)
        self.latency = LatencyAggregator().attach(bus)
        self.bandwidth = BandwidthAggregator().attach(bus)

    def detach(self) -> None:
        self.misses.detach()
        self.latency.detach()
        self.bandwidth.detach()

    def snapshot(self) -> dict:
        return {
            "misses": self.misses.snapshot(),
            "latency": self.latency.snapshot(),
            "bandwidth": self.bandwidth.snapshot(),
        }

    @staticmethod
    def merge_snapshots(snapshots: Sequence[dict]) -> dict:
        """Merge whole-bundle snapshots, in canonical shard order."""
        misses = MissRatioAggregator.merge([s["misses"] for s in snapshots])
        latency = LatencyAggregator.merge([s["latency"] for s in snapshots])
        bandwidth = BandwidthAggregator.merge(
            [s["bandwidth"] for s in snapshots]
        )
        return {
            "misses": misses.snapshot(),
            "latency": latency.snapshot(),
            "bandwidth": bandwidth.snapshot(),
        }
