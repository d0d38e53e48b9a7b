"""Measurement: deadlines, latencies, bandwidth and overhead accounting."""

from .bandwidth import (
    BandwidthBreakdown,
    allocated_savings_percent,
    average_extra_cpu,
    claimed_savings_percent,
)
from .deadlines import DeadlineStats, MissReport, collect_miss_report
from .latency import LatencyRecorder, merge_recorders
from .overhead import HostMetrics, OverheadStats, PcpuUsage
from .percentiles import TAIL_PERCENTILES

__all__ = [
    "BandwidthBreakdown",
    "average_extra_cpu",
    "claimed_savings_percent",
    "allocated_savings_percent",
    "DeadlineStats",
    "MissReport",
    "collect_miss_report",
    "LatencyRecorder",
    "merge_recorders",
    "HostMetrics",
    "OverheadStats",
    "PcpuUsage",
    "TAIL_PERCENTILES",
]
