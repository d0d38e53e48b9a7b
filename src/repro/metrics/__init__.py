"""Measurement: deadlines, latencies, bandwidth and overhead accounting."""

from .bandwidth import (
    BandwidthBreakdown,
    allocated_savings_percent,
    average_extra_cpu,
    claimed_savings_percent,
    total_bandwidth,
)
from .deadlines import DeadlineStats, MissReport, collect_miss_report
from .latency import LatencyRecorder, merge_recorders
from .overhead import HostMetrics, OverheadStats, PcpuUsage
from .percentiles import (
    TAIL_PERCENTILES,
    cdf_points,
    fraction_below,
    mean,
    percentile,
    percentiles,
    tail_summary,
)

__all__ = [
    "BandwidthBreakdown",
    "total_bandwidth",
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
    "percentile",
    "percentiles",
    "tail_summary",
    "cdf_points",
    "fraction_below",
    "mean",
    "TAIL_PERCENTILES",
]
