"""Unified telemetry: typed events, the bus, streaming aggregators,
causal spans, miss blame, the simulator self-profiler, and the flight
recorder (durable traces + divergence diff; what-if replay lives in
:mod:`repro.telemetry.replay`).

The package is intentionally leaf-like: :mod:`repro.simcore` and
:mod:`repro.host` import it (every :class:`~repro.host.machine.Machine`
owns a :class:`TelemetryBus`), so nothing here may import scheduler or
experiment modules.  The observation hook and the named observers the
runner installs there (:mod:`repro.telemetry.observe`,
:mod:`repro.telemetry.observers`) are not re-exported here for exactly
that reason (the blame *analysis* classes re-exported here are pure).
"""

from . import events
from .aggregate import BandwidthAggregator, MissRatioAggregator, StandardTelemetry
from .blame import CAUSES, BlameReport, analyze_spans, attribute_miss
from .bus import TelemetryBus
from .diff import TraceDiff, diff_traces
from .profile import SimProfiler
from .record import TraceReader, TraceRecorder
from .spans import Span, SpanBuilder

__all__ = [
    "events",
    "TelemetryBus",
    "MissRatioAggregator",
    "BandwidthAggregator",
    "StandardTelemetry",
    "Span",
    "SpanBuilder",
    "TraceRecorder",
    "TraceReader",
    "TraceDiff",
    "diff_traces",
    "BlameReport",
    "CAUSES",
    "analyze_spans",
    "attribute_miss",
    "SimProfiler",
]
