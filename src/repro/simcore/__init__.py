"""Deterministic discrete-event simulation core.

Public surface:

- :class:`Engine` — the event loop and clock
- :class:`Event`, :class:`EventQueue` — scheduling primitives
- :class:`RandomStreams`, :class:`RandomSource` — reproducible randomness
- :class:`Trace` — structured execution tracing
- time helpers (:func:`usec`, :func:`msec`, :func:`sec`, ...)
"""

from .engine import Engine
from .errors import (
    AdmissionError,
    AnalysisError,
    ConfigurationError,
    ReproError,
    SchedulingError,
    SimulationError,
)
from .events import (
    PRIORITY_BUDGET,
    PRIORITY_COMPLETION,
    PRIORITY_DEFAULT,
    PRIORITY_METRICS,
    PRIORITY_RELEASE,
    PRIORITY_SCHEDULE,
    Event,
    EventQueue,
)
from .rng import RandomSource, RandomStreams
from .time import (
    MSEC,
    NSEC,
    SEC,
    USEC,
    bandwidth,
    msec,
    nsec,
    sec,
    to_usec,
    usec,
)
from .trace import Segment, Trace, TraceEvent

__all__ = [
    "Engine",
    "Event",
    "EventQueue",
    "RandomSource",
    "RandomStreams",
    "Trace",
    "Segment",
    "TraceEvent",
    "ReproError",
    "SimulationError",
    "SchedulingError",
    "AdmissionError",
    "ConfigurationError",
    "AnalysisError",
    "NSEC",
    "USEC",
    "MSEC",
    "SEC",
    "nsec",
    "usec",
    "msec",
    "sec",
    "to_usec",
    "bandwidth",
    "PRIORITY_RELEASE",
    "PRIORITY_COMPLETION",
    "PRIORITY_BUDGET",
    "PRIORITY_SCHEDULE",
    "PRIORITY_DEFAULT",
    "PRIORITY_METRICS",
]
