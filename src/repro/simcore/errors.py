"""Exception hierarchy for the repro simulation stack.

Every error raised intentionally by this package derives from
:class:`ReproError`, so callers can catch simulation-level failures
without swallowing genuine programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class SchedulingError(ReproError):
    """A scheduler violated one of its internal invariants."""


class AdmissionError(ReproError):
    """An admission-control request was rejected.

    Carries enough context for callers to distinguish guest-level from
    host-level rejections.
    """

    def __init__(self, message: str, *, level: str = "host") -> None:
        super().__init__(message)
        self.level = level


class ConfigurationError(ReproError):
    """A component was constructed with inconsistent parameters."""


class TraceFormatError(ConfigurationError, ValueError):
    """A recorded RTVT trace is truncated, unparsable or fails its hash."""


class InvariantViolation(SimulationError):
    """An online invariant check failed at a scheduling decision point.

    Raised by :class:`repro.faults.invariants.InvariantChecker`.  Carries
    the violated *rule* name, the simulated *time_ns* of the offending
    decision, and *window* — the most recent decision snapshots (oldest
    first) so the failure can be diagnosed without re-running the
    simulation under a tracer.
    """

    def __init__(self, rule: str, time_ns: int, message: str, window=()) -> None:
        super().__init__(f"[{rule}] t={time_ns}ns: {message}")
        self.rule = rule
        self.time_ns = time_ns
        self.window = tuple(window)


class AnalysisError(ReproError):
    """A real-time analysis routine could not produce a valid result."""
