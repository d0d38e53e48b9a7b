"""Terminal rendering and trace-export helpers for the paper's figures."""

from .export import export_chrome_trace, trace_to_chrome_events

__all__ = [
    "export_chrome_trace",
    "trace_to_chrome_events",
]
