"""Trace export to the Chrome tracing (Perfetto) JSON format.

A :class:`~repro.simcore.trace.Trace` attached to a run's telemetry bus
can be dumped to a ``.json`` loadable in ``chrome://tracing`` /
https://ui.perfetto.dev: PCPUs become rows, execution segments become
duration events coloured by VM, and point events (switches, migrations,
completions) become instant events.  Injected faults (``kind ==
"fault"`` trace events, published by the machine and
:mod:`repro.faults`) land as global instant events on a dedicated
``faults`` track so the timeline shows exactly when the system was hit.

The event list holds the metadata rows, then every segment, then every
point event, each group in recording order; the viewers place events by
their ``ts``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..simcore.errors import ConfigurationError
from ..simcore.trace import Trace

#: Row (chrome-tracing tid) holding injected-fault instant events; far
#: above any realistic PCPU index so the track never collides.
FAULT_TRACK_TID = 999


# -- per-event dict builders ----------------------------------------------------------


def _process_meta(process_name: str) -> Dict:
    return {
        "name": "process_name",
        "ph": "M",
        "pid": 0,
        "args": {"name": process_name},
    }


def _fault_track_meta() -> Dict:
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": 0,
        "tid": FAULT_TRACK_TID,
        "args": {"name": "faults"},
    }


def _pcpu_track_meta(pcpu: int) -> Dict:
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": 0,
        "tid": pcpu,
        "args": {"name": f"pcpu{pcpu}"},
    }


def _segment_dict(pcpu: int, vcpu: str, task: Optional[str], start: int, end: int) -> Dict:
    return {
        "name": task or vcpu,
        "cat": vcpu.split(".")[0],
        "ph": "X",
        "pid": 0,
        "tid": pcpu,
        "ts": start / 1_000.0,
        "dur": (end - start) / 1_000.0,
        "args": {"vcpu": vcpu},
    }


def _switch_dict(time: int, pcpu: int, vcpu: str, migrated: bool) -> Dict:
    return {
        "name": "migration" if migrated else "switch",
        "cat": "sched",
        "ph": "i",
        "pid": 0,
        "tid": pcpu,
        "ts": time / 1_000.0,
        "s": "t",
        "args": {"vcpu": vcpu},
    }


def _fault_dict(time: int, fault_kind: str, detail) -> Dict:
    return {
        "name": f"fault:{fault_kind}",
        "cat": "faults",
        "ph": "i",
        "pid": 0,
        "tid": FAULT_TRACK_TID,
        "ts": time / 1_000.0,
        "s": "g",
        "args": {"detail": [str(d) for d in detail]},
    }


def _complete_dict(time: int, task: str, job) -> Dict:
    return {
        "name": f"complete:{task}",
        "cat": "jobs",
        "ph": "i",
        "pid": 0,
        "tid": 0,
        "ts": time / 1_000.0,
        "s": "g",
        "args": {"job": job},
    }


def trace_to_chrome_events(trace: Trace, process_name: str = "host") -> List[Dict]:
    """Convert a trace to chrome-tracing event dicts (times in µs)."""
    events: List[Dict] = [_process_meta(process_name)]
    pcpus = sorted({s.pcpu for s in trace.segments})
    if any(e.kind == "fault" for e in trace.events):
        events.append(_fault_track_meta())
    for pcpu in pcpus:
        events.append(_pcpu_track_meta(pcpu))
    for segment in trace.segments:
        events.append(
            _segment_dict(
                segment.pcpu, segment.vcpu, segment.task, segment.start, segment.end
            )
        )
    for event in trace.events:
        if event.kind == "switch":
            pcpu, vcpu, migrated = event.detail
            events.append(_switch_dict(event.time, pcpu, vcpu, migrated))
        elif event.kind == "fault":
            fault_kind = event.detail[0] if event.detail else "fault"
            events.append(_fault_dict(event.time, fault_kind, event.detail[1:]))
        elif event.kind == "complete":
            events.append(
                _complete_dict(event.time, event.detail[0], event.detail[1])
            )
    return events


def export_chrome_trace(
    trace: Trace, path: str, process_name: str = "host"
) -> int:
    """Write the trace to *path*; returns the number of events written."""
    if not path.endswith(".json"):
        raise ConfigurationError("chrome traces are .json files")
    events = trace_to_chrome_events(trace, process_name)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return len(events)


def export_profile(profiler, path: str) -> dict:
    """Write a :class:`~repro.telemetry.profile.SimProfiler` snapshot.

    Plain sorted JSON (per-event-kind handler counts/wall-time and
    per-phase engine time) — the self-profiler's export path; returns
    the snapshot that was written.
    """
    if not path.endswith(".json"):
        raise ConfigurationError("profile exports are .json files")
    snapshot = profiler.snapshot()
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
    return snapshot
