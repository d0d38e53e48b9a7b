"""What-if replay — drive a recorded trace against any scheduler.

A recorded trace fixes the *stimulus* of a run: every job release of
the base workload, and every root fault injection, with exact times.
Replay rebuilds the same VMs and tasks under a (possibly different)
scheduler, re-issues the recorded releases through the engine's normal
release path, re-installs the recorded fault roots as an
:class:`~repro.faults.timeline.At` timeline, and runs.  The same
scheduler reproduces the original run event-for-event (the round-trip
tests compare metric rows and canonical trace hashes byte for byte); a
different scheduler answers "what would RT-Xen / Credit have done with
this exact load?" — the divergence is then pinpointed with
:mod:`repro.telemetry.diff`.

Exactness argument (same scheduler): the engine executes events in
(time, priority, insertion) order.  Replay release drivers mirror the
live drivers' insertion discipline — release the job, then schedule the
next recorded release at the same priority — and are started in
recorded first-release order, so any same-instant release collisions
tie-break identically.  Fault children (churn shutdowns, surge reverts,
jitter ends) are *not* replayed from the trace: the re-applied roots
regenerate them, which keeps scheduler-dependent outcomes (admission
rejections) free to differ under what-if schedulers.  Known limit: a
same-instant collision between a fault child and a later fault root can
order differently than the original; no shipped timeline produces one.

Like :mod:`repro.telemetry.blame_plan`, this module deliberately lives
outside ``repro.telemetry``'s public namespace and imports the
robustness experiment lazily, so the telemetry package's import closure
(and every cached unit salt hanging off it) stays small.  Recording is
not done here: ``repro run TARGET --record PATH`` attaches the
``record`` observer (:mod:`repro.telemetry.observers`), and the units
hand it the replayable trace header.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..scenario import SCHEDULER_LABELS as _KIND_SCHEDULERS
from . import events as T
from .record import TraceReader, TraceRecorder

#: Registry scheduler labels -> scenario-spec system kinds (both
#: spellings are accepted anywhere a scheduler override is taken).
SCHEDULER_SYSTEM_KINDS = {label: kind for kind, label in _KIND_SCHEDULERS.items()}


def canonical_scheduler(name: str) -> str:
    """Normalize a scheduler override to the registry label."""
    if name in SCHEDULER_SYSTEM_KINDS:
        return name
    if name in _KIND_SCHEDULERS:
        return _KIND_SCHEDULERS[name]
    raise ValueError(f"unknown scheduler {name!r}")


@dataclass
class ReplayResult:
    """Outcome of replaying a trace."""

    header: Dict[str, Any]
    scheduler: str
    rows: List[Dict[str, object]]
    recorded_rows: List[Dict[str, object]]
    trace_path: Optional[str] = None
    trace_data: Optional[bytes] = field(default=None, repr=False)

    def rows_match(self) -> bool:
        """Replayed metric rows byte-identical to the recorded ones."""
        canon = lambda rows: json.dumps(rows, sort_keys=True)  # noqa: E731
        return canon(self.rows) == canon(self.recorded_rows)

    def reader(self) -> Optional[TraceReader]:
        if self.trace_path:
            return TraceReader(self.trace_path)
        if self.trace_data is not None:
            return TraceReader(self.trace_data)
        return None


# -- the recorded stimulus -----------------------------------------------------------


def _recorded_stimulus(reader: TraceReader) -> Tuple[Dict[str, List[int]], List[Any]]:
    """One decode of the trace: every task's absolute release instants,
    keyed in first-release order, and the root fault injections as an
    ``At`` timeline (:func:`_fault_directive`)."""
    releases: Dict[str, List[int]] = {}
    directives: List[Any] = []
    kinds = (T.JOB_RELEASE, T.FAULT_INJECTED, T.FAULT_RECOVERED)
    for kind, event in reader.events(kinds=kinds):
        if kind == T.JOB_RELEASE:
            releases.setdefault(event.task, []).append(event.time)
        else:
            directive = _fault_directive(kind, event)
            if directive is not None:
                directives.append(directive)
    return releases, directives


class _EngineReplay:
    """Re-issue one task's recorded releases, chained like PeriodicDriver."""

    def __init__(self, engine, vm, task, times: List[int]):
        self.engine = engine
        self.vm = vm
        self.task = task
        self.times = times
        self._idx = 0

    def start(self) -> "_EngineReplay":
        if self.times:
            self._schedule(self.times[0])
        return self

    def _schedule(self, when: int) -> None:
        from ..simcore.events import PRIORITY_RELEASE

        self.engine.at(
            when,
            self._fire,
            priority=PRIORITY_RELEASE,
            name=f"release:{self.task.name}",
        )

    def _fire(self) -> None:
        # mirror PeriodicDriver._release: release first, then re-arm
        self.vm.release_job(self.task, now=self.engine.now)
        self._idx += 1
        if self._idx < len(self.times):
            self._schedule(self.times[self._idx])


class _MuxReplay:
    """Recorded sporadic arrivals re-issued through the ArrivalMux."""

    def __init__(self, mux, vm, task, times: List[int]):
        self.mux = mux
        self.vm = vm
        self.task = task
        self.times = times
        self._idx = 0

    def start(self) -> "_MuxReplay":
        if self.times:
            self.mux.at(self.times[0], self._fire)
        return self

    def _fire(self) -> None:
        # mirror SporadicDriver._arrive: release first, then re-arm
        self.vm.release_job(self.task, now=self.mux.engine.now)
        self._idx += 1
        if self._idx < len(self.times):
            self.mux.at(self.times[self._idx], self._fire)


def _install_releases(
    releases: Dict[str, List[int]],
    base_tasks: Sequence[str],
    task_map: Dict[str, Tuple[Any, Any]],
    engine,
    mux=None,
    sporadic: Sequence[str] = (),
) -> None:
    """Start a replay driver per recorded base task, in first-release
    order; churn-born tasks are re-created by fault replay."""
    base = set(base_tasks)
    sporadic_set = set(sporadic)
    for name, times in releases.items():
        if name not in base:
            continue
        if name not in task_map:
            raise ValueError(f"trace releases unknown task {name!r}")
        vm, task = task_map[name]
        if name in sporadic_set and mux is not None:
            _MuxReplay(mux, vm, task, times).start()
        else:
            _EngineReplay(engine, vm, task, times).start()


# -- recorded fault timelines ---------------------------------------------------------


def _fault_directive(kind: str, event) -> Optional[Any]:
    """A recorded root fault injection as an ``At`` directive; ``None``
    for a child (churn shutdowns, surge reverts, jitter/drop ends): the
    re-applied roots schedule their own.
    """
    from ..faults import (
        At,
        ClockJitter,
        HypercallDelay,
        HypercallDrop,
        PcpuFail,
        PcpuRecover,
        VmChurn,
        WorkloadSurge,
    )

    fault, detail, when = event.fault, event.detail, event.time
    if kind == T.FAULT_RECOVERED:
        # every other recovery is a child of an earlier root
        return At(when, PcpuRecover(detail[0])) if fault == "pcpu_recover" else None
    if fault == "pcpu_fail":
        return At(when, PcpuFail(detail[0]))
    if fault == "vm_churn":
        # (name, "boot", slice, period, lifetime) or
        # (name, "rejected", reason, slice, period, lifetime);
        # admission is scheduler-dependent, so a recorded rejection
        # is still re-attempted under the what-if scheduler.
        offset = 2 if detail[1] == "boot" else 3
        prefix = detail[0].rstrip("0123456789") or "churn"
        return At(
            when,
            VmChurn(
                prefix=prefix,
                slice_ns=detail[offset],
                period_ns=detail[offset + 1],
                lifetime_ns=detail[offset + 2],
            ),
        )
    if fault == "workload_surge":
        # (vm, applied, rejected, num, den, dur) or
        # (vm, "no-such-vm", num, den, dur)
        offset = 2 if detail[1] == "no-such-vm" else 3
        return At(
            when,
            WorkloadSurge(
                detail[0],
                num=detail[offset],
                den=detail[offset + 1],
                duration_ns=detail[offset + 2],
            ),
        )
    if fault == "hypercall_delay":
        return At(when, HypercallDelay(delay_ns=detail[0], duration_ns=detail[1]))
    if fault == "hypercall_drop":
        return At(when, HypercallDrop(duration_ns=detail[0]))
    if fault == "clock_jitter":
        return At(when, ClockJitter(max_ns=detail[0], duration_ns=detail[1]))
    raise ValueError(f"trace contains unreplayable fault {fault!r}")


# -- replay ---------------------------------------------------------------------------


def replay_trace(
    source,
    scheduler: Optional[str] = None,
    record_path: Optional[str] = None,
    record: bool = False,
) -> ReplayResult:
    """Replay *source* (path, bytes or reader), optionally re-recording.

    *scheduler* overrides the recorded scheduler for what-if replay.
    """
    reader = source if isinstance(source, TraceReader) else TraceReader(source)
    header = reader.header
    fmt = header.get("format")
    if fmt == "robustness":
        return _replay_robustness(reader, scheduler, record_path, record)
    if fmt == "scenario":
        return _replay_scenario(reader, scheduler, record_path, record)
    raise ValueError(f"trace is not replayable (format={fmt!r})")


def _new_recorder(
    header: Dict[str, Any],
    scheduler: str,
    reader: TraceReader,
    record_path: Optional[str],
    record: bool,
) -> Optional[TraceRecorder]:
    if not record_path and not record:
        return None
    replay_header = dict(header)
    replay_header["scheduler"] = scheduler
    replay_header["replay_of"] = reader.trace_hash
    return TraceRecorder(record_path, replay_header)


def _replay_robustness(reader, scheduler, record_path, record) -> ReplayResult:
    from ..experiments.robustness import build_system, case_row
    from ..faults import InvariantChecker, Scenario
    from ..simcore.rng import RandomStreams

    header = reader.header
    sched = canonical_scheduler(scheduler) if scheduler else header["scheduler"]
    system = build_system(sched, start_drivers=False)
    checker = None
    if header.get("check_invariants", True):
        checker = InvariantChecker(system).attach()
    recorder = _new_recorder(header, sched, reader, record_path, record)
    if recorder is not None:
        recorder.attach(system.machine.bus)
    task_map = {
        task.name: (vm, task) for vm in system.vms for task in vm.rt_tasks
    }
    releases, directives = _recorded_stimulus(reader)
    _install_releases(releases, header["base_tasks"], task_map, system.engine)
    ctx = Scenario(directives).install(system, RandomStreams(header["seed"]))
    system.run(header["duration_ns"])
    row = case_row(header["fault"], sched, system, ctx, checker)
    trace_data = recorder.close(meta={"rows": [row]}) if recorder else None
    return ReplayResult(
        header=header,
        scheduler=sched,
        rows=[row],
        recorded_rows=reader.meta.get("rows", []),
        trace_path=record_path,
        trace_data=trace_data,
    )


def _replay_scenario(reader, scheduler, record_path, record) -> ReplayResult:
    from ..guest.task import TaskKind
    from ..metrics.deadlines import collect_miss_report
    from ..scenario import ScenarioResult, build_scenario_system
    from .observe import observing

    header = reader.header
    spec = copy.deepcopy(header["spec"])
    if scheduler:
        sched = canonical_scheduler(scheduler)
        spec.setdefault("system", {})["type"] = SCHEDULER_SYSTEM_KINDS[sched]
    else:
        sched = header["scheduler"]
    recorder = _new_recorder(header, sched, reader, record_path, record)
    # The scenario builder hands its system to the observation hook
    # before any VM exists; the replay's own recorder listens there.
    hooks = []
    if recorder is not None:
        hooks.append(lambda system, context: recorder.attach(system.machine.bus))
    name = header.get("name", "scenario")
    with observing(hooks):
        build = build_scenario_system(spec, name=name, start_drivers=False)
    sporadic = [
        task_name
        for task_name, (_vm, task) in build.task_vms.items()
        if task.kind is TaskKind.SPORADIC
    ]
    releases, directives = _recorded_stimulus(reader)
    _install_releases(
        releases,
        list(build.task_vms),
        build.task_vms,
        build.system.engine,
        mux=build.mux,
        sporadic=sporadic,
    )
    from ..faults import Scenario as FaultScenario

    if directives:
        FaultScenario(directives).install(build.system, build.streams)
    build.system.run(build.duration_ns)
    build.system.finalize()
    result = ScenarioResult(
        name=name,
        duration_ns=build.duration_ns,
        report=collect_miss_report(build.all_tasks),
    )
    rows = result.rows()
    trace_data = recorder.close(meta={"rows": rows}) if recorder else None
    return ReplayResult(
        header=header,
        scheduler=sched,
        rows=rows,
        recorded_rows=reader.meta.get("rows", []),
        trace_path=record_path,
        trace_data=trace_data,
    )


# -- offline span assembly ------------------------------------------------------------


def spans_from_trace(reader: TraceReader):
    """Pump a recorded trace through a private bus into a SpanBuilder.

    Returns the finalized builder — the offline backend of
    ``repro trace inspect <trace> --blame``.
    """
    from .bus import TelemetryBus
    from .spans import SpanBuilder

    bus = TelemetryBus()
    builder = SpanBuilder(migration_ns=reader.header.get("migration_ns"))
    builder.attach_bus(bus)
    publish = bus.publish
    last_time = 0
    for kind, event in reader.events():
        publish(kind, event)
        last_time = event.time
    end = reader.header.get("duration_ns", last_time)
    builder.finalize(end_time=end)
    return builder
