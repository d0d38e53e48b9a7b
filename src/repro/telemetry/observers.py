"""Named observers: what ``repro run`` attaches to every unit of a plan.

A :class:`~repro.runner.workunits.WorkUnit` names its observers (a name
may carry one argument: ``blame:vm2.rta1#15``).  The runner installs a
:class:`UnitObservers` for the unit through the observation hook
(:mod:`repro.telemetry.observe`); it gives every system the unit builds
a fresh observer of each name, in the order named, and returns each
one's picklable ``finish(part)`` output beside the part, one per system
(fig1 builds two systems, fig3 none): a stream snapshot
(``telemetry``), a detached :class:`~repro.simcore.trace.Trace`
(``chrome_trace``), trace bytes and the rows in their trailer
(``record``), a blame snapshot, miss list, per-tenant table and job
timelines (``blame``), an uninstalled
:class:`~repro.telemetry.profile.SimProfiler` (``profile``).  Systems
are never folded together: two runs that restart time at 0 and reuse
task names make one trace, span set or timeline meaningless.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..control.tenants import CreditLedger, default_task_owner
from ..report.ascii import render_span_timeline
from ..simcore.trace import Trace
from .aggregate import StandardTelemetry
from .blame import analyze_spans, attribute_miss
from .profile import SimProfiler
from .record import TraceRecorder
from .spans import SpanBuilder

#: Jobs listed per task when ``--job`` names a task without ``#N``, and
#: worst misses listed per unit.
WORST_MISSES = 5


def unit_rows(part: Any) -> Optional[List[dict]]:
    """The metric rows of a unit's part: a robustness cell's row, a
    cluster host's ``"row"``, a feedback cell's row list, or a result's
    ``rows()`` / shard outcome's ``row()``; ``None`` when it has none."""
    if isinstance(part, dict):
        return [part.get("row", part)]
    if isinstance(part, list):
        return part
    if hasattr(part, "rows"):
        return part.rows()
    return [part.row()] if hasattr(part, "row") else None


def job_timelines(builder: SpanBuilder, job: str) -> List[str]:
    """Rendered causal timelines of ``TASK#N``, or of a task's worst
    missed jobs (its first jobs when none missed)."""
    task, _, index = job.partition("#")
    spans = builder.spans_for(task)
    if index:
        spans = [s for s in spans if s.job == int(index)]
    elif any(s.missed for s in spans):
        spans = [s for s in spans if s.missed][:WORST_MISSES]
    else:
        spans = spans[:WORST_MISSES]
    return [
        render_span_timeline(s, attribute_miss(s, builder) if s.missed else None)
        for s in spans
    ]


def _tenant_rows(ledger: CreditLedger, misses: List[dict]) -> List[dict]:
    """Per-tenant credit joined with the primary causes of its misses."""
    causes: Dict[str, Dict[str, int]] = {name: {} for name in ledger.slos}
    for miss in misses:
        tenant = ledger.tenant_of_vm(default_task_owner(miss["task"]))
        if tenant:
            per = causes[tenant]
            per[miss["primary"]] = per.get(miss["primary"], 0) + 1
    rows = []
    for name in sorted(ledger.slos):
        stats = ledger.stats(name)
        ranked = sorted(causes[name].items(), key=lambda kv: (-kv[1], kv[0]))
        rows.append(
            {
                "tenant": name,
                "credit": round(ledger.credit(name), 4),
                "met": stats["met"],
                "missed": stats["missed"],
                "violations": stats["violations"],
                "blame": ", ".join(f"{c}:{n}" for c, n in ranked) or "-",
            }
        )
    return rows


def blame_output(
    builder: SpanBuilder,
    job: Optional[str] = None,
    ledger: Optional[CreditLedger] = None,
) -> dict:
    """Blame one finalized span builder: the ``blame`` observer's output."""
    report, misses = analyze_spans(builder)
    output: Dict[str, Any] = {"blame": report.snapshot(), "misses": misses}
    if job is not None:
        output["timelines"] = job_timelines(builder, job)
    if ledger is not None:
        output["tenants"] = _tenant_rows(ledger, misses)
    return output


class _Telemetry:
    def __init__(self, system, context: dict, unit_id: str, arg: Optional[str]) -> None:
        self._bundle = StandardTelemetry(system.machine.bus)

    def finish(self, part: Any) -> dict:
        return self._bundle.snapshot()


class _ChromeTrace:
    def __init__(self, system, context: dict, unit_id: str, arg: Optional[str]) -> None:
        self._trace = Trace().attach(system.machine.bus)

    def finish(self, part: Any) -> Trace:
        self._trace.detach()
        return self._trace


class _Record:
    """Records under the unit's replayable ``header`` when it hands one
    to the hook, else under ``{"format": "unit", "unit": <id>}``; the
    trailer carries the unit's rows."""

    def __init__(self, system, context: dict, unit_id: str, arg: Optional[str]) -> None:
        header = dict(context.get("header") or {"format": "unit", "unit": unit_id})
        header["migration_ns"] = system.machine.costs.migration_ns
        self._recorder = TraceRecorder(None, header).attach(system.machine.bus)

    def finish(self, part: Any) -> dict:
        rows = unit_rows(part)
        data = self._recorder.close(meta=None if rows is None else {"rows": rows})
        return {"data": data, "rows": rows}


class _Blame:
    """Spans of one system; a feedback cell's ``tenants`` grouping adds
    a credit ledger for the per-tenant table."""

    def __init__(self, system, context: dict, unit_id: str, arg: Optional[str]) -> None:
        self._job = arg
        tenants = context.get("tenants")
        self._ledger = (
            CreditLedger(*tenants).attach(system.machine.bus) if tenants else None
        )
        self._builder = SpanBuilder().attach(system.machine)

    def finish(self, part: Any) -> dict:
        return blame_output(self._builder.finalize(), self._job, self._ledger)


class _Profile:
    def __init__(self, system, context: dict, unit_id: str, arg: Optional[str]) -> None:
        self._profiler = SimProfiler().install(
            engine=system.engine, bus=system.machine.bus
        )

    def finish(self, part: Any) -> SimProfiler:
        self._profiler.uninstall()
        return self._profiler


#: Observer name -> class; each instance watches one system.
OBSERVERS = {
    "telemetry": _Telemetry,
    "chrome_trace": _ChromeTrace,
    "record": _Record,
    "blame": _Blame,
    "profile": _Profile,
}


class UnitObservers:
    """The observers a unit names, as one hook observer: every system
    the unit hands the hook gets a fresh one of each, in the order
    named."""

    def __init__(self, unit) -> None:
        self._unit_id = unit.unit_id
        self._specs = [spec.partition(":")[::2] for spec in unit.observers]
        self._watching: List[tuple] = []  # (name, observer), in hook order

    def __call__(self, system, context: dict) -> None:
        for name, arg in self._specs:
            observer = OBSERVERS[name](system, context, self._unit_id, arg or None)
            self._watching.append((name, observer))

    def finish(self, part: Any) -> Dict[str, List[Any]]:
        """Each name's outputs, one per system in hook order."""
        outputs: Dict[str, List[Any]] = {name: [] for name, _ in self._specs}
        for name, observer in self._watching:
            outputs[name].append(observer.finish(part))
        return outputs
