"""Simulator self-profiler: where does the *simulator* spend time?

The observability stack so far answers questions about the simulated
system; this module answers the meta-question.  A :class:`SimProfiler`
installs into the two execution loops that together account for nearly
all simulator wall time:

- the :class:`~repro.telemetry.bus.TelemetryBus` reports, per event
  kind, how many handler deliveries ran and how long they took — the
  cost of the observability itself;
- the :class:`~repro.simcore.engine.Engine` reports, per *phase* (the
  event-name prefix before the first ``":"``, e.g. ``replenish``,
  ``complete``, ``fault``), how many events executed and how much wall
  time each phase consumed.

Both hooks are first-class slots on their (slotted) hosts and cost one
attribute test when no profiler is installed; ``tools/check_perf.py``
gates that disabled cost alongside the telemetry fast path.

Wall-clock numbers are inherently nondeterministic, so profiler output
is never part of a determinism-gated snapshot; counts are exact and
reproducible, times are advisory.
"""

from __future__ import annotations

from typing import Dict

#: Phase bucket for events scheduled without a name.
ANONYMOUS_PHASE = "(unnamed)"


class SimProfiler:
    """Per-event-kind bus cost and per-phase engine cost, accumulated."""

    def __init__(self) -> None:
        #: kind -> [publishes, handler deliveries, wall seconds]
        self.event_costs: Dict[str, list] = {}
        #: phase -> [events executed, wall seconds]
        self.phase_costs: Dict[str, list] = {}
        self._engine = None
        self._bus = None

    # -- wiring -----------------------------------------------------------------

    def install(self, engine=None, bus=None) -> "SimProfiler":
        """Attach to an engine and/or a telemetry bus; returns self."""
        if engine is not None:
            engine.set_profiler(self)
            self._engine = engine
        if bus is not None:
            bus.set_profiler(self)
            self._bus = bus
        return self

    def uninstall(self) -> None:
        """Detach from whatever this profiler was installed on."""
        if self._engine is not None:
            self._engine.set_profiler(None)
            self._engine = None
        if self._bus is not None:
            self._bus.set_profiler(None)
            self._bus = None

    # -- recording hooks (called by the bus / the engine) -----------------------

    def record_event(self, kind: str, deliveries: int, seconds: float) -> None:
        cell = self.event_costs.get(kind)
        if cell is None:
            cell = self.event_costs[kind] = [0, 0, 0.0]
        cell[0] += 1
        cell[1] += deliveries
        cell[2] += seconds

    def record_phase(self, name: str, seconds: float) -> None:
        phase = name.partition(":")[0] if name else ANONYMOUS_PHASE
        cell = self.phase_costs.get(phase)
        if cell is None:
            cell = self.phase_costs[phase] = [0, 0.0]
        cell[0] += 1
        cell[1] += seconds

    # -- output -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able report: counts are exact, wall times advisory."""
        return {
            "events": {
                kind: {
                    "publishes": cell[0],
                    "deliveries": cell[1],
                    "wall_s": cell[2],
                }
                for kind, cell in sorted(self.event_costs.items())
            },
            "phases": {
                phase: {"events": cell[0], "wall_s": cell[1]}
                for phase, cell in sorted(self.phase_costs.items())
            },
        }

    def summary(self, top: int = 8) -> str:
        """Terminal-friendly digest: the costliest phases and kinds."""
        lines = ["self-profile (simulator wall time):"]
        phases = sorted(
            self.phase_costs.items(), key=lambda kv: -kv[1][1]
        )[:top]
        for phase, (count, seconds) in phases:
            lines.append(
                f"  phase {phase:<16} {count:>8} events  {seconds * 1e3:8.2f} ms"
            )
        kinds = sorted(
            self.event_costs.items(), key=lambda kv: -kv[1][2]
        )[:top]
        for kind, (publishes, deliveries, seconds) in kinds:
            lines.append(
                f"  bus   {kind:<16} {publishes:>8} pubs "
                f"({deliveries} deliveries)  {seconds * 1e3:8.2f} ms"
            )
        if len(lines) == 1:
            lines.append("  (nothing recorded)")
        return "\n".join(lines)
