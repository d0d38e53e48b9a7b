"""Unit tests for the simulator self-profiler."""

from repro.simcore.engine import Engine
from repro.telemetry import SimProfiler, TelemetryBus
from repro.telemetry import events as T
from repro.telemetry.profile import ANONYMOUS_PHASE


def _publish_n(bus, n):
    for i in range(n):
        bus.publish(T.JOB_COMPLETE, T.JobCompleteEvent(i, "a", i))


class TestBusProfiling:
    def test_counts_publishes_and_deliveries(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(T.JOB_COMPLETE, seen.append)
        bus.subscribe(T.JOB_COMPLETE, lambda e: None)
        profiler = SimProfiler().install(bus=bus)
        _publish_n(bus, 3)
        profiler.uninstall()
        snap = profiler.snapshot()
        record = snap["events"][T.JOB_COMPLETE]
        assert record["publishes"] == 3
        assert record["deliveries"] == 6
        assert record["wall_s"] >= 0.0
        assert len(seen) == 3

    def test_zero_subscriber_publishes_not_recorded(self):
        bus = TelemetryBus()
        profiler = SimProfiler().install(bus=bus)
        _publish_n(bus, 5)  # nobody listening: the fast path returns early
        profiler.uninstall()
        assert profiler.snapshot()["events"] == {}

    def test_uninstall_detaches_the_hook(self):
        bus = TelemetryBus()
        bus.subscribe(T.JOB_COMPLETE, lambda e: None)
        profiler = SimProfiler().install(bus=bus)
        profiler.uninstall()
        _publish_n(bus, 2)
        assert profiler.snapshot()["events"] == {}


class TestEnginePhases:
    def test_phases_group_by_name_prefix(self):
        engine = Engine()
        engine.after(10, lambda: None, name="release:vm0.rta0")
        engine.after(10, lambda: None, name="release:vm0.rta1")
        engine.after(20, lambda: None, name="tick")
        engine.after(30, lambda: None)
        profiler = SimProfiler().install(engine=engine)
        engine.run_until(100)
        profiler.uninstall()
        phases = profiler.snapshot()["phases"]
        assert phases["release"]["events"] == 2
        assert phases["tick"]["events"] == 1
        # Unnamed events fall back to the callback's __name__.
        assert phases["<lambda>"]["events"] == 1

    def test_empty_phase_name_buckets_as_anonymous(self):
        profiler = SimProfiler()
        profiler.record_phase("", 0.0)
        assert profiler.snapshot()["phases"][ANONYMOUS_PHASE]["events"] == 1

    def test_uninstalled_engine_records_nothing(self):
        engine = Engine()
        engine.after(10, lambda: None, name="tick")
        profiler = SimProfiler()
        engine.run_until(100)
        assert profiler.snapshot()["phases"] == {}


class TestScopeAndOutput:
    def test_install_and_uninstall_cover_engine_and_bus(self):
        engine = Engine()
        bus = TelemetryBus()
        bus.subscribe(T.JOB_COMPLETE, lambda e: None)
        profiler = SimProfiler().install(engine=engine, bus=bus)
        engine.after(5, lambda: None, name="tick")
        engine.run_until(10)
        _publish_n(bus, 1)
        profiler.uninstall()
        assert engine._profile is None
        assert bus._profile is None
        snap = profiler.snapshot()
        assert snap["phases"]["tick"]["events"] == 1
        assert snap["events"][T.JOB_COMPLETE]["publishes"] == 1

    def test_summary_lists_hot_entries(self):
        bus = TelemetryBus()
        bus.subscribe(T.JOB_COMPLETE, lambda e: None)
        profiler = SimProfiler().install(bus=bus)
        _publish_n(bus, 4)
        profiler.uninstall()
        text = profiler.summary()
        assert T.JOB_COMPLETE in text
        assert "4 pubs" in text

    def test_export_profile_writes_sorted_json(self, tmp_path):
        import json

        from repro.report.export import export_profile

        bus = TelemetryBus()
        bus.subscribe(T.JOB_COMPLETE, lambda e: None)
        profiler = SimProfiler().install(bus=bus)
        _publish_n(bus, 2)
        profiler.uninstall()
        path = tmp_path / "profile.json"
        written = export_profile(profiler, str(path))
        on_disk = json.loads(path.read_text())
        assert on_disk == written
        assert on_disk["events"][T.JOB_COMPLETE]["publishes"] == 2

    def test_export_profile_requires_json_suffix(self, tmp_path):
        import pytest

        from repro.report.export import export_profile
        from repro.simcore.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            export_profile(SimProfiler(), str(tmp_path / "profile.txt"))
