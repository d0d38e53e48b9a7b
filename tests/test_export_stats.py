"""Tests for trace export."""

import json

import pytest

from repro.report.export import export_chrome_trace, trace_to_chrome_events
from repro.simcore.errors import ConfigurationError
from repro.simcore.time import sec
from repro.simcore.trace import Trace


def sample_trace():
    trace = Trace()
    trace.record_segment(0, "vm1.vcpu0", "t1", 0, 1_000_000)
    trace.record_segment(1, "vm2.vcpu0", "t2", 0, 2_000_000)
    trace.record_event(1_000_000, "switch", 0, "vm2.vcpu0", True)
    trace.record_event(2_000_000, "complete", "t2", 0)
    return trace


class TestChromeExport:
    def test_events_structure(self):
        events = trace_to_chrome_events(sample_trace())
        duration = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(duration) == 2
        assert len(instants) == 2
        assert len(meta) >= 3  # process + 2 thread names

    def test_times_in_microseconds(self):
        events = trace_to_chrome_events(sample_trace())
        seg = next(e for e in events if e["ph"] == "X" and e["name"] == "t1")
        assert seg["ts"] == 0.0 and seg["dur"] == 1000.0

    def test_migration_flagged(self):
        events = trace_to_chrome_events(sample_trace())
        assert any(e.get("name") == "migration" for e in events)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        count = export_chrome_trace(sample_trace(), str(path))
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == count
        assert data["displayTimeUnit"] == "ms"

    def test_extension_enforced(self, tmp_path):
        with pytest.raises(ConfigurationError):
            export_chrome_trace(sample_trace(), str(tmp_path / "trace.bin"))


class TestFaultTrack:
    def faulted_trace(self):
        trace = sample_trace()
        trace.record_event(500_000, "fault", "pcpu_fail", 1, "vm1.vcpu0")
        trace.record_event(1_500_000, "fault", "vm_churn", "churn0", "boot")
        return trace

    def test_fault_events_land_on_dedicated_track(self):
        from repro.report.export import FAULT_TRACK_TID

        events = trace_to_chrome_events(self.faulted_trace())
        faults = [e for e in events if e.get("cat") == "faults"]
        assert [e["name"] for e in faults] == ["fault:pcpu_fail", "fault:vm_churn"]
        assert all(e["tid"] == FAULT_TRACK_TID for e in faults)
        assert all(e["ph"] == "i" and e["s"] == "g" for e in faults)
        track_names = [
            e for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
            and e["args"]["name"] == "faults"
        ]
        assert len(track_names) == 1
        assert track_names[0]["tid"] == FAULT_TRACK_TID

    def test_fault_detail_serialised(self):
        events = trace_to_chrome_events(self.faulted_trace())
        fail = next(e for e in events if e["name"] == "fault:pcpu_fail")
        assert fail["args"]["detail"] == ["1", "vm1.vcpu0"]
        assert fail["ts"] == 500.0  # 500_000 ns -> µs

    def test_no_fault_track_without_faults(self):
        events = trace_to_chrome_events(sample_trace())
        assert not any(
            e["ph"] == "M" and e.get("args", {}).get("name") == "faults"
            for e in events
        )

    def test_end_to_end_from_simulation(self, tmp_path):
        from repro.core.system import RTVirtSystem
        from repro.faults import At, PcpuFail, PcpuRecover, Scenario
        from repro.simcore.time import msec

        system = RTVirtSystem(pcpu_count=2)
        trace = Trace().attach(system.machine.bus)
        Scenario(
            [At(msec(2), PcpuFail(1)), At(msec(4), PcpuRecover(1))]
        ).install(system)
        system.run(msec(10))
        events = trace_to_chrome_events(trace)
        names = [e["name"] for e in events if e.get("cat") == "faults"]
        assert "fault:pcpu_fail" in names and "fault:pcpu_recover" in names


class TestStreamingExporter:
    """A bus-attached trace's chrome export must hold its invariants
    under a real, faulted, spans-enabled run — not just synthetic
    traces."""

    @pytest.fixture(scope="class")
    def faulted_run(self):
        from repro.experiments.robustness import run_robustness_case
        from repro.telemetry.observe import observing
        from repro.telemetry.spans import SpanBuilder

        holder = {}

        def attach(system, context):
            holder["trace"] = Trace().attach(system.machine.bus)
            holder["spans"] = SpanBuilder().attach(system.machine)

        with observing([attach]):
            run_robustness_case("pcpu_fail", "RT-Xen", sec(1), seed=11)
        return holder

    def test_written_json_parses(self, faulted_run, tmp_path):
        path = tmp_path / "trace.json"
        count = export_chrome_trace(faulted_run["trace"], str(path))
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == count > 0

    def test_duration_events_ordered_and_disjoint_per_tid(self, faulted_run):
        per_tid = {}
        for event in trace_to_chrome_events(faulted_run["trace"]):
            if event["ph"] == "X":
                per_tid.setdefault(event["tid"], []).append(event)
        assert per_tid, "a faulted run must execute something"
        for tid, rows in per_tid.items():
            cursor = None
            for row in rows:
                # Timestamps are float µs; compare in integer ns to dodge
                # the rounding noise the ns->µs division introduces.
                start = round(row["ts"] * 1000)
                end = round((row["ts"] + row["dur"]) * 1000)
                assert end > start
                if cursor is not None:
                    # Recorded in charge order: starts never go backwards
                    # and segments on one PCPU never overlap.
                    assert start >= cursor
                cursor = end

    def test_fault_rows_survive_spans_enabled_run(self, faulted_run):
        from repro.report.export import FAULT_TRACK_TID

        events = trace_to_chrome_events(faulted_run["trace"])
        fault_rows = [
            e
            for e in events
            if e.get("tid") == FAULT_TRACK_TID and e["ph"] == "i"
        ]
        assert fault_rows, "pcpu_fail must land on the fault track"
        assert any("pcpu_fail" in e["name"] for e in fault_rows)
        meta = [
            e
            for e in events
            if e["ph"] == "M" and e.get("tid") == FAULT_TRACK_TID
        ]
        assert meta and meta[0]["args"]["name"] == "faults"
        # And the span consumer on the same bus saw the run too.
        spans = faulted_run["spans"].finalize(sec(1))
        assert spans.spans
        assert spans.windows("hypercall_fault", None, 0, sec(1)) == []

