"""Unit tests for overhead accounting (the Table 6 quantities)."""

import pytest

from repro.metrics.overhead import HostMetrics, OverheadStats, PcpuUsage


class TestOverheadStats:
    def test_record_paths(self):
        s = OverheadStats()
        s.record_schedule(500)
        s.record_schedule(500)
        s.record_context_switch(2000)
        s.record_migration(3000)
        s.record_hypercall(10000)
        assert s.schedule_calls == 2
        assert s.schedule_time == 1000
        assert s.switch_and_migration_time == 5000
        assert s.total_overhead_time() == 16000

    def test_overhead_percent(self):
        s = OverheadStats()
        s.record_schedule(1_000_000)
        assert s.overhead_percent(100_000_000) == pytest.approx(1.0)

    def test_percent_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            OverheadStats().overhead_percent(0)


class TestHostMetrics:
    def test_pcpu_lazily_created(self):
        m = HostMetrics()
        m.pcpu(3).busy += 10
        assert m.per_pcpu == {3: PcpuUsage(busy=10)}

    def test_utilization(self):
        u = PcpuUsage(busy=50, overhead=10)
        assert u.utilization(100) == pytest.approx(0.6)

    def test_utilization_rejects_zero_wall(self):
        with pytest.raises(ValueError):
            PcpuUsage().utilization(0)
