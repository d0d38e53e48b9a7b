"""Unit tests for demand and supply bound functions."""

import pytest

from repro.analysis.dbf import (
    AnalysisTask,
    dbf,
    dbf_task,
    demand_checkpoints,
    hyperperiod,
    utilization,
)
from repro.analysis.sbf import PeriodicResource, sbf
from repro.simcore.errors import ConfigurationError
from repro.simcore.time import msec


class TestDbf:
    def test_zero_before_first_deadline(self):
        t = AnalysisTask(msec(2), msec(10))
        assert dbf_task(t, msec(9)) == 0

    def test_steps_at_deadlines(self):
        t = AnalysisTask(msec(2), msec(10))
        assert dbf_task(t, msec(10)) == msec(2)
        assert dbf_task(t, msec(19)) == msec(2)
        assert dbf_task(t, msec(20)) == msec(4)

    def test_explicit_deadline(self):
        t = AnalysisTask(msec(2), msec(10), deadline=msec(5))
        assert dbf_task(t, msec(5)) == msec(2)
        assert dbf_task(t, msec(15)) == msec(4)

    def test_sum_over_tasks(self):
        tasks = [AnalysisTask(msec(1), msec(5)), AnalysisTask(msec(2), msec(10))]
        assert dbf(tasks, msec(10)) == msec(4)

    def test_invalid_task_rejected(self):
        with pytest.raises(ConfigurationError):
            AnalysisTask(0, msec(10))
        with pytest.raises(ConfigurationError):
            AnalysisTask(msec(6), msec(10), deadline=msec(5))

    def test_negative_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            dbf_task(AnalysisTask(1, 2), -1)

    def test_hyperperiod(self):
        tasks = [AnalysisTask(1, msec(10)), AnalysisTask(1, msec(15))]
        assert hyperperiod(tasks) == msec(30)

    def test_utilization(self):
        tasks = [AnalysisTask(msec(1), msec(4)), AnalysisTask(msec(1), msec(4))]
        assert utilization(tasks) == pytest.approx(0.5)

    def test_checkpoints_cover_deadlines(self):
        t = AnalysisTask(msec(2), msec(10))
        points = demand_checkpoints([t])
        assert msec(10) in points and msec(20) in points

    def test_checkpoints_truncated(self):
        t = AnalysisTask(1, 7)
        points = demand_checkpoints([t], bound=10**9, max_points=5)
        assert len(points) == 5


class TestSbf:
    def test_zero_through_starvation_gap(self):
        r = PeriodicResource(period=msec(10), budget=msec(4))
        # Worst-case gap 2(Π-Θ) = 12 ms.
        assert sbf(r, msec(12)) == 0
        assert sbf(r, msec(12) + 1) == 1

    def test_full_budget_after_gap_plus_budget(self):
        r = PeriodicResource(period=msec(10), budget=msec(4))
        assert sbf(r, msec(16)) == msec(4)

    def test_dedicated_cpu_supplies_everything(self):
        r = PeriodicResource(period=msec(10), budget=msec(10))
        assert sbf(r, msec(7)) == msec(7)

    def test_zero_budget_supplies_nothing(self):
        r = PeriodicResource(period=msec(10), budget=0)
        assert sbf(r, msec(100)) == 0

    def test_monotone_nondecreasing(self):
        r = PeriodicResource(period=msec(7), budget=msec(3))
        values = [sbf(r, t) for t in range(0, msec(50), msec(1) // 4)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_invalid_resource_rejected(self):
        with pytest.raises(ConfigurationError):
            PeriodicResource(period=0, budget=0)
        with pytest.raises(ConfigurationError):
            PeriodicResource(period=5, budget=6)
