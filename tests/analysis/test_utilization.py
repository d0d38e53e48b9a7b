"""Unit tests for utilization predicates."""

from repro.analysis.dbf import AnalysisTask
from repro.analysis.utilization import exact_utilization, minimum_cpus_dpwrap
from repro.simcore.time import msec


class TestUtilization:
    def test_exact_sum(self):
        assert exact_utilization([(1, 3), (1, 3), (1, 3)]) == 1

    def test_minimum_cpus(self):
        tasks = [AnalysisTask(msec(8), msec(10)) for _ in range(3)]  # U=2.4
        assert minimum_cpus_dpwrap(tasks) == 3

    def test_minimum_cpus_exact_integer(self):
        tasks = [AnalysisTask(msec(10), msec(10)) for _ in range(2)]  # U=2
        assert minimum_cpus_dpwrap(tasks) == 2

    def test_minimum_cpus_at_least_one(self):
        assert minimum_cpus_dpwrap([AnalysisTask(1, msec(100))]) == 1
